import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relcd import model as model_module
from relcd.errors import Infeasible
from relcd.model import (
    RelationalModel,
    canonical_pair,
    is_canonical,
    model_from_dict,
    model_from_json,
    model_to_json,
    parse_dependency,
    parse_variable,
    potential_dependencies,
    random_model,
    reverse_dependency,
    validate_dependency,
)
from relcd.schema import random_schema
from tests import reference
from tests.conftest import dep, single_entity_schema, var
from tests.reference import is_dag


def test_is_canonical():
    assert is_canonical(dep(["MOVIE", "STARS-IN", "ACTOR"], "Popularity", "MOVIE", "Success"))
    assert is_canonical(dep(["ACTOR"], "Age", "ACTOR", "Popularity"))
    non_canonical = parse_dependency(
        "[ACTOR].Popularity -> [ACTOR, STARS-IN, MOVIE].Success"
    )
    assert not is_canonical(non_canonical)


def test_reverse_dependency_example():
    d = dep(["MOVIE", "STARS-IN", "ACTOR"], "Popularity", "MOVIE", "Success")
    rev = reverse_dependency(d)
    assert str(rev) == "[ACTOR, STARS-IN, MOVIE].Success -> [ACTOR].Popularity"
    assert reverse_dependency(rev) == d


def test_reverse_dependency_intra_class():
    d = dep(["ACTOR"], "Age", "ACTOR", "Popularity")
    assert str(reverse_dependency(d)) == "[ACTOR].Popularity -> [ACTOR].Age"


def test_reverse_dependency_rejects_non_canonical():
    bad = parse_dependency("[ACTOR].Popularity -> [ACTOR, STARS-IN, MOVIE].Success")
    with pytest.raises(ValueError):
        reverse_dependency(bad)


def test_potential_dependencies_movie(movie_schema):
    got = potential_dependencies(movie_schema, 4)
    want = {
        "[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE].Success",
        "[ACTOR, STARS-IN, MOVIE].Success -> [ACTOR].Popularity",
    }
    assert {str(d) for d in got} == want


def test_potential_dependencies_movie_hop_zero(movie_schema):
    assert potential_dependencies(movie_schema, 0) == []


def test_potential_dependencies_single_entity():
    schema = single_entity_schema("X", "Y")
    got = {str(d) for d in potential_dependencies(schema, 4)}
    assert got == {"[E1].X -> [E1].Y", "[E1].Y -> [E1].X"}


@given(seed=st.integers(0, 5000), k=st.integers(1, 4), hops=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_potential_dependencies_closed_under_reverse(seed, k, hops):
    schema = random_schema(seed, k)
    pds = potential_dependencies(schema, hops)
    pds_set = set(pds)
    assert len(pds) == len(pds_set)
    for d in pds:
        assert reverse_dependency(d) in pds_set
        assert d.cause.attribute_class != d.effect.attribute_class


@given(seed=st.integers(0, 5000), k=st.integers(1, 4), hops=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_potential_dependencies_match_reference_order(seed, k, hops):
    # text keys built from each path's text sort as str(dep) does
    schema = random_schema(seed, k)
    assert potential_dependencies(schema, hops) == reference.potential_dependencies(
        schema, hops
    )


def _random_models(cases) -> list[str | None]:
    """``model_to_json`` of each case's ``random_model``, None if infeasible."""
    out = []
    for seed, k, num_deps in cases:
        try:
            out.append(model_to_json(random_model(random_schema(seed, k), num_deps, seed=seed)))
        except Infeasible:
            out.append(None)
    return out


def test_random_model_draws_as_from_the_reference_pool(monkeypatch):
    # random_model draws by index into the pool, so the pool's order is its output
    cases = [(seed, 1 + seed % 4, 1 + seed % 7) for seed in range(20)]
    mine = _random_models(cases)
    monkeypatch.setattr(model_module, "potential_dependencies",
                        reference.potential_dependencies)
    assert _random_models(cases) == mine
    assert sum(m is not None for m in mine) >= 15


@given(seed=st.integers(0, 5000))
@settings(max_examples=20, deadline=None)
def test_single_entity_potentials_are_propositional(seed):
    schema = random_schema(seed, 1)
    for d in potential_dependencies(schema, 4):
        assert len(d.cause.path.items) == 1


def _class_graph_is_dag(deps):
    """Reference: networkx's verdict on the attribute-class graph."""
    return is_dag((), ((d.cause.attribute_class, d.effect.attribute_class) for d in deps))


def test_cyclic_model_rejected():
    schema = single_entity_schema("X", "Y")
    with pytest.raises(ValueError, match="cyclic"):
        RelationalModel(
            schema, (dep(["E1"], "X", "E1", "Y"), dep(["E1"], "Y", "E1", "X"))
        )


def test_empty_model_acyclic(movie_schema):
    assert RelationalModel(movie_schema, ()).dependencies == ()


# five attributes; a propositional edge set orients some of their pairs,
# so its cycles, if any, have length 3 or more
_PAIRS = [(a, b) for a in "ABCDE" for b in "ABCDE" if a < b]


@given(
    orientation=st.dictionaries(st.sampled_from(_PAIRS), st.booleans(), min_size=3),
    seed=st.integers(0, 500),
    picks=st.lists(st.integers(0, 10**6), max_size=6),
)
@example(  # a 4-cycle A -> B -> C -> D -> A
    orientation={("A", "B"): True, ("B", "C"): True, ("C", "D"): True, ("A", "D"): False},
    seed=0,
    picks=[],
)
@settings(max_examples=150, deadline=None)
def test_model_rejects_exactly_cyclic_class_graphs(orientation, seed, picks):
    """Propositional edge sets, then relational ones from a random schema."""
    edges = [(a, b) if forward else (b, a) for (a, b), forward in orientation.items()]
    schema = single_entity_schema(*"ABCDE")
    cases = [(schema, [dep(["E1"], a, "E1", b) for a, b in edges])]
    schema = random_schema(seed, 2 + seed % 2)
    pool = potential_dependencies(schema, 2)
    if pool:
        cases.append((schema, [pool[i % len(pool)] for i in picks]))
    for schema, deps in cases:
        if _class_graph_is_dag(deps):
            model = RelationalModel(schema, tuple(deps))
            assert set(model.dependencies) == set(deps)
        else:
            with pytest.raises(ValueError, match="cyclic"):
                RelationalModel(schema, tuple(deps))


def test_model_rejects_unknown_attribute(movie_schema):
    with pytest.raises(ValueError):
        RelationalModel(
            movie_schema,
            (dep(["MOVIE", "STARS-IN", "ACTOR"], "Fame", "MOVIE", "Success"),),
        )


@pytest.mark.parametrize(
    ("text", "error"),
    [
        (
            "[ACTOR].Popularity -> [ACTOR, STARS-IN, MOVIE].Success",
            "dependency is not canonical",
        ),
        (
            "[ACTOR, MOVIE].Success -> [ACTOR].Popularity",
            "invalid cause path",
        ),
        (
            "[ACTOR].Popularity -> [MOVIE].Success",
            "cause and effect perspectives differ",
        ),
    ],
    ids=["non-canonical", "invalid-path", "perspectives"],
)
def test_validate_dependency_names_each_fault(movie_schema, text, error):
    with pytest.raises(ValueError, match=error):
        validate_dependency(parse_dependency(text), movie_schema)


def test_model_rejects_same_attribute_dependency(movie_schema):
    loop = dep(
        ["ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR"],
        "Popularity",
        "ACTOR",
        "Popularity",
    )
    with pytest.raises(ValueError):
        RelationalModel(movie_schema, (loop,))


def test_random_model_movie_single_dep(movie_schema):
    model = random_model(movie_schema, 1, seed=5)
    assert len(model.dependencies) == 1
    assert str(model.dependencies[0]) in {
        "[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE].Success",
        "[ACTOR, STARS-IN, MOVIE].Success -> [ACTOR].Popularity",
    }


def test_random_model_empty(movie_schema):
    assert random_model(movie_schema, 0, seed=1).dependencies == ()


def test_random_model_deterministic():
    schema = random_schema(7, 3)
    assert random_model(schema, 5, seed=9) == random_model(schema, 5, seed=9)


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({"max_parents": -1}, "max_parents must be >= 0"),
        ({"restarts": 0}, "restarts must be >= 1"),
        ({"restarts": -3}, "restarts must be >= 1"),
        ({"num_deps": -1}, "num_deps must be >= 0"),
        ({"seed": -1}, "seed must be >= 0"),
    ],
    ids=["max-parents-1", "restarts0", "restarts-3", "num-deps-1", "seed-1"],
)
def test_random_model_rejects_bad_bounds(movie_schema, kwargs, message):
    with pytest.raises(ValueError, match=message):
        random_model(movie_schema, **{"num_deps": 1, "seed": 0, **kwargs})


def test_random_model_accepts_zero_parents(movie_schema):
    assert random_model(movie_schema, 0, max_parents=0).dependencies == ()
    with pytest.raises(Infeasible):
        random_model(movie_schema, 1, max_parents=0, restarts=3)


def test_random_model_infeasible():
    schema = single_entity_schema("X")
    with pytest.raises(Infeasible):
        random_model(schema, 1, seed=0)


@given(seed=st.integers(0, 2000), k=st.integers(2, 4), deps=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_random_model_invariants(seed, k, deps):
    schema = random_schema(seed, k)
    try:
        model = random_model(schema, deps, seed=seed + 1, restarts=20)
    except Infeasible:
        return
    assert len(model.dependencies) == deps
    assert _class_graph_is_dag(model.dependencies)
    parents = {}
    for d in model.dependencies:
        ac = d.effect.attribute_class
        parents[ac] = parents.get(ac, 0) + 1
    assert all(count <= 3 for count in parents.values())


def test_parse_variable_round_trip():
    v = var(["ACTOR", "STARS-IN", "MOVIE"], "Success")
    assert parse_variable(str(v)) == v
    with pytest.raises(ValueError):
        parse_variable("[ACTOR] Popularity")
    with pytest.raises(ValueError, match="malformed dependency"):
        parse_dependency("[ACTOR].Popularity <- [ACTOR, STARS-IN, MOVIE].Success")


def test_canonical_pair_representative():
    d = dep(["MOVIE", "STARS-IN", "ACTOR"], "Popularity", "MOVIE", "Success")
    assert canonical_pair(d) == canonical_pair(reverse_dependency(d))


def test_model_pairs_map_canonical_pairs_to_dependencies():
    schema = random_schema(0, 3)
    model = random_model(schema, 5, seed=0, restarts=20)
    pairs = model.pairs
    assert list(pairs.items()) == [(canonical_pair(d), d) for d in model.dependencies]
    assert list(model.dependencies) == sorted(model.dependencies, key=str)
    # both kinds occur: dependencies that are their pair's form, and others
    assert any(p == d for p, d in pairs.items())
    assert any(p != d for p, d in pairs.items())
    assert model.pairs is pairs


def test_model_json_round_trip(movie_truth):
    assert model_from_json(model_to_json(movie_truth)) == movie_truth


@pytest.mark.parametrize(
    "doc",
    [
        {"dependencies": []},
        [1],
        "model",
        {"schema": {"entities": []}, "dependencies": [1]},
        {"schema": {"entities": []}, "dependencies": 3},
    ],
)
def test_model_from_dict_rejects_malformed_documents(doc):
    with pytest.raises(ValueError, match="malformed model document"):
        model_from_dict(doc)
