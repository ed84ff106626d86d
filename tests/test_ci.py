import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcd.ci import (
    CIQuery,
    CIStats,
    OracleCI,
    RegressionCI,
    SepsetStore,
    find_sepset,
)
from relcd.errors import Infeasible
from relcd.model import (
    class_dependency_graph,
    random_model,
)
from relcd.schema import AttributeClass, random_schema
from relcd.skeleton import ground_graph, random_skeleton, sample_data
from tests.conftest import propositional_model, single_entity_schema, var


POP = var(["ACTOR"], "Popularity")
COSTAR_POP = var(["ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR"], "Popularity")
SUCCESS_VIA_ACTOR = var(["ACTOR", "STARS-IN", "MOVIE"], "Success")
POP_VIA_MOVIE = var(["MOVIE", "STARS-IN", "ACTOR"], "Popularity")
SUCCESS = var(["MOVIE"], "Success")
OTHER_SUCCESS = var(["MOVIE", "STARS-IN", "ACTOR", "STARS-IN", "MOVIE"], "Success")


def test_query_validation():
    with pytest.raises(ValueError):
        CIQuery("ACTOR", POP, POP)
    with pytest.raises(ValueError):
        CIQuery("ACTOR", POP, COSTAR_POP, frozenset((POP,)))
    with pytest.raises(ValueError):
        CIQuery("MOVIE", POP, COSTAR_POP)


def test_oracle_movie_examples(movie_truth):
    independent = OracleCI(movie_truth, hops=8).independent
    assert independent(CIQuery("ACTOR", POP, COSTAR_POP))
    assert not independent(CIQuery("MOVIE", POP_VIA_MOVIE, SUCCESS))
    assert independent(
        CIQuery("MOVIE", SUCCESS, OTHER_SUCCESS, frozenset((POP_VIA_MOVIE,))),
    )


def test_oracle_conditioning_opens_collider(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    assert not backend.independent(
        CIQuery("ACTOR", POP, COSTAR_POP, frozenset((SUCCESS_VIA_ACTOR,)))
    )


def test_oracle_rejects_out_of_range_variable(movie_truth):
    backend = OracleCI(movie_truth, hops=2)
    with pytest.raises(ValueError, match="outside"):
        backend.independent(CIQuery("ACTOR", POP, COSTAR_POP))


def test_oracle_counts_calls(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    backend.independent(CIQuery("ACTOR", POP, COSTAR_POP))
    backend.independent(CIQuery("ACTOR", POP, COSTAR_POP))
    assert backend.calls == 2


@given(seed=st.integers(0, 2000))
@settings(max_examples=20, deadline=None)
def test_oracle_symmetry(seed):
    schema = random_schema(seed, 2)
    try:
        model = random_model(schema, 3, seed=seed, restarts=20)
    except Infeasible:
        return
    backend = OracleCI(model, hops=6)
    snap_vars = sorted(backend._snapshot(schema.entities[0].name).index, key=str)
    if len(snap_vars) < 3:
        return
    x, y, z = snap_vars[0], snap_vars[1], snap_vars[2]
    if x.attribute_class == y.attribute_class and x == y:
        return
    cond = frozenset((z,)) - {x, y}
    p = schema.entities[0].name
    assert backend.independent(CIQuery(p, x, y, cond)) == backend.independent(
        CIQuery(p, y, x, cond)
    )


@given(seed=st.integers(0, 2000))
@settings(max_examples=20, deadline=None)
def test_oracle_matches_class_graph_on_single_entity(seed):
    schema = random_schema(seed, 1)
    attrs = schema.entities[0].attributes
    if len(attrs) < 2:
        return
    try:
        model = random_model(schema, min(3, len(attrs)), seed=seed, restarts=20)
    except Infeasible:
        return
    backend = OracleCI(model, hops=8)
    g = class_dependency_graph(model)
    entity = schema.entities[0].name
    a, b = attrs[0], attrs[1]
    others = frozenset(var([entity], c) for c in attrs[2:3])
    mine = backend.independent(
        CIQuery(entity, var([entity], a), var([entity], b), others)
    )
    theirs = nx.is_d_separator(
        g,
        {AttributeClass(entity, a)},
        {AttributeClass(entity, b)},
        {AttributeClass(entity, v.attribute) for v in others},
    )
    assert mine == theirs


@pytest.fixture(scope="module")
def movie_data(movie_truth):
    skel = random_skeleton(
        movie_truth.schema, {"ACTOR": 5000, "MOVIE": 5000}, 3.0, seed=17
    )
    values = sample_data(ground_graph(movie_truth, skel), seed=18)
    return skel.with_values(values)


def test_regression_detects_direct_dependency(movie_truth, movie_schema):
    # the direct pair reads as dependent for the vast majority of seeds
    hits = 0
    for seed in range(20):
        skel = random_skeleton(movie_schema, {"ACTOR": 1200, "MOVIE": 1200}, 3.0, seed=seed)
        values = sample_data(ground_graph(movie_truth, skel), seed=seed + 100)
        backend = RegressionCI(skel.with_values(values))
        if not backend.independent(CIQuery("MOVIE", POP_VIA_MOVIE, SUCCESS)):
            hits += 1
    assert hits >= 19


def test_regression_null_size(movie_schema):
    from relcd.model import RelationalModel

    null = RelationalModel(movie_schema, ())
    accepted = 0
    for seed in range(20):
        skel = random_skeleton(movie_schema, {"ACTOR": 1200, "MOVIE": 1200}, 3.0, seed=seed)
        values = sample_data(ground_graph(null, skel), seed=seed + 500)
        backend = RegressionCI(skel.with_values(values))
        if backend.independent(CIQuery("MOVIE", POP_VIA_MOVIE, SUCCESS)):
            accepted += 1
    assert accepted >= 16  # roughly 1 - alpha of seeds


def test_regression_zero_variance_column(movie_schema, movie_truth):
    skel = random_skeleton(movie_schema, {"ACTOR": 50, "MOVIE": 50}, 2.0, seed=3)
    values = {node: 0.0 for node in skel.nodes()}
    backend = RegressionCI(skel.with_values(values))
    with pytest.warns(UserWarning, match="zero-variance"):
        assert backend.independent(CIQuery("MOVIE", POP_VIA_MOVIE, SUCCESS))


def test_regression_insufficient_rows(movie_schema, movie_truth):
    skel = random_skeleton(movie_schema, {"ACTOR": 2, "MOVIE": 2}, 1.0, seed=0)
    values = sample_data(ground_graph(movie_truth, skel), seed=1)
    backend = RegressionCI(skel.with_values(values))
    with pytest.raises(ValueError, match="usable rows"):
        backend.independent(CIQuery("MOVIE", POP_VIA_MOVIE, SUCCESS))


def test_regression_requires_values(movie_schema):
    skel = random_skeleton(movie_schema, {"ACTOR": 10, "MOVIE": 10}, 2.0, seed=0)
    with pytest.raises(ValueError, match="values"):
        RegressionCI(skel)


def test_regression_invariant_to_rescaling(movie_data):
    base = RegressionCI(movie_data)
    scaled = RegressionCI(
        movie_data.with_values({k: v * 10.0 for k, v in movie_data.values.items()})
    )
    queries = [
        CIQuery("MOVIE", POP_VIA_MOVIE, SUCCESS),
        CIQuery("ACTOR", POP, COSTAR_POP),
        CIQuery("ACTOR", POP, COSTAR_POP, frozenset((SUCCESS_VIA_ACTOR,))),
    ]
    for q in queries:
        assert base.independent(q) == scaled.independent(q)


def test_regression_invariant_to_row_order(movie_schema, movie_truth):
    from relcd.skeleton import Skeleton

    skel = random_skeleton(movie_schema, {"ACTOR": 300, "MOVIE": 300}, 3.0, seed=5)
    values = sample_data(ground_graph(movie_truth, skel), seed=6)
    renamed_actor = {a: f"z{i:04d}" for i, a in enumerate(reversed(skel.instances["ACTOR"]))}
    shuffled = Skeleton(
        movie_schema,
        instances={
            "ACTOR": tuple(renamed_actor[a] for a in skel.instances["ACTOR"]),
            "MOVIE": skel.instances["MOVIE"],
        },
        links={
            "STARS-IN": tuple(
                (link, renamed_actor[a], m) for link, a, m in skel.links["STARS-IN"]
            )
        },
        values={
            (cls, renamed_actor.get(inst, inst) if cls == "ACTOR" else inst, attr): v
            for (cls, inst, attr), v in values.items()
        },
    )
    q = CIQuery("MOVIE", POP_VIA_MOVIE, SUCCESS)
    assert RegressionCI(skel.with_values(values)).independent(q) == RegressionCI(
        shuffled
    ).independent(q)


def test_regression_facade(movie_data):
    query = CIQuery("ACTOR", POP, COSTAR_POP)
    assert RegressionCI(movie_data).independent(query) is True


def test_find_sepset_movie(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    store = SepsetStore()
    stats = CIStats()
    sep = find_sepset(
        backend,
        POP,
        COSTAR_POP,
        [SUCCESS_VIA_ACTOR],
        max_depth=3,
        store=store,
        stats=stats,
        label="probe",
    )
    assert sep == frozenset()
    assert store.get(POP, COSTAR_POP) == frozenset()
    assert stats.counts["probe"] == 1


def test_find_sepset_none_for_direct_dependency(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    assert (
        find_sepset(backend, POP_VIA_MOVIE, SUCCESS, [OTHER_SUCCESS], 3) is None
    )


def test_find_sepset_empty_pool(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    stats = CIStats()
    sep = find_sepset(backend, POP, COSTAR_POP, [], 0, stats=stats)
    assert sep == frozenset()
    assert stats.total == 1


def test_stats_match_backend_invocations(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    stats = CIStats()
    find_sepset(
        backend, POP_VIA_MOVIE, SUCCESS, [OTHER_SUCCESS], 2, stats=stats
    )
    assert stats.total == backend.calls


def test_sepset_store_keeps_first():
    store = SepsetStore()
    store.record(POP, COSTAR_POP, frozenset())
    store.record(COSTAR_POP, POP, frozenset((SUCCESS_VIA_ACTOR,)))
    assert store.get(POP, COSTAR_POP) == frozenset()
    assert len(store) == 1


def test_cistats_merge():
    a = CIStats({"phase1": 2})
    b = CIStats({"phase1": 1, "phase2_cd": 4})
    a.merge(b)
    assert a.counts == {"phase1": 3, "phase2_cd": 4}
    assert a.total == 7
