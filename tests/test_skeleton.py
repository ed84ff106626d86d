import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcd.errors import Infeasible
from relcd.harness import generate_case
from relcd.model import RelationalModel, random_model
from relcd.paths import path
from relcd.schema import Cardinality, random_schema
from relcd.skeleton import (
    Skeleton,
    dsep_ground,
    ground_graph,
    load_skeleton,
    random_skeleton,
    sample_data,
    save_skeleton,
    terminal_set,
)
from tests.conftest import dep, single_entity_schema


@pytest.fixture()
def tiny_movie_skeleton(movie_schema):
    # a1 and a2 both star in m1; a1 also stars in m2
    return Skeleton(
        movie_schema,
        instances={"ACTOR": ("a1", "a2"), "MOVIE": ("m1", "m2")},
        links={"STARS-IN": (("s1", "a1", "m1"), ("s2", "a2", "m1"), ("s3", "a1", "m2"))},
    )


def test_random_skeleton_sizes(movie_schema):
    skel = random_skeleton(movie_schema, {"ACTOR": 4, "MOVIE": 5}, seed=0)
    assert len(skel.instances["ACTOR"]) == 4
    assert len(skel.instances["MOVIE"]) == 5
    assert len(skel.links["STARS-IN"]) >= 1


def test_random_skeleton_deterministic(movie_schema):
    a = random_skeleton(movie_schema, {"ACTOR": 6, "MOVIE": 6}, 2.0, seed=3)
    b = random_skeleton(movie_schema, {"ACTOR": 6, "MOVIE": 6}, 2.0, seed=3)
    assert a.instances == b.instances and a.links == b.links


def test_random_skeleton_minimal(movie_schema):
    skel = random_skeleton(movie_schema, {"ACTOR": 1, "MOVIE": 1}, 1.0, seed=0)
    assert len(skel.links["STARS-IN"]) <= 1


@given(seed=st.integers(0, 3000))
@settings(max_examples=25, deadline=None)
def test_random_skeleton_respects_one_cardinality(employer_schema, seed):
    skel = random_skeleton(
        employer_schema, {"EMPLOYEE": 12, "COMPANY": 4}, 1.0, seed=seed
    )
    employees = [e for _, e, _ in skel.links["WORKS-FOR"]]
    assert len(employees) == len(set(employees))


def test_random_skeleton_density_infeasible(employer_schema):
    with pytest.raises(Infeasible):
        random_skeleton(employer_schema, {"EMPLOYEE": 3, "COMPANY": 3}, 5.0, seed=0)


def test_skeleton_rejects_unknown_reference(movie_schema):
    with pytest.raises(ValueError, match="unknown"):
        Skeleton(
            movie_schema,
            instances={"ACTOR": ("a1",), "MOVIE": ("m1",)},
            links={"STARS-IN": (("s1", "a9", "m1"),)},
        )


def test_skeleton_rejects_cardinality_violation(employer_schema):
    with pytest.raises(ValueError, match="cardinality"):
        Skeleton(
            employer_schema,
            instances={"EMPLOYEE": ("e1",), "COMPANY": ("c1", "c2")},
            links={"WORKS-FOR": (("w1", "e1", "c1"), ("w2", "e1", "c2"))},
        )


def test_terminal_set_costars(tiny_movie_skeleton):
    costars = path("ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR")
    assert terminal_set(tiny_movie_skeleton, costars, "a1") == {"a2"}
    assert terminal_set(tiny_movie_skeleton, costars, "a2") == {"a1"}


def test_terminal_set_singleton(tiny_movie_skeleton):
    assert terminal_set(tiny_movie_skeleton, path("ACTOR"), "a1") == {"a1"}


def test_terminal_set_no_links(movie_schema):
    skel = Skeleton(
        movie_schema,
        instances={"ACTOR": ("a1",), "MOVIE": ("m1",)},
        links={"STARS-IN": ()},
    )
    assert terminal_set(skel, path("ACTOR", "STARS-IN", "MOVIE"), "a1") == set()


def test_terminal_set_wrong_class(tiny_movie_skeleton):
    with pytest.raises(ValueError):
        terminal_set(tiny_movie_skeleton, path("ACTOR"), "m1")


@given(seed=st.integers(0, 3000))
@settings(max_examples=25, deadline=None)
def test_terminal_set_reverse_containment(movie_schema, seed):
    # on a MANY/MANY schema, short traversals are symmetric
    skel = random_skeleton(movie_schema, {"ACTOR": 8, "MOVIE": 6}, 2.0, seed=seed)
    forward = path("ACTOR", "STARS-IN", "MOVIE")
    backward = path("MOVIE", "STARS-IN", "ACTOR")
    for a in skel.instances["ACTOR"]:
        for m in terminal_set(skel, forward, a):
            assert a in terminal_set(skel, backward, m)


def test_ground_graph_movie_example(movie_truth, tiny_movie_skeleton):
    gg = ground_graph(movie_truth, tiny_movie_skeleton)
    edges = set(gg.edges())
    assert (("ACTOR", "a1", "Popularity"), ("MOVIE", "m1", "Success")) in edges
    assert (("ACTOR", "a2", "Popularity"), ("MOVIE", "m1", "Success")) in edges
    assert (("ACTOR", "a1", "Popularity"), ("MOVIE", "m2", "Success")) in edges
    assert len(edges) == 3
    assert gg.is_acyclic()


def test_ground_graph_empty_model(movie_schema, tiny_movie_skeleton):
    gg = ground_graph(RelationalModel(movie_schema, ()), tiny_movie_skeleton)
    assert gg.edges() == []
    assert set(gg.nodes) == {
        ("ACTOR", "a1", "Popularity"),
        ("ACTOR", "a2", "Popularity"),
        ("MOVIE", "m1", "Success"),
        ("MOVIE", "m2", "Success"),
    }


def test_ground_graph_one_cardinality(employer_schema):
    model = RelationalModel(
        employer_schema,
        (dep(["COMPANY", "WORKS-FOR", "EMPLOYEE"], "Skill", "COMPANY", "Revenue"),),
    )
    skel = random_skeleton(employer_schema, {"EMPLOYEE": 10, "COMPANY": 3}, 1.0, seed=1)
    gg = ground_graph(model, skel)
    # every employee's skill feeds exactly the one company it works for
    fan_out = {}
    for a, b in gg.edges():
        fan_out.setdefault(a, []).append(b)
    assert all(len(v) == 1 for v in fan_out.values())


def test_ground_graph_schema_mismatch(movie_truth, employer_schema):
    skel = random_skeleton(employer_schema, {"EMPLOYEE": 2, "COMPANY": 2}, 1.0, seed=0)
    with pytest.raises(ValueError):
        ground_graph(movie_truth, skel)


@given(seed=st.integers(0, 2000))
@settings(max_examples=15, deadline=None)
def test_ground_graph_acyclic_for_random_models(seed):
    schema = random_schema(seed, 2)
    try:
        model = random_model(schema, 3, seed=seed, restarts=20)
    except Infeasible:
        return
    sizes = {e: 6 for e in schema.entity_names}
    skel = random_skeleton(schema, sizes, 1.0, seed=seed)
    assert ground_graph(model, skel).is_acyclic()


def test_sample_data_edgeless_iid(movie_schema):
    skel = random_skeleton(movie_schema, {"ACTOR": 400, "MOVIE": 400}, 1.0, seed=0)
    gg = ground_graph(RelationalModel(movie_schema, ()), skel)
    values = sample_data(gg, seed=1)
    cols = np.array(
        [
            [values[("ACTOR", a, "Popularity")] for a in skel.instances["ACTOR"]],
            [values[("MOVIE", m, "Success")] for m in skel.instances["MOVIE"]],
        ]
    )
    corr = np.corrcoef(cols)[0, 1]
    assert abs(corr) < 0.15
    assert abs(cols.mean()) < 0.15


def test_sample_data_single_edge_correlation():
    schema = single_entity_schema("X", "Y")
    model = RelationalModel(schema, (dep(["E1"], "X", "E1", "Y"),))
    skel = Skeleton(
        schema, instances={"E1": tuple(f"i{k}" for k in range(4000))}, links={}
    )
    values = sample_data(ground_graph(model, skel), seed=7)
    xs = np.array([values[("E1", i, "X")] for i in skel.instances["E1"]])
    ys = np.array([values[("E1", i, "Y")] for i in skel.instances["E1"]])
    corr = np.corrcoef(xs, ys)[0, 1]
    # |coef| in [0.3, 0.7] implies |corr| = |c|/sqrt(1+c^2) in about [0.29, 0.58]
    assert 0.2 <= abs(corr) <= 0.65


def node_order_sample(gg, seed, coeff_range=(0.3, 0.7), noise_sd=1.0):
    """Reference sampler: the same draws, taken node by node in a
    lexicographic topological order of the whole ground graph."""
    rng = np.random.default_rng(seed)
    coeffs = {
        d: float(rng.uniform(*coeff_range)) * float(rng.choice((-1.0, 1.0)))
        for d in gg.model.dependencies
    }
    ordered = sorted(gg.nodes)
    noise = dict(zip(ordered, rng.normal(0.0, noise_sd, size=len(ordered))))
    values = {}
    for node in nx.lexicographical_topological_sort(gg.to_networkx()):
        total = noise[node]
        for d, group in gg.parents.get(node, {}).items():
            total += coeffs[d] * float(np.mean([values[p] for p in group]))
        values[node] = float(total)
    return values


@pytest.mark.parametrize("case", range(4))
def test_sample_data_matches_node_order_reference(case):
    schema, model = generate_case(3, 6, 4, np.random.SeedSequence(entropy=case))
    assert len(model.dependencies) >= 5
    skel = random_skeleton(schema, dict.fromkeys(schema.entity_names, 15), 1.0, seed=case)
    gg = ground_graph(model, skel)
    assert gg.parents  # the ground graph has edges to respect
    assert sample_data(gg, seed=case) == node_order_sample(gg, seed=case)


def test_sample_data_deterministic(movie_truth, tiny_movie_skeleton):
    gg = ground_graph(movie_truth, tiny_movie_skeleton)
    assert sample_data(gg, seed=3) == sample_data(gg, seed=3)
    assert sample_data(gg, seed=3) != sample_data(gg, seed=4)


def test_dsep_ground_collider(movie_truth, tiny_movie_skeleton):
    gg = ground_graph(movie_truth, tiny_movie_skeleton)
    a1 = {("ACTOR", "a1", "Popularity")}
    a2 = {("ACTOR", "a2", "Popularity")}
    m1 = {("MOVIE", "m1", "Success")}
    assert dsep_ground(gg, a1, a2, set())
    assert not dsep_ground(gg, a1, a2, m1)


def test_dsep_ground_overlap_rejected(movie_truth, tiny_movie_skeleton):
    gg = ground_graph(movie_truth, tiny_movie_skeleton)
    a1 = {("ACTOR", "a1", "Popularity")}
    with pytest.raises(ValueError):
        dsep_ground(gg, a1, a1 | {("ACTOR", "a2", "Popularity")}, set())


def test_dsep_ground_edgeless(movie_schema, tiny_movie_skeleton):
    gg = ground_graph(RelationalModel(movie_schema, ()), tiny_movie_skeleton)
    assert dsep_ground(
        gg,
        {("ACTOR", "a1", "Popularity")},
        {("MOVIE", "m1", "Success")},
        set(),
    )


def test_save_load_round_trip_structure(movie_schema, tmp_path):
    skel = random_skeleton(movie_schema, {"ACTOR": 5, "MOVIE": 4}, 2.0, seed=2)
    manifest = save_skeleton(skel, tmp_path)
    loaded = load_skeleton(movie_schema, manifest)
    assert loaded.instances == skel.instances
    assert loaded.links == skel.links
    assert loaded.values == {}


def test_save_load_round_trip_values(movie_truth, movie_schema, tmp_path):
    skel = random_skeleton(movie_schema, {"ACTOR": 5, "MOVIE": 4}, 2.0, seed=2)
    values = sample_data(ground_graph(movie_truth, skel), seed=9)
    full = skel.with_values(values)
    manifest = save_skeleton(full, tmp_path)
    loaded = load_skeleton(movie_schema, manifest)
    assert loaded.values == values
    assert loaded.instances == skel.instances


def test_load_rejects_unknown_reference(movie_schema, tmp_path):
    skel = random_skeleton(movie_schema, {"ACTOR": 3, "MOVIE": 3}, 1.0, seed=0)
    manifest = save_skeleton(skel, tmp_path)
    stars = tmp_path / "stars-in.csv"
    rows = stars.read_text().splitlines()
    rows.append("s99,ghost,movie0")
    stars.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="unknown"):
        load_skeleton(movie_schema, manifest)


def test_load_rejects_cardinality_violation(employer_schema, tmp_path):
    skel = random_skeleton(employer_schema, {"EMPLOYEE": 4, "COMPANY": 2}, 1.0, seed=0)
    manifest = save_skeleton(skel, tmp_path)
    works = tmp_path / "works-for.csv"
    rows = works.read_text().splitlines()
    first = rows[1].split(",")
    rows.append(f"w99,{first[1]},{first[2]}")
    works.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="cardinality"):
        load_skeleton(employer_schema, manifest)


def test_load_rejects_non_numeric(movie_schema, movie_truth, tmp_path):
    skel = random_skeleton(movie_schema, {"ACTOR": 3, "MOVIE": 3}, 1.0, seed=0)
    values = sample_data(ground_graph(movie_truth, skel), seed=0)
    manifest = save_skeleton(skel.with_values(values), tmp_path)
    actor = tmp_path / "actor.csv"
    text = actor.read_text().splitlines()
    text[1] = text[1].rsplit(",", 1)[0] + ",not-a-number"
    actor.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_skeleton(movie_schema, manifest)


def test_load_rejects_unknown_column(movie_schema, tmp_path):
    skel = random_skeleton(movie_schema, {"ACTOR": 3, "MOVIE": 3}, 1.0, seed=0)
    manifest = save_skeleton(skel, tmp_path)
    actor = tmp_path / "actor.csv"
    lines = actor.read_text().splitlines()
    lines[0] = "id,Mystery"
    lines = [lines[0]] + [f"{line},1.0" for line in lines[1:]]
    actor.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="unknown column"):
        load_skeleton(movie_schema, manifest)


def test_load_missing_file(movie_schema, tmp_path):
    skel = random_skeleton(movie_schema, {"ACTOR": 3, "MOVIE": 3}, 1.0, seed=0)
    manifest = save_skeleton(skel, tmp_path)
    (tmp_path / "actor.csv").unlink()
    with pytest.raises(ValueError, match="missing"):
        load_skeleton(movie_schema, manifest)
