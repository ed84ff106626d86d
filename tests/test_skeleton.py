import json
import math
import random
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from relcd import skeleton
from relcd.errors import Infeasible
from relcd.harness import generate_case
from relcd.model import RelationalModel, random_model
from relcd.paths import enumerate_paths, path
from relcd.schema import Cardinality, random_schema
from relcd.skeleton import (
    Skeleton,
    TerminalSets,
    ground_graph,
    load_skeleton,
    random_skeleton,
    sample_data,
    save_skeleton,
    terminal_means,
)
from tests.conftest import dep, single_entity_schema
from tests.reference import dsep_ground, ground_digraph, is_acyclic, terminal_set


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


@pytest.mark.parametrize("density", [float("inf"), float("nan"), 0.0, -3.0])
def test_random_skeleton_rejects_bad_density(movie_schema, density):
    with pytest.raises(ValueError, match="link_density must be finite and > 0"):
        random_skeleton(movie_schema, {"ACTOR": 4, "MOVIE": 4}, density, seed=0)


@pytest.mark.parametrize(
    ("sizes", "seed", "error"),
    [
        ({"ACTOR": 0, "MOVIE": 4}, 0, "size for 'ACTOR' must be >= 1"),
        ({"ACTOR": 4}, 0, "size for 'MOVIE' must be >= 1"),
        ({"ACTOR": 4, "MOVIE": 4}, -1, "seed must be >= 0"),
    ],
    ids=["size0", "size-missing", "seed-1"],
)
def test_random_skeleton_rejects_bad_sizes_and_seeds(movie_schema, sizes, seed, error):
    with pytest.raises(ValueError, match=error):
        random_skeleton(movie_schema, sizes, 1.0, seed=seed)


def test_sample_data_rejects_a_negative_seed(movie_truth):
    skel = random_skeleton(movie_truth.schema, {"ACTOR": 3, "MOVIE": 3}, 1.0, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sample_data(ground_graph(movie_truth, skel), seed=-1)


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


def assert_terminal_sets_match(skel, hops=6):
    """Every row of a walker's terminal sets holds the reference set."""
    walker = TerminalSets(skel)
    for cls in skel.schema.item_classes:
        starts = skel.instances_of(cls)
        for p in enumerate_paths(skel.schema, cls, hops):
            reach = walker(p)
            targets = skel.instances_of(p.last)
            assert reach.shape == (len(starts), len(targets))
            for i, inst in enumerate(starts):
                row = reach.indices[reach.indptr[i] : reach.indptr[i + 1]]
                assert sorted(targets[j] for j in row) == sorted(terminal_set(skel, p, inst))


@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(1, 4),
    density=st.sampled_from((0.5, 1.0, 2.0)),
    emptied=st.integers(0, 3),
)
@settings(max_examples=30, deadline=None)
def test_terminal_sets_match_reference(seed, num_entities, density, emptied):
    # random schemas mix ONE and MANY; paths start at entities and relationships
    schema = random_schema(seed, num_entities)
    sizes = {e.name: 2 + (seed + k) % 5 for k, e in enumerate(schema.entities)}
    try:
        skel = random_skeleton(schema, sizes, density, seed=seed)
    except Infeasible:
        skel = random_skeleton(schema, sizes, 1.0, seed=seed)
    if emptied < len(schema.relationships):
        # a relationship with zero links
        links = {**skel.links, schema.relationships[emptied].name: ()}
        skel = Skeleton(schema, skel.instances, links)
    assert_terminal_sets_match(skel)


@given(seed=st.integers(0, 3000))
@settings(max_examples=15, deadline=None)
def test_terminal_sets_revisiting_paths(movie_schema, seed):
    # MANY/MANY: paths such as [ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR, ...]
    # come back to classes they have already visited
    skel = random_skeleton(movie_schema, {"ACTOR": 7, "MOVIE": 6}, 2.0, seed=seed)
    assert_terminal_sets_match(skel)


def test_terminal_sets_no_links(movie_schema):
    skel = Skeleton(
        movie_schema,
        instances={"ACTOR": ("a1", "a2"), "MOVIE": ("m1",)},
        links={"STARS-IN": ()},
    )
    assert TerminalSets(skel)(path("ACTOR", "STARS-IN", "MOVIE")).nnz == 0
    assert_terminal_sets_match(skel)


class CountingHops(dict):
    """A skeleton's hop matrices, counting every lookup."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("seed", range(3))
def test_each_path_prefix_costs_one_hop(movie_schema, seed):
    schema = movie_schema if seed == 0 else random_schema(seed, 3)
    sizes = {e.name: 6 for e in schema.entities}
    skel = random_skeleton(schema, sizes, 1.0, seed=seed)
    hops = CountingHops(skel._hops)
    object.__setattr__(skel, "_hops", hops)
    paths = [p for cls in schema.item_classes for p in enumerate_paths(schema, cls, 4)]
    random.Random(seed).shuffle(paths)
    walker = TerminalSets(skel)
    for p in paths * 2:
        reach = walker(p)
        # int32 indices halve what the memoised prefixes hold
        assert reach.indices.dtype == reach.indptr.dtype == np.int32
    prefixes = {p.items[:k] for p in paths for k in range(2, len(p.items) + 1)}
    assert hops.lookups == len(prefixes) > 0


def test_skeleton_rejects_duplicate_ids(movie_schema):
    with pytest.raises(ValueError, match="duplicate ACTOR"):
        Skeleton(
            movie_schema,
            instances={"ACTOR": ("a1", "a1"), "MOVIE": ("m1",)},
            links={"STARS-IN": (("s1", "a1", "m1"),)},
        )
    with pytest.raises(ValueError, match="duplicate STARS-IN"):
        Skeleton(
            movie_schema,
            instances={"ACTOR": ("a1", "a2"), "MOVIE": ("m1",)},
            links={"STARS-IN": (("s1", "a1", "m1"), ("s1", "a2", "m1"))},
        )


def test_ground_graph_movie_example(movie_truth, tiny_movie_skeleton):
    gg = ground_graph(movie_truth, tiny_movie_skeleton)
    edges = set(gg.edges())
    assert (("ACTOR", "a1", "Popularity"), ("MOVIE", "m1", "Success")) in edges
    assert (("ACTOR", "a2", "Popularity"), ("MOVIE", "m1", "Success")) in edges
    assert (("ACTOR", "a1", "Popularity"), ("MOVIE", "m2", "Success")) in edges
    assert len(edges) == 3
    assert is_acyclic(gg)


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
    assert is_acyclic(ground_graph(model, skel))


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
    for node in nx.lexicographical_topological_sort(ground_digraph(gg)):
        total = noise[node]
        for d, group in gg.parents.get(node, {}).items():
            total += coeffs[d] * (math.fsum(values[p] for p in group) / len(group))
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


@pytest.mark.parametrize("case", ["movie", 0, 1])
def test_ground_graph_builds_parents_on_first_read(case, movie_truth, tiny_movie_skeleton):
    if case == "movie":
        model, skel = movie_truth, tiny_movie_skeleton
    else:
        schema, model = generate_case(3, 6, 4, np.random.SeedSequence(entropy=case))
        skel = random_skeleton(schema, dict.fromkeys(schema.entity_names, 15), 1.0, seed=case)
    gg = ground_graph(model, skel)
    sample_data(gg, seed=0)
    assert "parents" not in vars(gg)  # sampling never grounds the model
    # one reference group per effect instance with a non-empty terminal set
    want = {}
    for d in model.dependencies:
        effect_cls = d.effect.path.last
        for inst in skel.instances_of(effect_cls):
            reached = terminal_set(skel, d.cause.path, inst)
            if reached:
                want.setdefault((effect_cls, inst, d.effect.attribute), {})[d] = sorted(
                    (d.cause.path.last, r, d.cause.attribute) for r in reached
                )
    got = {
        child: {d: sorted(group) for d, group in groups.items()}
        for child, groups in gg.parents.items()
    }
    assert got == want


def test_sample_data_deterministic(movie_truth, tiny_movie_skeleton):
    gg = ground_graph(movie_truth, tiny_movie_skeleton)
    assert sample_data(gg, seed=3) == sample_data(gg, seed=3)
    assert sample_data(gg, seed=3) != sample_data(gg, seed=4)


# value arrays for terminal_means, each of one kind of float
MEAN_VALUES = {
    "gaussian": lambda rng, n: rng.normal(size=n),
    # magnitudes 1e-300 to 1e300 in one row
    "wide": lambda rng, n: rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, size=n),
    "signed-zeros": lambda rng, n: rng.choice((0.0, -0.0, 0.0, -0.0, 1.5, -2.25), size=n),
    # whole multiples of the smallest subnormal, and some of the smallest normals
    "subnormal": lambda rng, n: rng.integers(-(2**40), 2**40, size=n)
    * rng.choice((5e-324, 2.0**-1022 / 2**30), size=n),
    # any two of these overflow a sum
    "near-max": lambda rng, n: rng.uniform(0.9, 1.0, size=n) * 1.7e308,
}


def fsum_means(reach, values):
    """Reference row means: ``math.fsum(row) / len(row)``, 0.0 for no row."""
    bounds = reach.indptr.tolist()
    rows = [values[reach.indices[lo:hi]].tolist() for lo, hi in zip(bounds, bounds[1:])]
    return np.array([math.fsum(row) / len(row) if row else 0.0 for row in rows], dtype=float)


def fsum_rows_taken(rows):
    """Patch ``math.fsum`` as ``terminal_means`` sees it, recording each row."""
    fsum = math.fsum
    return mock.patch.object(skeleton.math, "fsum", lambda row: rows.append(row) or fsum(row))


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(MEAN_VALUES)),
    num_rows=st.integers(0, 40),
)
@settings(max_examples=150, deadline=None)
def test_terminal_means_match_fsum_bit_for_bit(seed, kind, num_rows):
    rng = np.random.default_rng(seed)
    num_values = int(rng.integers(1, 300))
    counts = np.minimum(rng.integers(0, 151, size=num_rows), num_values)
    indices = [np.sort(rng.choice(num_values, c, replace=False)) for c in counts]
    reach = sparse.csr_array(
        (
            np.ones(int(counts.sum()), dtype=bool),
            np.concatenate([np.zeros(0, np.int32), *indices]).astype(np.int32),
            np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
        ),
        shape=(num_rows, num_values),
    )
    values = MEAN_VALUES[kind](rng, num_values)
    try:
        want = fsum_means(reach, values)
    except OverflowError:
        with pytest.raises(OverflowError):
            terminal_means(reach, values)
        return
    fsum_rows = []
    with fsum_rows_taken(fsum_rows):
        means, has = terminal_means(reach, values)
    assert means.tobytes() == want.tobytes()
    assert has.tolist() == (counts > 0).tolist()
    if kind == "wide" and np.abs(values).max() > 1e200:
        # a nonzero member below 1e-200 lies off the split's finer grid
        tiny = [row for row in indices if (np.abs(values[row]) < 1e-200).any()]
        assert len(fsum_rows) >= len(tiny)


def rows_of_values(rows):
    """A terminal-set array whose rows reach disjoint positions, and the
    values there: row ``i`` of the array averages ``rows[i]``."""
    counts = [len(row) for row in rows]
    reach = sparse.csr_array(
        (
            np.ones(sum(counts), dtype=bool),
            np.arange(sum(counts), dtype=np.int32),
            np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
        ),
        shape=(len(rows), sum(counts)),
    )
    return reach, np.array([x for row in rows for x in row])


# alone in a row its bound is just below 2**1023, where c + BIG would round to inf
BIG = np.nextafter(2.0**1022, 0.0)


@pytest.mark.parametrize(
    "row",
    [
        [-0.0],
        [-0.0, -0.0, 0.0],
        [1.0, -1.0],
        # a tie that only the smallest member breaks
        [1.0, 2.0**-53, 2.0**-106],
        [-1.0, -(2.0**-53), -(2.0**-106)],
        [1e300, 1e-300, -1e300],
        [5e-324],
        [5e-324, -1e-323, 2.0**-1022],
        [BIG],
        [BIG, -BIG],
        [1.7e308, -1.7e308],
        [1.7e308, 1.7e308],
    ],
)
def test_terminal_means_at_float_limits(row):
    # each row alone, then after a row that sets a coarser grid
    for rows in ([row], [[64.0] * 150, row]):
        reach, values = rows_of_values(rows)
        try:
            want = fsum_means(reach, values)
        except OverflowError:
            with pytest.raises(OverflowError):
                terminal_means(reach, values)
            continue
        assert terminal_means(reach, values)[0].tobytes() == want.tobytes()


def test_terminal_means_need_no_fsum_on_sampled_data(movie_truth):
    # every movie-schema column of sampled data, and the sampler's own means,
    # take the split: no row falls back to math.fsum
    schema = movie_truth.schema
    fsum_rows = []
    with fsum_rows_taken(fsum_rows):
        skel = random_skeleton(schema, {"ACTOR": 300, "MOVIE": 300}, 3.0, seed=0)
        values = sample_data(ground_graph(movie_truth, skel), seed=1)
        walker = TerminalSets(skel)
        widest = 0
        for cls in schema.item_classes:
            for p in enumerate_paths(schema, cls, 4):
                reach = walker(p)
                widest = max(widest, int(np.diff(reach.indptr).max()))
                for attr in schema.attributes_of(p.last):
                    column = [values[(p.last, r, attr)] for r in skel.instances_of(p.last)]
                    terminal_means(reach, np.array(column))
    assert widest > 20  # co-star rows are long
    assert fsum_rows == []


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


def test_save_load_round_trip_numpy_values(movie_schema, tmp_path):
    skel = random_skeleton(movie_schema, {"ACTOR": 5, "MOVIE": 4}, 2.0, seed=2)
    rng = np.random.default_rng(2)
    values = {node: np.float64(rng.normal()) for node in skel.nodes()}
    manifest = save_skeleton(skel.with_values(values), tmp_path / "numpy")
    assert load_skeleton(movie_schema, manifest).values == values
    # the same values as Python floats write the same bytes
    floats = {node: float(v) for node, v in values.items()}
    save_skeleton(skel.with_values(floats), tmp_path / "floats")
    for written in (tmp_path / "numpy").iterdir():
        assert written.read_bytes() == (tmp_path / "floats" / written.name).read_bytes()


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


@pytest.mark.parametrize(
    "header,error",
    [
        ("id,Mystery", "unknown column 'Mystery'"),
        ("id,Popularity,Popularity", "duplicate column 'Popularity'"),
    ],
    ids=["unknown", "duplicate"],
)
def test_load_rejects_unknown_column(movie_schema, tmp_path, header, error):
    skel = random_skeleton(movie_schema, {"ACTOR": 3, "MOVIE": 3}, 1.0, seed=0)
    manifest = save_skeleton(skel, tmp_path)
    actor = tmp_path / "actor.csv"
    lines = actor.read_text().splitlines()
    fields = ",1.0" * header.count(",")
    lines = [header] + [f"{line}{fields}" for line in lines[1:]]
    actor.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=error):
        load_skeleton(movie_schema, manifest)


def test_load_missing_file(movie_schema, tmp_path):
    skel = random_skeleton(movie_schema, {"ACTOR": 3, "MOVIE": 3}, 1.0, seed=0)
    manifest = save_skeleton(skel, tmp_path)
    (tmp_path / "actor.csv").unlink()
    with pytest.raises(ValueError, match="missing"):
        load_skeleton(movie_schema, manifest)


def test_load_rejects_a_manifest_missing_a_class(movie_schema, tmp_path):
    skel = random_skeleton(movie_schema, {"ACTOR": 3, "MOVIE": 3}, 1.0, seed=0)
    manifest = save_skeleton(skel, tmp_path)
    doc = json.loads(manifest.read_text())
    del doc["files"]["MOVIE"]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="manifest missing file for class 'MOVIE'"):
        load_skeleton(movie_schema, manifest)


@pytest.mark.parametrize(
    ("name", "header", "error"),
    [
        ("actor.csv", "name", "actor.csv: first column must be 'id'"),
        (
            "stars-in.csv",
            "id,MOVIE_id,ACTOR_id",
            r"expected participant columns \['ACTOR_id', 'MOVIE_id'\], "
            r"got \['MOVIE_id', 'ACTOR_id'\]",
        ),
    ],
    ids=["first-column", "participant-columns"],
)
def test_load_rejects_a_bad_header(movie_schema, tmp_path, name, header, error):
    skel = random_skeleton(movie_schema, {"ACTOR": 3, "MOVIE": 3}, 1.0, seed=0)
    manifest = save_skeleton(skel, tmp_path)
    table = tmp_path / name
    lines = table.read_text().splitlines()
    table.write_text("\n".join([header, *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match=error):
        load_skeleton(movie_schema, manifest)


@pytest.mark.parametrize(
    "doc",
    [{}, [], {"files": None}, {"files": ["actor.csv"]}, {"files": {"ACTOR": 3}}],
)
def test_load_rejects_malformed_manifest(movie_schema, tmp_path, doc):
    skel = random_skeleton(movie_schema, {"ACTOR": 3, "MOVIE": 3}, 1.0, seed=0)
    manifest = save_skeleton(skel, tmp_path)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed manifest"):
        load_skeleton(movie_schema, manifest)
