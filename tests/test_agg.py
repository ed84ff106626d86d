import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcd.agg import (
    agg_to_dot,
    build_agg,
    build_all,
    d_separated,
    orient,
    oriented_aggset,
    unshielded_triples,
)
from relcd.errors import Infeasible
from relcd.model import (
    canonical_pair,
    random_model,
    reverse_dependency,
    variable_key,
)
from relcd.schema import random_schema
from tests.conftest import dep, propositional_model, single_entity_schema, var


def node_strings(agg):
    return sorted(str(v) for v in agg.nodes)


def edge_strings(agg):
    return sorted(f"{a} -> {b}" if d else f"{a} -- {b}" for a, b, d in agg.edges())


def test_actor_perspective_matches_reference(movie_truth):
    agg = oriented_aggset(movie_truth, 4).aggs["ACTOR"]
    assert node_strings(agg) == [
        "[ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR].Popularity",
        "[ACTOR, STARS-IN, MOVIE].Success",
        "[ACTOR].Popularity",
    ]
    assert edge_strings(agg) == [
        "[ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR].Popularity -> [ACTOR, STARS-IN, MOVIE].Success",
        "[ACTOR].Popularity -> [ACTOR, STARS-IN, MOVIE].Success",
    ]


def test_movie_perspective_matches_reference(movie_truth):
    agg = oriented_aggset(movie_truth, 4).aggs["MOVIE"]
    assert node_strings(agg) == [
        "[MOVIE, STARS-IN, ACTOR, STARS-IN, MOVIE].Success",
        "[MOVIE, STARS-IN, ACTOR].Popularity",
        "[MOVIE].Success",
    ]
    assert edge_strings(agg) == [
        "[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE, STARS-IN, ACTOR, STARS-IN, MOVIE].Success",
        "[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE].Success",
    ]


def test_empty_dependency_set(movie_schema):
    agg = build_agg((), movie_schema, "ACTOR", 4)
    assert agg.edge_pairs == {}
    assert len(agg.nodes) == 3


def test_build_all_one_graph_per_item_class(movie_truth):
    agg_set = build_all(movie_truth.dependencies, movie_truth.schema, 4)
    assert agg_set.perspectives() == ["ACTOR", "MOVIE", "STARS-IN"]
    assert all(status is None for status in agg_set.registry.values())


def test_single_entity_agg_is_propositional():
    schema = single_entity_schema("X", "Y", "Z")
    model = propositional_model(schema, [("X", "Y"), ("Y", "Z")])
    agg = build_all(model.dependencies, schema, 8).aggs["E1"]
    assert node_strings(agg) == ["[E1].X", "[E1].Y", "[E1].Z"]
    assert len(agg.edge_pairs) == 2


def test_orientation_propagates_across_perspectives(movie_truth):
    agg_set = build_all(movie_truth.dependencies, movie_truth.schema, 4)
    for agg in agg_set.aggs.values():
        assert all(~directed for _, _, directed in agg.edges())
    changed = orient(agg_set, movie_truth.dependencies[0], rule="CD")
    assert changed
    for perspective in ("ACTOR", "MOVIE"):
        agg = agg_set.aggs[perspective]
        assert all(directed for _, _, directed in agg.edges())
        assert len(agg.edges()) == 2


def test_reorienting_same_direction_is_noop(movie_truth):
    agg_set = build_all(movie_truth.dependencies, movie_truth.schema, 4)
    d = movie_truth.dependencies[0]
    assert orient(agg_set, d)
    assert not orient(agg_set, d)
    assert agg_set.conflicts == []


def test_conflicting_orientation_logged_and_ignored(movie_truth):
    agg_set = build_all(movie_truth.dependencies, movie_truth.schema, 4)
    d = movie_truth.dependencies[0]
    orient(agg_set, d, rule="CD")
    assert not orient(agg_set, reverse_dependency(d), rule="RBO")
    assert len(agg_set.conflicts) == 1
    assert agg_set.registry[canonical_pair(d)] == d


def test_orient_unknown_dependency(movie_schema, movie_truth):
    agg_set = build_all((), movie_schema, 4)
    with pytest.raises(ValueError):
        orient(agg_set, movie_truth.dependencies[0])


def test_unshielded_triples_movie(movie_truth):
    agg = build_all(movie_truth.dependencies, movie_truth.schema, 4).aggs["ACTOR"]
    triples = unshielded_triples(agg)
    assert [tuple(str(agg.nodes[i]) for i in triple) for triple in triples] == [
        (
            "[ACTOR].Popularity",
            "[ACTOR, STARS-IN, MOVIE].Success",
            "[ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR].Popularity",
        )
    ]


def test_unshielded_triples_complete_graph():
    schema = single_entity_schema("X", "Y", "Z")
    model = propositional_model(schema, [("X", "Y"), ("X", "Z"), ("Y", "Z")])
    agg = build_all(model.dependencies, schema, 8).aggs["E1"]
    assert unshielded_triples(agg) == []


def test_unshielded_triples_chain():
    schema = single_entity_schema("X", "Y", "Z")
    model = propositional_model(schema, [("X", "Y"), ("Y", "Z")])
    agg = build_all(model.dependencies, schema, 8).aggs["E1"]
    assert len(unshielded_triples(agg)) == 1


def test_d_separated_movie_collider(movie_truth):
    agg = oriented_aggset(movie_truth, 8).aggs["ACTOR"]
    pop = {var(["ACTOR"], "Popularity")}
    costar_pop = {
        var(["ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR"], "Popularity")
    }
    success = {var(["ACTOR", "STARS-IN", "MOVIE"], "Success")}
    assert d_separated(agg, pop, costar_pop, set())
    assert not d_separated(agg, pop, costar_pop, success)


def test_d_separated_movie_common_cause(movie_truth):
    agg = oriented_aggset(movie_truth, 8).aggs["MOVIE"]
    success = {var(["MOVIE"], "Success")}
    other_success = {
        var(["MOVIE", "STARS-IN", "ACTOR", "STARS-IN", "MOVIE"], "Success")
    }
    pop = {var(["MOVIE", "STARS-IN", "ACTOR"], "Popularity")}
    assert not d_separated(agg, success, other_success, set())
    assert d_separated(agg, success, other_success, pop)


def test_d_separated_requires_direction(movie_truth):
    agg = build_all(movie_truth.dependencies, movie_truth.schema, 4).aggs["ACTOR"]
    pop = {var(["ACTOR"], "Popularity")}
    success = {var(["ACTOR", "STARS-IN", "MOVIE"], "Success")}
    with pytest.raises(ValueError, match="undirected"):
        d_separated(agg, pop, success, set())


def test_d_separated_rejects_overlap_and_unknown(movie_truth):
    agg = oriented_aggset(movie_truth, 4).aggs["ACTOR"]
    pop = {var(["ACTOR"], "Popularity")}
    with pytest.raises(ValueError):
        d_separated(agg, pop, pop, set())
    with pytest.raises(ValueError):
        d_separated(agg, pop, {var(["ACTOR"], "Fame")}, set())


@given(seed=st.integers(0, 1500))
@settings(max_examples=20, deadline=None)
def test_d_separation_agrees_with_networkx(seed):
    # independent reachability check on the directed lifted graph
    schema = random_schema(seed, 2)
    try:
        model = random_model(schema, 4, seed=seed, restarts=20)
    except Infeasible:
        return
    agg_set = oriented_aggset(model, 6)
    rng_nodes = []
    for perspective in agg_set.perspectives():
        agg = agg_set.aggs[perspective]
        if agg.edge_pairs:
            rng_nodes = sorted(agg.nodes, key=str)
            break
    if not rng_nodes:
        return
    g = nx.DiGraph()
    g.add_nodes_from(agg.nodes)
    for a, b, directed in agg.edges():
        assert directed
        g.add_edge(a, b)
    import itertools
    import random

    cases = [
        ({x}, {y}) for x, y in itertools.islice(itertools.combinations(rng_nodes, 2), 12)
    ]
    if len(rng_nodes) >= 4:
        # sets of two or more nodes, which d_separated answers pair by pair
        pick = random.Random(seed)
        for _ in range(12):
            drawn = pick.sample(rng_nodes, min(5, len(rng_nodes)))
            cases.append((set(drawn[:2]), set(drawn[2:])))
    for xs, ys in cases:
        for z in ([], rng_nodes[:1], rng_nodes[:2]):
            zset = set(z) - xs - ys
            mine = d_separated(agg, xs, ys, zset)
            theirs = nx.is_d_separator(g, xs, ys, zset)
            assert mine == theirs


@given(seed=st.integers(0, 1500))
@settings(max_examples=15, deadline=None)
def test_rebuild_equivalence(seed):
    # dropping one dependency pair removes exactly the edges only it supported
    schema = random_schema(seed, 2)
    try:
        model = random_model(schema, 3, seed=seed, restarts=20)
    except Infeasible:
        return
    deps = list(model.dependencies)
    full = build_all(deps, schema, 6)
    for removed in deps:
        rest = [d for d in deps if d != removed]
        partial = build_all(rest, schema, 6)
        pair = canonical_pair(removed)
        for perspective in full.perspectives():
            full_edges = full.aggs[perspective].edge_pairs
            part_edges = partial.aggs[perspective].edge_pairs
            expected_missing = {k for k, ps in full_edges.items() if ps == (pair,)}
            assert set(full_edges) - set(part_edges) == expected_missing
            for key, pairs in part_edges.items():
                assert pairs == tuple(p for p in full_edges[key] if p != pair)


def _reference_triples(agg):
    # unshielded triples keyed by variable, from the exported edge list
    adjacent = {}
    for a, b, _ in agg.edges():
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    out = []
    for y in sorted(adjacent, key=variable_key):
        nbrs = sorted(adjacent[y], key=variable_key)
        for i, x in enumerate(nbrs):
            for z in nbrs[i + 1 :]:
                if z not in adjacent[x]:
                    out.append((x, y, z))
    return out


@given(seed=st.integers(0, 1500))
@settings(max_examples=20, deadline=None)
def test_node_ids_follow_variable_order(seed):
    schema = random_schema(seed, 2 + seed % 2)
    try:
        model = random_model(schema, 4, seed=seed, restarts=20)
    except Infeasible:
        return
    agg_set = build_all(model.dependencies, schema, 6)
    for agg in agg_set.aggs.values():
        assert list(agg.nodes) == sorted(agg.nodes, key=variable_key)
        assert len(agg.index) == len(agg.nodes)
        assert all(agg.index[v] == i for i, v in enumerate(agg.nodes))
        assert len(agg.adjacency) == len(agg.nodes)
        arcs = {(i, j) for i, nbrs in enumerate(agg.adjacency) for j in nbrs}
        assert all((j, i) in arcs for i, j in arcs)
        assert all(i < j for i, j in agg.edge_pairs)
        assert set(agg.edge_pairs) == {(i, j) for i, j in arcs if i < j}
        triples = [tuple(agg.nodes[i] for i in t) for t in unshielded_triples(agg)]
        assert triples == _reference_triples(agg)


def test_agg_to_dot(movie_truth):
    agg_set = build_all(movie_truth.dependencies, movie_truth.schema, 4)
    dot = agg_to_dot(agg_set.aggs["ACTOR"])
    assert dot.startswith('digraph "ACTOR"')
    assert '"[ACTOR].Popularity"' in dot
    assert "dir=none" in dot
    orient(agg_set, movie_truth.dependencies[0])
    directed_dot = agg_to_dot(agg_set.aggs["ACTOR"])
    assert "dir=none" not in directed_dot
    assert "tooltip=" in directed_dot
