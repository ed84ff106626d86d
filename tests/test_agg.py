import copy
import itertools
import random
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcd import rcd
from relcd.agg import (
    agg_to_dot,
    bits,
    build_agg,
    build_all,
    lift,
    orient,
    unshielded_triples,
)
from relcd.ci import OracleCI, oriented_agg
from relcd.errors import Infeasible
from relcd.harness import generate_case
from relcd.model import (
    RelationalVariable,
    canonical_pair,
    parse_dependency,
    potential_dependencies,
    random_model,
    reverse_dependency,
    variable_key,
)
from relcd.paths import enumerate_paths
from relcd.schema import random_schema
from tests.conftest import dep, propositional_model, single_entity_schema, var
from tests.reference import extend, lifted_digraph


def node_strings(agg):
    return sorted(str(v) for v in agg.nodes)


def edge_strings(agg):
    return sorted(f"{a} -> {b}" if d else f"{a} -- {b}" for a, b, d in agg.edges())


def test_actor_perspective_matches_reference(movie_truth):
    agg = oriented_agg(movie_truth, "ACTOR", 4)
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
    agg = oriented_agg(movie_truth, "MOVIE", 4)
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
    assert orient(agg_set, d, rule="CD")
    assert not orient(agg_set, d, rule="CD")
    assert agg_set.conflicts == []


def test_conflicting_orientation_logged_and_ignored(movie_truth):
    agg_set = build_all(movie_truth.dependencies, movie_truth.schema, 4)
    d = movie_truth.dependencies[0]
    orient(agg_set, d, rule="CD")
    assert not orient(agg_set, reverse_dependency(d), rule="RBO")
    assert len(agg_set.conflicts) == 1
    assert agg_set.conflicts[0].startswith(f"RBO wanted {reverse_dependency(d)} ")
    assert agg_set.registry[canonical_pair(d)] == d


def test_orient_unknown_dependency(movie_schema, movie_truth):
    for known, dependency, message in [
        ((), movie_truth.dependencies[0], "unknown dependency"),
        # not canonical, although the registry holds its pair's other form
        (
            movie_truth.dependencies,
            parse_dependency("[ACTOR].Popularity -> [ACTOR, STARS-IN, MOVIE].Success"),
            "dependency is not canonical",
        ),
    ]:
        agg_set = build_all(known, movie_schema, 4)
        with pytest.raises(ValueError, match=re.escape(message)):
            orient(agg_set, dependency, rule="CD")


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
    agg = oriented_agg(movie_truth, "ACTOR", 8)
    pop = agg.index[var(["ACTOR"], "Popularity")]
    costar_pop = agg.index[
        var(["ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR"], "Popularity")
    ]
    success = agg.index[var(["ACTOR", "STARS-IN", "MOVIE"], "Success")]
    assert agg.d_separated(pop, costar_pop, 0)
    assert not agg.d_separated(pop, costar_pop, 1 << success)


def test_d_separated_movie_common_cause(movie_truth):
    agg = oriented_agg(movie_truth, "MOVIE", 8)
    success = agg.index[var(["MOVIE"], "Success")]
    other_success = agg.index[
        var(["MOVIE", "STARS-IN", "ACTOR", "STARS-IN", "MOVIE"], "Success")
    ]
    pop = agg.index[var(["MOVIE", "STARS-IN", "ACTOR"], "Popularity")]
    assert not agg.d_separated(success, other_success, 0)
    assert agg.d_separated(success, other_success, 1 << pop)


@given(seed=st.integers(0, 1500))
@settings(max_examples=20, deadline=None)
def test_d_separation_agrees_with_networkx(seed):
    # independent reachability check on the directed lifted graph
    schema = random_schema(seed, 2)
    try:
        model = random_model(schema, 4, seed=seed, restarts=20)
    except Infeasible:
        return
    for perspective in sorted(schema.item_classes):
        agg = oriented_agg(model, perspective, 6)
        if agg.edge_pairs:
            break
    else:
        return
    g = lifted_digraph(agg)
    ids = sorted(range(len(agg.nodes)), key=lambda i: str(agg.nodes[i]))
    for x, y in itertools.islice(itertools.combinations(ids, 2), 12):
        for z in ([], ids[:1], ids[:2]):
            zset = frozenset(z) - {x, y}
            mask = sum(1 << i for i in zset)
            assert agg.d_separated(x, y, mask) == nx.is_d_separator(g, {x}, {y}, zset)


def _check_every_small_query(agg):
    # every disjoint (x, y, Z) with |Z| <= 2, both ways round, against networkx
    g = lifted_digraph(agg)
    ids = range(len(agg.nodes))
    for x, y in itertools.combinations(ids, 2):
        rest = [i for i in ids if i not in (x, y)]
        for z in itertools.chain.from_iterable(
            itertools.combinations(rest, size) for size in range(3)
        ):
            theirs = nx.is_d_separator(g, {x}, {y}, set(z))
            mask = sum(1 << i for i in z)
            assert agg.d_separated(x, y, mask) == theirs, (x, y, z)
            assert agg.d_separated(y, x, mask) == theirs, (y, x, z)
    return g


@pytest.mark.parametrize("seed", range(10))
def test_snapshot_answers_every_small_query_like_networkx(seed):
    schema = random_schema(seed, 2)
    model = random_model(schema, 4, seed=seed, restarts=20)
    small = [oriented_agg(model, p, 3) for p in sorted(schema.item_classes)]
    small = [agg for agg in small if len(agg.nodes) <= 11]
    assert small
    for agg in small:
        _check_every_small_query(agg)


@given(seed=st.integers(0, 1500), data=st.data())
@settings(max_examples=25, deadline=None)
def test_reach_is_the_d_connected_set(seed, data):
    # a walk that never reaches its target returns every node outside Z
    # d-connected to x; one that does returns some of them, the target included
    schema = random_schema(seed, 2)
    try:
        model = random_model(schema, 1 + seed % 5, seed=seed, restarts=20)
    except Infeasible:
        return
    perspective = data.draw(st.sampled_from(sorted(schema.item_classes)))
    agg = oriented_agg(model, perspective, 3)
    ids = range(len(agg.nodes))
    x = data.draw(st.sampled_from(ids))
    z = data.draw(st.sets(st.sampled_from(ids), max_size=3)) - {x}
    mask = sum(1 << i for i in z)
    g = lifted_digraph(agg)
    connected = {
        w for w in ids if w != x and w not in z and not nx.is_d_separator(g, {x}, {w}, z)
    }
    for y in ids:
        if y == x or y in z:
            continue
        reached = set(bits(agg.reach(x, mask, y)))
        if y in reached:
            assert y in connected and reached <= connected
        else:
            assert reached == connected


def test_snapshot_opens_a_collider_through_a_descendant_of_z():
    # a -> c <- b, c -> d: conditioning on d alone, a descendant of the
    # collider c, connects a and b; so does c itself
    schema = single_entity_schema("A", "B", "C", "D")
    model = propositional_model(schema, [("A", "C"), ("B", "C"), ("C", "D")])
    agg = oriented_agg(model, "E1", 0)
    g = _check_every_small_query(agg)
    a, b, c, d = (agg.index[var(["E1"], name)] for name in "ABCD")
    assert sorted(g.edges) == sorted([(a, c), (b, c), (c, d)])
    assert agg.d_separated(a, b, 0)
    assert not agg.d_separated(a, b, 1 << d)
    assert not agg.d_separated(a, b, 1 << c)
    assert agg.d_separated(a, d, 1 << c)


@given(
    seed=st.integers(0, 1500), num_entities=st.integers(1, 3), hops=st.integers(2, 6)
)
@settings(max_examples=25, deadline=None)
def test_oriented_agg_equals_build_all_then_orient(seed, num_entities, hops):
    schema = random_schema(seed, num_entities)
    try:
        model = random_model(schema, 1 + seed % 5, seed=seed, restarts=20)
    except Infeasible:
        return
    agg_set = build_all(model.dependencies, schema, hops)
    for d in model.dependencies:
        assert orient(agg_set, d, rule="CD")
    for perspective in agg_set.perspectives():
        mine = oriented_agg(model, perspective, hops)
        theirs = agg_set.aggs[perspective]
        assert mine.nodes == theirs.nodes
        assert mine.edge_pairs == theirs.edge_pairs
        assert mine.edges() == theirs.edges()
        assert all(directed for _, _, directed in mine.edges())


@given(
    seed=st.integers(0, 1500), num_entities=st.integers(1, 3), hops=st.integers(2, 5)
)
@settings(max_examples=25, deadline=None)
def test_edge_direction_follows_first_oriented_pair(seed, num_entities, hops):
    # orient a random sequence drawn from dependencies and their reverses,
    # so some orientations are refused as own-pair or sibling conflicts;
    # every edge must then point as its first oriented pair in the registry
    schema = random_schema(seed, num_entities)
    try:
        model = random_model(schema, 1 + seed % 5, seed=seed, restarts=20)
    except Infeasible:
        return
    candidates = sorted(
        {*model.dependencies, *potential_dependencies(schema, 2)}, key=str
    )
    agg_set = build_all(candidates, schema, hops)
    pick = random.Random(seed)
    sequence = [*model.dependencies, *map(reverse_dependency, model.dependencies)]
    sequence += pick.sample(candidates, len(candidates) // 2)
    pick.shuffle(sequence)
    for d in sequence:
        orient(agg_set, d, rule="CD")
    for agg in agg_set.aggs.values():
        for i, j in agg.edge_pairs:
            oriented = [agg_set.registry[p] for p in agg.pairs_of(i, j)]
            first = next((d for d in oriented if d is not None), None)
            if first is None:
                expected = None
            elif (agg.nodes[i].attribute, agg.nodes[i].path.last) == (
                first.cause.attribute, first.cause.path.last
            ):
                expected = (i, j)
            else:
                expected = (j, i)
            assert agg.edge_direction(i, j) == expected
            assert agg.edge_direction(j, i) == expected


def _reference_edge_pairs(agg, dependencies, schema, hops):
    # edges as build_agg documents them: the reference extend from every node path
    supports = {}
    for d in sorted(set(dependencies), key=str):
        for q in enumerate_paths(schema, agg.perspective, hops):
            if q.last != d.effect.path.last:
                continue
            v = agg.index[RelationalVariable(q, d.effect.attribute)]
            for source in extend(q, d.cause.path, schema, hops + 1):
                u = agg.index[RelationalVariable(source, d.cause.attribute)]
                key = (min(u, v), max(u, v))
                supports.setdefault(key, set()).add(canonical_pair(d))
    return {k: tuple(sorted(p, key=str)) for k, p in supports.items()}


@given(
    seed=st.integers(0, 1500), num_entities=st.integers(1, 3), hops=st.integers(1, 5)
)
@settings(max_examples=25, deadline=None)
def test_build_agg_edges_match_extend_reference(seed, num_entities, hops):
    schema = random_schema(seed, num_entities)
    deps = potential_dependencies(schema, min(hops, 3))
    aggs = build_all(deps, schema, hops).aggs
    for perspective in sorted(schema.item_classes):
        agg = aggs[perspective]
        reference = _reference_edge_pairs(agg, deps, schema, hops)
        assert list(agg.edge_pairs.items()) == list(reference.items())


@given(
    seed=st.integers(0, 1500),
    num_entities=st.integers(1, 3),
    hops=st.integers(1, 5),
    pick=st.integers(0, 10**6),
)
@settings(max_examples=25, deadline=None)
def test_lifting_is_symmetric(seed, num_entities, hops, pick):
    # build_all lifts only a dependency's canonical pair; the reference
    # construction lifts whichever directions it is given, and must reach
    # the same edges from either direction alone or from both
    schema = random_schema(seed, num_entities)
    deps = potential_dependencies(schema, min(hops, 3))
    if not deps:
        return
    d = deps[pick % len(deps)]
    pair = canonical_pair(d)
    for perspective in sorted(schema.item_classes):
        agg = build_all([d], schema, hops).aggs[perspective]
        for directions in ([d], [reverse_dependency(d)], [d, reverse_dependency(d)]):
            mine = build_all(directions, schema, hops).aggs[perspective]
            reference = _reference_edge_pairs(agg, directions, schema, hops)
            adjacency = [0] * len(agg.nodes)
            for i, j in reference:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
            assert mine.edge_pairs == reference
            assert mine.adjacency == tuple(adjacency)
            expected = {pair: tuple(sorted(reference))} if reference else {}
            assert mine.pair_edges == expected


def _grid_case():
    seq = np.random.SeedSequence(entropy=0, spawn_key=(3, 15, 0))
    return generate_case(3, 15, 4, seq)


def test_shared_lifting_keeps_direction_bits_per_graph():
    schema, truth = _grid_case()
    oracle = OracleCI(truth, hops=8)
    survivors, _ = rcd.phase1(schema, oracle, rcd.LearnConfig())
    first, second = (build_all(survivors, schema, 8) for _ in range(2))
    oracle_bits = {}
    for perspective in first.perspectives():
        a, b = first.aggs[perspective], second.aggs[perspective]
        o = oracle._agg(perspective)
        for name in ("adjacency", "edge_pairs", "pair_edges"):
            assert getattr(a, name) is getattr(b, name) is getattr(o, name)
        own = {id(bits) for g in (a, b, o) for bits in (g.parents, g.children)}
        assert len(own) == 6  # each graph has direction lists of its own
        oracle_bits[perspective] = (list(o.parents), list(o.children))
    pair = next(
        p for p in first.registry if any(p in a.pair_edges for a in first.aggs.values())
    )
    assert orient(first, pair, rule="CD")
    assert any(any(a.parents) for a in first.aggs.values())
    for perspective, agg in second.aggs.items():
        assert not any(agg.parents) and not any(agg.children)
        oracle_agg = oracle._agg(perspective)
        assert (oracle_agg.parents, oracle_agg.children) == oracle_bits[perspective]
    # an oracle-grid pass lifts 1,200 graphs: far more than the cache holds,
    # so no pass of the benchmark reads a lifting an earlier pass made
    assert lift.cache_info().maxsize == 64


def _structure(agg):
    return agg.adjacency, list(agg.edge_pairs.items()), list(agg.pair_edges.items())


@pytest.mark.parametrize("rbo_order", ["rbo_after_cd", "rbo_first", "rbo_last"])
def test_learning_never_changes_a_shared_lifting(rbo_order):
    schema, truth = _grid_case()
    lifted = build_all(truth.dependencies, schema, 8)
    before = {p: copy.deepcopy(_structure(a)) for p, a in lifted.aggs.items()}
    config = rcd.LearnConfig(rbo_order=rbo_order, order_randomization=True, seed=5)
    hits = lift.cache_info().hits
    rcd.rcd_learn(schema, OracleCI(truth, hops=8), config)
    assert lift.cache_info().hits >= hits + len(lifted.aggs)  # the learn shared them
    for p, a in lifted.aggs.items():
        assert _structure(a) == before[p]
        # the learner shuffles the triples it is given, so each call makes a new list
        triples = unshielded_triples(a)
        assert triples is not unshielded_triples(a)
        assert triples == sorted(triples, key=lambda t: (t[1], t[0], t[2]))


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
        arcs = {(i, j) for i, nbrs in enumerate(agg.adjacency) for j in bits(nbrs)}
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
    orient(agg_set, movie_truth.dependencies[0], rule="CD")
    directed_dot = agg_to_dot(agg_set.aggs["ACTOR"])
    assert "dir=none" not in directed_dot
    assert "tooltip=" in directed_dot
