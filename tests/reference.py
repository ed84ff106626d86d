"""Verification references: slow second implementations, sharing no index
or kernel with the relcd code that the tests compare them against. Only
tests use networkx; relcd never imports it."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from types import SimpleNamespace

import networkx as nx
import numpy as np
from scipy import special

from relcd.model import (
    RelationalDependency,
    RelationalModel,
    RelationalVariable,
    variable_key,
)
from relcd.paths import RelationalPath, enumerate_paths, is_valid
from relcd.rcd import LearnedPattern
from relcd.schema import AttributeClass, Schema
from relcd.skeleton import GroundGraph, Node, Skeleton


def digraph(nodes, edges) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return g


def is_dag(nodes, edges) -> bool:
    return nx.is_directed_acyclic_graph(digraph(nodes, edges))


def lifted_digraph(agg) -> nx.DiGraph:
    """A fully directed lifted graph as a digraph over its node ids."""
    edges = agg.edges()
    assert all(directed for _, _, directed in edges), "graph has undirected edges"
    return digraph(range(len(agg.nodes)), ((agg.index[a], agg.index[b]) for a, b, _ in edges))


def _last_only(build):
    """Cache ``build(obj)`` for the latest ``obj`` by identity (skeletons and
    ground graphs hold dicts, so they cannot key an ``lru_cache``)."""
    last = [None, None]

    def cached(obj):
        if last[0] is not obj:
            last[:] = obj, build(obj)
        return last[1]

    return cached


@_last_only
def _link_index(skeleton: Skeleton):
    """Instance ids per class, links per (relationship, side class,
    instance), and the two ends of each link."""
    members = {cls: set(skeleton.instances_of(cls)) for cls in skeleton.schema.item_classes}
    incident: dict[tuple[str, str, str], list[str]] = {}
    ends: dict[tuple[str, str], tuple[str, str]] = {}
    for rel_name, rel_links in skeleton.links.items():
        rel = skeleton.schema.item_classes[rel_name]
        for link_id, e1, e2 in rel_links:
            ends[(rel_name, link_id)] = (e1, e2)
            incident.setdefault((rel_name, rel.participants[0], e1), []).append(link_id)
            incident.setdefault((rel_name, rel.participants[1], e2), []).append(link_id)
    return members, incident, ends


def terminal_set(skeleton: Skeleton, path: RelationalPath, start: str) -> set[str]:
    """Instances of the path's final class reached from ``start``.

    Frontiers are built hop by hop; instances of a class already visited at
    an earlier step of the same path are excluded, so traversals never fold
    back onto where they came from.
    """
    schema = skeleton.schema
    members, incident, ends = _link_index(skeleton)
    if start not in members[path.perspective]:
        raise ValueError(
            f"{start!r} is not an instance of perspective class {path.perspective!r}"
        )
    frontier = {start}
    burned: dict[str, set[str]] = {path.perspective: {start}}
    for prev_cls, cls in zip(path.items, path.items[1:]):
        nxt: set[str] = set()
        if schema.is_entity(prev_cls):
            for inst in frontier:
                nxt.update(incident.get((cls, prev_cls, inst), ()))
        else:
            rel = schema.item_classes[prev_cls]
            side = rel.participants.index(cls)
            for link in frontier:
                nxt.add(ends[(prev_cls, link)][side])
        nxt -= burned.get(cls, set())
        burned.setdefault(cls, set()).update(nxt)
        frontier = nxt
    return frontier


@_last_only
def ground_digraph(gg: GroundGraph) -> nx.DiGraph:
    return digraph(gg.nodes, gg.edges())


def is_acyclic(gg: GroundGraph) -> bool:
    return nx.is_directed_acyclic_graph(ground_digraph(gg))


@_last_only
def _acyclic_ground_digraph(gg: GroundGraph) -> nx.DiGraph:
    """``ground_digraph``, checked acyclic once per ground graph."""
    if not is_acyclic(gg):
        raise ValueError("d-separation needs an acyclic ground graph")
    return ground_digraph(gg)


def dsep_ground(gg: GroundGraph, x: set[Node], y: set[Node], z: set[Node]) -> bool:
    """Standard d-separation on the instantiated graph, by Bayes-ball.

    The ball starts at x as if it came from a child. A node outside z that
    the ball reaches from a child passes it to its parents and children; one
    it reaches from a parent passes it to its children, and also back to its
    parents when it is z or an ancestor of z (an open collider). x and y are
    d-separated given z when the ball reaches no node of y (Koller &
    Friedman 2009, algorithm 3.1). networkx's ``is_d_separator`` answers
    the same, but checks the whole graph for cycles on every call.
    """
    if (x & y) or (x & z) or (y & z):
        raise ValueError("query sets must be disjoint")
    g = _acyclic_ground_digraph(gg)
    pred, succ = g.pred, g.succ
    opens = set(z)  # z and its ancestors
    stack = list(z)
    while stack:
        for parent in pred[stack.pop()]:
            if parent not in opens:
                opens.add(parent)
                stack.append(parent)
    # (node, whether the ball came from a child)
    balls = [(node, True) for node in x]
    seen = set(balls)
    while balls:
        node, from_child = balls.pop()
        if node in y:
            return False
        nexts = []
        if node not in z:
            nexts += [(child, False) for child in succ[node]]
            if from_child:
                nexts += [(parent, True) for parent in pred[node]]
        if not from_child and node in opens:
            nexts += [(parent, True) for parent in pred[node]]
        for ball in nexts:
            if ball not in seen:
                seen.add(ball)
                balls.append(ball)
    return True


def compositions(a: tuple[str, ...], b: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Pivot compositions of two item tuples, shortest first, not validated.

    For every pivot m >= 1 where the last m items of ``a`` reversed equal
    the first m items of ``b``, a candidate drops those m items from ``a``
    and the first m - 1 items from ``b``. The pivots that match are
    m = 1..r for some r, and each gives a candidate of another length.
    """
    run = 0
    while run < min(len(a), len(b)) and a[-1 - run] == b[run]:
        run += 1
    return [a[: len(a) - m] + b[m - 1 :] for m in range(run, 0, -1)]


def extend(
    p_orig: RelationalPath, p_ext: RelationalPath, schema: Schema, max_length: int
) -> list[RelationalPath]:
    """The valid ``compositions`` of two paths of at most ``max_length`` items.

    The paths must share a join class; results are sorted by length.
    """
    if p_orig.last != p_ext.perspective:
        raise ValueError(
            f"join point mismatch: {p_orig} does not end where {p_ext} starts"
        )
    candidates = compositions(p_orig.items, p_ext.items)
    paths = [RelationalPath(c) for c in candidates if len(c) <= max_length]
    return [p for p in paths if is_valid(p, schema)]


def node_table(schema: Schema, perspective: str, hops: int) -> SimpleNamespace:
    """``agg.node_table``'s nodes and index, by sorting every variable."""
    variables = {
        RelationalVariable(p, attr)
        for p in enumerate_paths(schema, perspective, hops)
        for attr in schema.attributes_of(p.last)
    }
    nodes = tuple(sorted(variables, key=variable_key))
    return SimpleNamespace(nodes=nodes, index={v: i for i, v in enumerate(nodes)})


def lift(schema: Schema, perspective: str, node_hops: int, pairs) -> SimpleNamespace:
    """``agg.lift`` by building every ``compositions`` candidate of a node's
    path with a pair's cause path and looking it up among the nodes by
    (path items, attribute). Gives nodes, index, adjacency, ``edge_pairs``
    (edges in the order they are first made) and ``pair_edges`` (each
    pair's edges as sorted (low id, high id) tuples)."""
    table = node_table(schema, perspective, node_hops)
    nodes = table.nodes
    by_key = {(v.path.items, v.attribute): i for i, v in enumerate(nodes)}
    # the nodes of each attribute class, as (path items, id)
    by_class: dict[tuple[str, str], list[tuple[tuple[str, ...], int]]] = {}
    for (items, attr), i in by_key.items():
        by_class.setdefault((items[-1], attr), []).append((items, i))
    supports: dict[tuple[int, int], list[RelationalDependency]] = {}
    edges_of: dict[RelationalDependency, list[tuple[int, int]]] = {}
    adjacency = [0] * len(nodes)
    for pair in sorted(pairs, key=str):  # so each edge's pairs come sorted
        effect = (pair.effect.path.last, pair.effect.attribute)
        for q, v in by_class.get(effect, ()):
            for items in compositions(q, pair.cause.path.items):
                u = by_key.get((items, pair.cause.attribute))
                if u is not None:
                    edge = (min(u, v), max(u, v))
                    supports.setdefault(edge, []).append(pair)
                    edges_of.setdefault(pair, []).append(edge)
                    adjacency[u] |= 1 << v
                    adjacency[v] |= 1 << u
    return SimpleNamespace(
        nodes=nodes,
        index=table.index,
        adjacency=tuple(adjacency),
        edge_pairs={k: tuple(p) for k, p in supports.items()},
        pair_edges={p: tuple(sorted(e)) for p, e in edges_of.items()},
    )


def oriented_lift(model: RelationalModel, perspective: str, hops: int):
    """The reference ``lift`` of a model's pairs, and its (parents, children)
    id masks with every edge directed as the model's dependency of the
    pair: from the end whose attribute class is that dependency's cause."""
    lifted = lift(model.schema, perspective, hops, model.pairs)
    parents, children = [0] * len(lifted.nodes), [0] * len(lifted.nodes)
    for pair, d in model.pairs.items():
        for i, j in lifted.pair_edges.get(pair, ()):
            if lifted.nodes[i].attribute_class != d.cause.attribute_class:
                i, j = j, i
            children[i] |= 1 << j
            parents[j] |= 1 << i
    return lifted, parents, children


def _dsep_facts(variables: tuple[str, ...], edges) -> frozenset | None:
    """Every (a, b, z) with a, b d-separated given z; None for a cyclic graph."""
    g = digraph(variables, edges)
    if not nx.is_directed_acyclic_graph(g):
        return None
    facts = set()
    for a, b in combinations(variables, 2):
        rest = [v for v in variables if v not in (a, b)]
        for size in range(len(rest) + 1):
            for z in combinations(rest, size):
                if nx.is_d_separator(g, {a}, {b}, set(z)):
                    facts.add((a, b, frozenset(z)))
    return frozenset(facts)


def dags(variables: tuple[str, ...]):
    """Every DAG over the variables, as an edge list per graph."""
    pairs = list(combinations(variables, 2))
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        edges = [(a, b) if kind == 1 else (b, a) for (a, b), kind in zip(pairs, assignment) if kind]
        if is_dag(variables, edges):
            yield edges


@lru_cache(maxsize=8)
def _propositional_dag_classes(variables: tuple[str, ...]):
    """All DAGs over the variables, grouped by their d-separation facts."""
    classes: dict[frozenset, list[frozenset]] = {}
    for edges in dags(variables):
        classes.setdefault(_dsep_facts(variables, edges), []).append(frozenset(edges))
    return classes


def brute_force_pattern(schema: Schema, truth: RelationalModel) -> dict:
    """Exhaustive equivalence-class pattern for a single-entity truth.

    Enumerates every DAG over the entity's attributes, groups them by their
    full set of d-separation facts, and reports which edges of the truth's
    class are compelled (same direction everywhere) versus reversible.
    """
    if len(schema.entities) != 1 or schema.relationships:
        raise ValueError("brute force pattern is propositional only")
    variables = tuple(sorted(schema.entities[0].attributes))
    if len(variables) > 4:
        raise ValueError("too many variables for exhaustive enumeration")
    true_edges = frozenset(
        (d.cause.attribute, d.effect.attribute) for d in truth.dependencies
    )
    members = _propositional_dag_classes(variables)[_dsep_facts(variables, true_edges)]
    directed = set()
    undirected = set()
    for a, b in true_edges:
        if all((a, b) in m for m in members):
            directed.add((a, b))
        else:
            undirected.add(frozenset((a, b)))
    return {"directed": frozenset(directed), "undirected": frozenset(undirected)}


def propositional_pattern(learned: LearnedPattern) -> dict:
    """Map a single-entity learned pattern onto bare attribute pairs."""
    directed = frozenset(
        (d.cause.attribute, d.effect.attribute) for d in learned.directed
    )
    undirected = frozenset(
        frozenset((pair.cause.attribute, pair.effect.attribute))
        for pair in learned.undirected
    )
    return {"directed": directed, "undirected": undirected}


def regression_slope_test(data: np.ndarray) -> tuple[float, float]:
    """The slope test that ``RegressionCI`` took before its partial
    correlation: y's least-squares fit on the design matrix [1, x, *Z]
    (``data``'s columns are [x, y, *Z], none of them constant), the two-sided
    t-test of x's coefficient with its standard error from ``pinv(XᵀX)``, and
    that coefficient times sd(x) / sd(y). A zero standard error reads p = 0.
    Returns (p-value, standardized effect)."""
    n = len(data)
    x, y = data[:, 0], data[:, 1]
    design = np.column_stack([np.ones(n), x, data[:, 2:]])
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ beta
    dof = n - design.shape[1]
    cov = float(resid @ resid) / dof * np.linalg.pinv(design.T @ design)
    se = float(np.sqrt(max(cov[1, 1], 0.0)))
    pval = 0.0 if se == 0.0 else 2.0 * float(special.stdtr(dof, -abs(beta[1]) / se))
    return pval, float(beta[1]) * float(np.std(x)) / float(np.std(y))


def potential_dependencies(
    schema: Schema, hop_threshold: int
) -> list[RelationalDependency]:
    """Every canonical dependency within the hop threshold, one per (path,
    cause attribute, effect attribute), made afresh and sorted by ``str``:
    the order ``relcd.model.potential_dependencies`` must give by its own
    text keys."""
    out = []
    for item in sorted(schema.item_classes):
        for p in enumerate_paths(schema, item, hop_threshold):
            for cause_attr in schema.attributes_of(p.last):
                for effect_attr in schema.attributes_of(item):
                    if AttributeClass(p.last, cause_attr) == AttributeClass(
                        item, effect_attr
                    ):
                        continue
                    out.append(
                        RelationalDependency(
                            RelationalVariable(p, cause_attr),
                            RelationalVariable(RelationalPath((item,)), effect_attr),
                        )
                    )
    return sorted(out, key=str)
