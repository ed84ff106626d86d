"""Per-perspective lifted dependency graphs with shared orientation state.

Each perspective gets a graph over the relational variables reachable from
it, interned as integer ids in ``variable_key`` order by ``node_table``,
once per (schema, perspective, hops): adjacency, edges, triples, the
orientation rules and CI queries work on those ids, so sorting ids sorts
variables canonically. A set of ids is an ``int`` bitmask throughout:
adjacency, search pools, conditioning and separating sets, directions.
The table interns the paths under the variables too, as a tree of path
ids (``paths.PathTree``: each path's id by its prefix's id and its last
item), with each (path id, attribute) mapped to its node id. Lifting
composes paths by walking that tree, and the learner's plan finds its
rows in it, so neither looks a path or a variable up by value.
The graphs are lifted from canonical dependency pairs (a dependency and
its reverse are one pair), which ``build_all`` validates and
canonicalizes once and a model carries (``RelationalModel.pairs``);
``build_agg`` lifts pairs unchecked. A pair can support many edges within
and across these graphs: every edge carries the pairs that produced it,
and each graph knows the edges of each pair, from cause to effect. This
structure, a ``Lifting``, is cached by ``lift``, so the oracle and the
learner share it, and so do a vote's runs. A registry shared by the whole
set maps each pair to its current orientation; orienting a pair writes it
there once and directs every supporting edge in every graph of the set at
once, as bits in the per-run ``parents`` and ``children`` id bitmasks.

A fully directed graph answers d-separation itself, by one Bayes-ball
kernel over those masks: ``Agg.reach`` walks from a node and returns every
node it reached, which are all d-connected to it; ``Agg.d_separated`` asks
whether that includes the other endpoint. The oracle backend keeps each
walk's result, so one walk answers many queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from types import MappingProxyType

from .model import (
    RelationalDependency,
    RelationalVariable,
    canonical_pair,
    reverse_dependency,
    validate_dependency,
    variable_key,
)
from .paths import PathTree, RelationalPath, path_tree
from .schema import Schema


@dataclass(frozen=True)
class NodeTable:
    """One perspective's variables, interned as integer ids.

    ``nodes`` holds the variables in ``variable_key`` order; a variable's id
    is its position there, and ``index`` maps it back, built on first use,
    since queries name variables by id. A set of ids is an ``int`` bitmask.
    A table from ``node_table`` also holds the paths under its variables,
    interned as path ids (``tree``), and ``node_ids[k]`` maps each attribute
    of path k's last class to its node id; a table of a few query variables
    (``NodeTable.of``) holds neither. ``node_table`` shares tables, so none
    changes once made.
    """

    perspective: str
    nodes: tuple[RelationalVariable, ...]
    tree: PathTree | None = field(default=None, kw_only=True)
    node_ids: tuple[dict[str, int], ...] = field(default=(), kw_only=True)

    @cached_property
    def index(self) -> dict[RelationalVariable, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    @classmethod
    def of(cls, perspective: str, variables) -> NodeTable:
        return cls(perspective, tuple(sorted(set(variables), key=variable_key)))


@lru_cache(maxsize=64)
def node_table(schema: Schema, perspective: str, hops: int) -> NodeTable:
    """The attribute-bearing variables within ``hops`` of a perspective.

    Path ids come in (length, items) order and each path's attributes in
    sorted order, so numbering the variables path by path numbers them in
    ``variable_key`` order. Cached: a learner's phases and an oracle at the
    same hops share ids.
    """
    tree = path_tree(schema, perspective, hops)
    attributes = {name: sorted(schema.attributes_of(name)) for name in schema.item_classes}
    nodes: list[RelationalVariable] = []
    node_ids = []
    for items in tree.items:
        path = RelationalPath(items)
        ids = {}
        for attr in attributes[items[-1]]:
            ids[attr] = len(nodes)
            nodes.append(RelationalVariable(path, attr))
        node_ids.append(ids)
    return NodeTable(perspective, tuple(nodes), tree=tree, node_ids=tuple(node_ids))


def bits(mask: int) -> list[int]:
    """The ids set in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Lifting(NodeTable):
    """A dependency set lifted into one perspective: what no run changes.

    ``adjacency[i]`` is the id mask of the nodes adjacent to node ``i``, and
    ``edge_pairs`` maps each edge ``(i, j)``, ``i < j``, to the canonical
    dependency pairs that support it, in text order; ``pair_arcs`` maps
    each pair back to its edges, each as (cause id, effect id) under the
    pair's own direction. Distinct pairs can support one edge when two
    cause paths connect the same attribute classes within the hop budget;
    they always relate the same attribute classes, so direction stays well
    defined. ``lift`` shares liftings, so all of it is read-only.
    """

    adjacency: tuple[int, ...]
    edge_pairs: MappingProxyType[tuple[int, int], tuple[RelationalDependency, ...]]
    pair_arcs: MappingProxyType[RelationalDependency, tuple[tuple[int, int], ...]]

    def pairs_of(self, i: int, j: int) -> tuple[RelationalDependency, ...]:
        """The dependency pairs supporting edge i - j, in either order."""
        return self.edge_pairs[(i, j) if i < j else (j, i)]


@dataclass(frozen=True)
class Agg(Lifting):
    """One perspective's lifted graph: a shared lifting and its own directions.

    Bit j of ``parents[i]`` (an ``int``) is set once j -> i is directed, and
    of ``children[i]`` once i -> j is; an edge with neither bit is
    undirected. Every graph has lists of its own.
    """

    parents: list[int]
    children: list[int]

    def direct(
        self, pair: RelationalDependency, oriented: RelationalDependency
    ) -> None:
        """Direct every edge of ``pair`` as ``oriented`` (the pair or its reverse).

        All pairs supporting an edge relate the same two attribute classes,
        so the first oriented one fixes the edge's direction; ``orient``
        refuses every later pair that would oppose it.
        """
        parents, children = self.parents, self.children
        arcs = self.pair_arcs.get(pair, ())
        if oriented != pair:
            arcs = [(v, u) for u, v in arcs]
        for src, dst in arcs:
            children[src] |= 1 << dst
            parents[dst] |= 1 << src

    def edge_direction(self, i: int, j: int) -> tuple[int, int] | None:
        """(source, target) ids for a directed edge, None while undirected."""
        if self.children[i] >> j & 1:
            return (i, j)
        if self.parents[i] >> j & 1:
            return (j, i)
        return None

    def edges(
        self,
    ) -> list[tuple[RelationalVariable, RelationalVariable, bool]]:
        """(a, b, directed) triples; directed edges point a -> b."""
        out = []
        for i, j in self.edge_pairs:
            direction = self.edge_direction(i, j)
            out.append((*(direction or (i, j)), direction is not None))
        nodes = self.nodes
        return [(nodes[a], nodes[b], directed) for a, b, directed in sorted(out)]

    def reach(self, x: int, in_z: int, y: int) -> int:
        """The ids outside the id mask Z, x aside, that a walk from x reached.

        Reads a fully directed graph. Bayes-ball (Shachter 1998), one
        frontier level at a time: ``up`` holds nodes the ball reached from a
        child, ``down`` nodes it reached from a parent. A node outside Z
        passes the ball on to its children, and to its parents when it came
        from a child; a node in Z sends a ball from a parent back up to its
        parents. That bounce opens every collider with a descendant in Z, so
        anc(Z) is never built. A node outside Z that the ball reached from a
        child has passed it on wherever a ball from a parent would, so it is
        not visited from a parent again. Every node the ball reaches outside
        Z is d-connected to x given Z. The walk stops at the level that
        reaches y; if y's bit is clear in the result, the walk ran out, and
        the result is every node d-connected to x given Z.
        """
        parents, children = self.parents, self.children
        free, target = ~in_z, 1 << y
        up, down = 1 << x, 0
        seen_up = seen_down = 0
        while up or down:
            seen_up |= up
            seen_down |= down
            lift, drop = (up & free) | (down & in_z), (up | down) & free
            up = down = 0
            while lift:
                up |= parents[(lift & -lift).bit_length() - 1]
                lift &= lift - 1
            while drop:
                down |= children[(drop & -drop).bit_length() - 1]
                drop &= drop - 1
            up &= ~seen_up
            down &= ~(seen_down | seen_up & free)
            # stop early: complete walks (one per perspective, source and Z)
            # cut an oracle-grid pass from 336,161 walks to 291,658 with the
            # same patterns, yet ran slower, since every walk then runs to
            # its end (scripts/ab_learns.py median ratio 0.754, 5 passes)
            if (up | down) & target:
                break
        return (seen_up | seen_down | up | down) & free & ~(1 << x)

    def d_separated(self, x: int, y: int, in_z: int) -> bool:
        """Whether no active trail joins node x to node y given the id mask Z."""
        return not self.reach(x, in_z, y) >> y & 1


@dataclass
class AggSet:
    aggs: dict[str, Agg]
    # canonical pair -> its oriented dependency, None while unoriented
    registry: dict[RelationalDependency, RelationalDependency | None]
    # attribute-class pair -> the registry pairs relating it, in registry order
    siblings: dict[frozenset, list[RelationalDependency]]
    conflicts: list[str] = field(default_factory=list)
    attribution: dict[RelationalDependency, str] = field(default_factory=dict)

    def perspectives(self) -> list[str]:
        return sorted(self.aggs)


def _classes(pair: RelationalDependency) -> frozenset:
    return frozenset((pair.cause.attribute_class, pair.effect.attribute_class))


@lru_cache(maxsize=64)
def lift(schema: Schema, perspective: str, node_hops: int, pairs: frozenset) -> Lifting:
    """Lift canonical dependency pairs into the graph seen from one perspective.

    Nodes are the attribute-bearing relational variables within the hop
    bound. For a pair with effect class C, every node whose path q ends at C
    gains an edge from each valid composition of q with the cause path b
    that stays within the bound. A composition pivots on m >= 1 items: the
    last m items of q, reversed, are the first m of b, and the composed path
    is q's prefix of all but its last m - 1 items extended by b's items
    after the m-th. So each composition walks the table's path tree from
    one of q's prefixes, longest pivot first (shortest path first), and is
    valid and in bound exactly when the walk stays in the tree. A node
    composes to another exactly when that one composes back along the
    reversed path, so a pair's reverse would add no edge. Cached (64
    entries) as ``node_table`` is.
    """
    table = node_table(schema, perspective, node_hops)
    tree, node_ids = table.tree, table.node_ids
    paths, prefix, walk = tree.items, tree.prefix, tree.walk
    # the path ids ending at each item class, ascending
    ending: dict[str, list[int]] = {}
    for k, items in enumerate(paths):
        ending.setdefault(items[-1], []).append(k)
    supports: dict[tuple[int, int], list[RelationalDependency]] = {}
    arcs_of: dict[RelationalDependency, tuple[tuple[int, int], ...]] = {}
    adjacency = [0] * len(table.nodes)
    for pair in sorted(pairs, key=str):  # so each edge's pairs come sorted
        b = pair.cause.path.items
        if b[0] != pair.effect.path.last:
            continue  # no pivot: the paths do not join
        cause_attr, effect_attr = pair.cause.attribute, pair.effect.attribute
        tails = [b[m:] for m in range(len(b) + 1)]  # what pivot m appends
        arcs = []
        for q in ending.get(b[0], ()):
            v = node_ids[q].get(effect_attr)
            if v is None:
                continue
            a = paths[q]
            top = min(len(a), len(b))
            pivots = [q]  # pivots[m - 1] is the prefix that pivot m extends
            while len(pivots) < top and a[-1 - len(pivots)] == b[len(pivots)]:
                pivots.append(prefix[pivots[-1]])
            for m in range(len(pivots), 0, -1):
                k = walk(pivots[m - 1], tails[m])
                if k is not None:
                    u = node_ids[k].get(cause_attr)
                    if u is not None:
                        supports.setdefault((u, v) if u < v else (v, u), []).append(pair)
                        arcs.append((u, v))
                        adjacency[u] |= 1 << v
                        adjacency[v] |= 1 << u
        if arcs:
            arcs_of[pair] = tuple(arcs)
    return Lifting(
        **{f.name: getattr(table, f.name) for f in fields(table)},
        adjacency=tuple(adjacency),
        edge_pairs=MappingProxyType({k: tuple(p) for k, p in supports.items()}),
        pair_arcs=MappingProxyType(arcs_of),
    )


def build_agg(pairs, schema: Schema, perspective: str, node_hops: int) -> Agg:
    """The ``lift`` of canonical pairs, unchecked, with fresh direction bits."""
    lifted = lift(schema, perspective, node_hops, frozenset(pairs))
    shared = {f.name: getattr(lifted, f.name) for f in fields(lifted)}
    n = len(lifted.nodes)
    return Agg(**shared, parents=[0] * n, children=[0] * n)


def build_all(dependencies, schema: Schema, node_hops: int) -> AggSet:
    """Validate dependencies; one graph per item class, sharing one registry.

    The registry holds each dependency's canonical pair, in the text order
    of the first dependency naming it.
    """
    deps = sorted(set(dependencies), key=str)
    for dep in deps:
        validate_dependency(dep, schema)
    registry = dict.fromkeys(map(canonical_pair, deps))
    pairs = frozenset(registry)
    aggs = {
        perspective: build_agg(pairs, schema, perspective, node_hops)
        for perspective in sorted(schema.item_classes)
    }
    siblings: dict[frozenset, list[RelationalDependency]] = {}
    for pair in registry:
        siblings.setdefault(_classes(pair), []).append(pair)
    return AggSet(aggs=aggs, registry=registry, siblings=siblings)


def orient(agg_set: AggSet, dependency: RelationalDependency, rule: str) -> bool:
    """Register a dependency's direction, directing its edges in every graph.

    Returns True when the registry changed; the pair is then attributed to
    ``rule``. Re-orienting in the same direction is a no-op; an orientation
    opposing the pair's own state or the state of a sibling pair over the
    same attribute classes is recorded as a conflict, naming ``rule``, and
    ignored (first orientation wins).
    """
    registry = agg_set.registry
    # its keys are canonical pairs: the dependency, or else its reverse
    # (reverse_dependency refuses a dependency that is not canonical)
    pair = dependency if dependency in registry else reverse_dependency(dependency)
    if pair not in registry:
        raise ValueError(f"unknown dependency {dependency}")
    current = registry[pair]
    if current is not None:
        if current == dependency:
            return False
        agg_set.conflicts.append(f"{rule} wanted {dependency} but registry holds {current}")
        return False
    # the pair is among its own siblings, harmlessly: it is unoriented here
    for sibling in agg_set.siblings[_classes(pair)]:
        oriented = registry[sibling]
        if (
            oriented is not None
            and oriented.cause.attribute_class != dependency.cause.attribute_class
        ):
            agg_set.conflicts.append(f"{rule} wanted {dependency} but sibling holds {oriented}")
            return False
    registry[pair] = dependency
    for agg in agg_set.aggs.values():
        agg.direct(pair, dependency)
    agg_set.attribution[pair] = rule
    return True


def unshielded_triples(agg: Agg, canonical: bool = False):
    """(x, y, z) ids with x-y and y-z adjacent but x, z non-adjacent.

    Emitted in canonical order: middles ascending, then endpoint pairs
    ascending with x < z. With ``canonical``, only the triples with a base
    endpoint, one of the perspective's own attributes: ``variable_key``
    sorts singleton paths first, so those hold the lowest ids, and since
    x < z a triple has one exactly when x does.
    """
    adjacency = agg.adjacency
    ends = (1 << len(agg.node_ids[0])) - 1 if canonical else -1
    out = []
    for y, nbrs in enumerate(adjacency):
        for x in bits(nbrs & ends):
            for z in bits(nbrs & ~adjacency[x] & -(2 << x)):  # ids above x
                out.append((x, y, z))
    return out


def to_dot(name: str, shape: str, statements) -> str:
    """A DOT digraph: the header, one node style, the statements, the close."""
    lines = [f"digraph {name} {{", f"  node [shape={shape}, fontsize=10];"]
    lines.extend(f"  {statement}" for statement in statements)
    lines.append("}")
    return "\n".join(lines) + "\n"


def agg_to_dot(agg: Agg) -> str:
    """DOT rendering: directed edges with arrows, undirected without."""
    statements = [f'"{v}";' for v in agg.nodes]
    for a, b, directed in agg.edges():
        pairs = "; ".join(str(p) for p in agg.pairs_of(agg.index[a], agg.index[b]))
        style = "" if directed else ", dir=none"
        statements.append(f'"{a}" -> "{b}" [tooltip="{pairs}"{style}];')
    return to_dot(f'"{agg.perspective}"', "box", statements)
