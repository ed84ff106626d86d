"""Per-perspective lifted dependency graphs with shared orientation state.

Each perspective gets a graph over the relational variables reachable from
it, interned once as integer ids in ``variable_key`` order: adjacency,
edges, triples and the orientation rules work on ids, so sorting ids sorts
variables canonically. A single canonical dependency can support many edges
within and across these graphs, so direction is not stored on edges: every
edge carries the unordered dependency pair that produced it, and a registry
shared by the whole set maps each pair to its current orientation.
Orienting a pair therefore directs every supporting edge everywhere at once.

Once every pair is oriented, ``DirectedSnapshot`` lists a graph's parents
and children by id and answers d-separation; the oracle backend and
``d_separated`` both query it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .model import (
    RelationalDependency,
    RelationalVariable,
    canonical_pair,
    validate_dependency,
    variable_key,
)
from .paths import extend as extend_path
from .paths import enumerate_paths
from .schema import Schema

Registry = dict  # canonical pair -> oriented RelationalDependency | None


@dataclass(frozen=True)
class Agg:
    """One perspective's lifted graph, over integer node ids.

    ``nodes`` holds the perspective's variables in ``variable_key`` order;
    a variable's id is its position there, and ``index`` maps it back.
    ``adjacency[i]`` is the set of ids adjacent to node ``i``, and
    ``edge_pairs`` maps each edge ``(i, j)``, ``i < j``, to the dependency
    pairs that support it. Distinct pairs can support one edge when two
    cause paths connect the same attribute classes within the hop budget;
    they always relate the same attribute classes, so direction stays well
    defined.
    """

    perspective: str
    nodes: tuple[RelationalVariable, ...]
    index: dict[RelationalVariable, int]
    adjacency: tuple[frozenset[int], ...]
    edge_pairs: dict[tuple[int, int], tuple[RelationalDependency, ...]]
    registry: Registry

    def is_adjacent(self, i: int, j: int) -> bool:
        return j in self.adjacency[i]

    def pairs_of(self, i: int, j: int) -> tuple[RelationalDependency, ...]:
        """The dependency pairs supporting edge i - j, in either order."""
        return self.edge_pairs[(i, j) if i < j else (j, i)]

    def edge_direction(self, i: int, j: int) -> tuple[int, int] | None:
        """(source, target) ids for a directed edge, None while undirected.

        All pairs supporting an edge relate the same two attribute classes,
        so any oriented one fixes the direction; inconsistencies between
        them are refused at orientation time.
        """
        for pair in self.pairs_of(i, j):
            oriented = self.registry[pair]
            if oriented is None:
                continue
            if self.nodes[i].attribute_class == oriented.cause.attribute_class:
                return (i, j)
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

    def is_fully_directed(self) -> bool:
        return all(
            self.registry[pair] is not None
            for pairs in self.edge_pairs.values()
            for pair in pairs
        )


@dataclass
class AggSet:
    aggs: dict[str, Agg]
    registry: Registry
    # attribute-class pair -> the registry pairs relating it, in registry order
    siblings: dict[frozenset, list[RelationalDependency]]
    conflicts: list[str] = field(default_factory=list)
    attribution: dict[RelationalDependency, str] = field(default_factory=dict)

    def perspectives(self) -> list[str]:
        return sorted(self.aggs)


def _classes(pair: RelationalDependency) -> frozenset:
    return frozenset((pair.cause.attribute_class, pair.effect.attribute_class))


def build_agg(
    dependencies,
    schema: Schema,
    perspective: str,
    node_hops: int,
    registry: Registry | None = None,
) -> Agg:
    """Lift a dependency set into the graph seen from one perspective.

    Nodes are the attribute-bearing relational variables within the hop
    bound. For a dependency with effect class C, every node whose path ends
    at C gains an edge from each composition of its path with the cause
    path that stays within the bound.
    """
    deps = sorted(set(dependencies), key=str)
    if registry is None:
        registry = {}
    for dep in deps:
        validate_dependency(dep, schema)
        registry.setdefault(canonical_pair(dep), None)
    paths = enumerate_paths(schema, perspective, node_hops)
    by_last: dict[str, list] = {}
    for p in paths:
        by_last.setdefault(p.last, []).append(p)
    nodes = tuple(
        sorted(
            {
                RelationalVariable(p, attr)
                for p in paths
                for attr in schema.attributes_of(p.last)
            },
            key=variable_key,
        )
    )
    index = {v: i for i, v in enumerate(nodes)}
    supports: dict[tuple[int, int], set[RelationalDependency]] = {}
    adjacency: list[set[int]] = [set() for _ in nodes]
    for dep in deps:
        effect_cls = dep.effect.path.last
        pair = canonical_pair(dep)
        for q in by_last.get(effect_cls, ()):
            v = index[RelationalVariable(q, dep.effect.attribute)]
            for source_path in extend_path(
                q, dep.cause.path, schema, node_hops + 1
            ):
                u = index[RelationalVariable(source_path, dep.cause.attribute)]
                supports.setdefault((min(u, v), max(u, v)), set()).add(pair)
                adjacency[u].add(v)
                adjacency[v].add(u)
    return Agg(
        perspective=perspective,
        nodes=nodes,
        index=index,
        adjacency=tuple(frozenset(n) for n in adjacency),
        edge_pairs={k: tuple(sorted(p, key=str)) for k, p in supports.items()},
        registry=registry,
    )


def build_all(dependencies, schema: Schema, node_hops: int) -> AggSet:
    """One graph per item class, all sharing one orientation registry."""
    registry: Registry = {}
    aggs = {
        perspective: build_agg(dependencies, schema, perspective, node_hops, registry)
        for perspective in sorted(schema.item_classes)
    }
    siblings: dict[frozenset, list[RelationalDependency]] = {}
    for pair in registry:
        siblings.setdefault(_classes(pair), []).append(pair)
    return AggSet(aggs=aggs, registry=registry, siblings=siblings)


def orient(
    agg_set: AggSet, dependency: RelationalDependency, rule: str | None = None
) -> bool:
    """Register a dependency's direction, directing all supporting edges.

    Returns True when the registry changed. Re-orienting in the same
    direction is a no-op; an orientation opposing the pair's own state or
    the state of a sibling pair over the same attribute classes is recorded
    as a conflict and ignored (first orientation wins).
    """
    pair = canonical_pair(dependency)
    if pair not in agg_set.registry:
        raise ValueError(f"unknown dependency {dependency}")
    current = agg_set.registry[pair]
    if current is not None:
        if current == dependency:
            return False
        agg_set.conflicts.append(
            f"{rule or 'orientation'} wanted {dependency} but registry holds {current}"
        )
        return False
    # the pair is among its own siblings, harmlessly: it is unoriented here
    for sibling in agg_set.siblings[_classes(pair)]:
        oriented = agg_set.registry[sibling]
        if (
            oriented is not None
            and oriented.cause.attribute_class != dependency.cause.attribute_class
        ):
            agg_set.conflicts.append(
                f"{rule or 'orientation'} wanted {dependency} but sibling holds "
                f"{oriented}"
            )
            return False
    agg_set.registry[pair] = dependency
    if rule is not None:
        agg_set.attribution[pair] = rule
    return True


def oriented_aggset(model, node_hops: int) -> AggSet:
    """Fully directed graphs of a model: build, then orient every dependency."""
    agg_set = build_all(model.dependencies, model.schema, node_hops)
    for dep in model.dependencies:
        orient(agg_set, dep, rule="given")
    return agg_set


def unshielded_triples(agg: Agg):
    """(x, y, z) ids with x-y and y-z adjacent but x, z non-adjacent.

    Emitted in canonical order: middles ascending, then endpoint pairs
    ascending with x < z.
    """
    out = []
    for y, adjacent in enumerate(agg.adjacency):
        nbrs = sorted(adjacent)
        for i, x in enumerate(nbrs):
            for z in nbrs[i + 1 :]:
                if not agg.is_adjacent(x, z):
                    out.append((x, y, z))
    return out


class DirectedSnapshot:
    """Parents/children, by node id, of one fully directed lifted graph.

    The only d-separation kernel: ``d_separated`` walks active trails
    between two node ids by ball passing. ``index`` is the graph's own.
    """

    def __init__(self, agg):
        self.index = agg.index
        n = len(agg.nodes)
        parents: list[list[int]] = [[] for _ in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        for i, j in agg.edge_pairs:
            src, dst = agg.edge_direction(i, j)
            children[src].append(dst)
            parents[dst].append(src)
        self.parents = parents
        self.children = children

    def d_separated(self, x: int, y: int, z: frozenset[int]) -> bool:
        """Whether no active trail joins node x to node y given nodes z."""
        parents, children = self.parents, self.children
        n = len(parents)
        anc = bytearray(n)
        stack = list(z)
        while stack:
            node = stack.pop()
            if not anc[node]:
                anc[node] = 1
                stack.extend(parents[node])
        in_z = bytearray(n)
        for i in z:
            in_z[i] = 1
        seen_up = bytearray(n)
        seen_down = bytearray(n)
        queue = deque(((x, 1),))
        while queue:
            node, up = queue.popleft()
            if up:
                if seen_up[node]:
                    continue
                seen_up[node] = 1
            else:
                if seen_down[node]:
                    continue
                seen_down[node] = 1
            blocked = in_z[node]
            if not blocked and node == y:
                return False
            if up:
                if not blocked:
                    for p in parents[node]:
                        queue.append((p, 1))
                    for c in children[node]:
                        queue.append((c, 0))
            else:
                if not blocked:
                    for c in children[node]:
                        queue.append((c, 0))
                if anc[node]:
                    for p in parents[node]:
                        queue.append((p, 1))
        return True


def d_separated(agg: Agg, x: set, y: set, z: set) -> bool:
    """Standard d-separation on a fully directed lifted graph.

    Sets are d-separated exactly when every pair drawn from x and y is, so
    the kernel answers pair by pair.
    """
    for v in (*x, *y, *z):
        if v not in agg.index:
            raise ValueError(f"{v} is not a node of the {agg.perspective} graph")
    if (x & y) or (x & z) or (y & z):
        raise ValueError("query sets must be disjoint")
    if not agg.is_fully_directed():
        raise ValueError("graph has undirected edges; orient all dependencies first")
    snap = DirectedSnapshot(agg)
    index = agg.index
    zi = frozenset(index[v] for v in z)
    return all(snap.d_separated(index[a], index[b], zi) for a in x for b in y)


def agg_to_dot(agg: Agg) -> str:
    """DOT rendering: directed edges with arrows, undirected without."""
    lines = [f'digraph "{agg.perspective}" {{']
    lines.append("  node [shape=box, fontsize=10];")
    for v in agg.nodes:
        lines.append(f'  "{v}";')
    for a, b, directed in agg.edges():
        pairs = "; ".join(str(p) for p in agg.pairs_of(agg.index[a], agg.index[b]))
        style = "" if directed else ", dir=none"
        lines.append(f'  "{a}" -> "{b}" [tooltip="{pairs}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
