"""Instance-level data: skeletons, terminal sets, ground graphs, sampling.

A skeleton holds entity and relationship instances conforming to a schema.
Pairing a skeleton with a model instantiates every dependency into a
directed graph over (instance, attribute) nodes, from which synthetic
linear-Gaussian data can be sampled.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np

from .errors import Infeasible
from .model import RelationalModel, class_dependency_graph
from .paths import RelationalPath
from .schema import AttributeClass, Cardinality, Schema

# (item class, instance id, attribute)
Node = tuple[str, str, str]


@dataclass(frozen=True)
class Skeleton:
    """Entity instances plus relationship links; link ids double as the
    instances of their relationship class."""

    schema: Schema
    instances: dict[str, tuple[str, ...]]
    # per relationship class: (link id, participant-1 id, participant-2 id)
    links: dict[str, tuple[tuple[str, str, str], ...]]
    values: dict[Node, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self,
            "instances",
            {e.name: tuple(sorted(self.instances.get(e.name, ()))) for e in self.schema.entities},
        )
        object.__setattr__(
            self,
            "links",
            {r.name: tuple(sorted(self.links.get(r.name, ()))) for r in self.schema.relationships},
        )
        incident: dict[tuple[str, str, str], list[str]] = {}
        ends: dict[tuple[str, str], tuple[str, str]] = {}
        for rel_name, rel_links in self.links.items():
            rel = self.schema.item_classes[rel_name]
            for link_id, e1, e2 in rel_links:
                ends[(rel_name, link_id)] = (e1, e2)
                incident.setdefault((rel_name, rel.participants[0], e1), []).append(
                    link_id
                )
                incident.setdefault((rel_name, rel.participants[1], e2), []).append(
                    link_id
                )
        object.__setattr__(self, "_incident", incident)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(
            self,
            "_members",
            {cls: frozenset(self.instances_of(cls)) for cls in self.schema.item_classes},
        )
        self._check()

    def instances_of(self, cls: str) -> tuple[str, ...]:
        if self.schema.is_entity(cls):
            return self.instances[cls]
        return tuple(link[0] for link in self.links[cls])

    def _check(self) -> None:
        for rel_name, rel_links in self.links.items():
            rel = self.schema.item_classes[rel_name]
            known1 = self._members[rel.participants[0]]
            known2 = self._members[rel.participants[1]]
            for link_id, e1, e2 in rel_links:
                if e1 not in known1:
                    raise ValueError(
                        f"{rel_name} link {link_id!r} references unknown "
                        f"{rel.participants[0]} instance {e1!r}"
                    )
                if e2 not in known2:
                    raise ValueError(
                        f"{rel_name} link {link_id!r} references unknown "
                        f"{rel.participants[1]} instance {e2!r}"
                    )
            for side, participant in enumerate(rel.participants):
                if rel.cards[side] is Cardinality.ONE:
                    seen: set[str] = set()
                    for link in rel_links:
                        inst = link[1 + side]
                        if inst in seen:
                            raise ValueError(
                                f"cardinality violation: {participant} instance "
                                f"{inst!r} appears in multiple {rel_name} links"
                            )
                        seen.add(inst)

    def with_values(self, values: dict[Node, float]) -> "Skeleton":
        return Skeleton(self.schema, dict(self.instances), dict(self.links), values)

    def nodes(self) -> list[Node]:
        out = []
        for cls in sorted(self.schema.item_classes):
            for inst in self.instances_of(cls):
                for attr in self.schema.attributes_of(cls):
                    out.append((cls, inst, attr))
        return out


def terminal_set(skeleton: Skeleton, path: RelationalPath, start: str) -> set[str]:
    """Instances of the path's final class reached from ``start``.

    Frontiers are built hop by hop; instances of a class already visited at
    an earlier step of the same path are excluded, so traversals never fold
    back onto where they came from.
    """
    schema = skeleton.schema
    if start not in skeleton._members[path.perspective]:  # noqa: SLF001
        raise ValueError(
            f"{start!r} is not an instance of perspective class {path.perspective!r}"
        )
    incident = skeleton._incident  # noqa: SLF001 - internal index
    ends = skeleton._ends  # noqa: SLF001
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


def random_skeleton(
    schema: Schema,
    sizes: dict[str, int],
    link_density: float = 1.0,
    seed: int = 0,
) -> Skeleton:
    """Generate instances and links respecting cardinality constraints.

    The link count per relationship is ``link_density`` times the tightest
    participation bound: the smallest ONE-side population, or the larger
    population when both sides are MANY. ONE-side instances are never
    reused; MANY/MANY links are distinct pairs.
    """
    unknown = sorted(set(sizes) - schema.entity_names)
    if unknown:
        raise ValueError(f"sizes name unknown entity classes {unknown}")
    for entity in schema.entity_names:
        if sizes.get(entity, 0) < 1:
            raise ValueError(f"size for {entity!r} must be >= 1")
    rng = np.random.default_rng(seed)
    instances = {
        e.name: tuple(f"{e.name.lower()}{i}" for i in range(sizes[e.name]))
        for e in schema.entities
    }
    links: dict[str, tuple[tuple[str, str, str], ...]] = {}
    for rel in schema.relationships:
        n1 = sizes[rel.participants[0]]
        n2 = sizes[rel.participants[1]]
        one_sides = [n for n, c in zip((n1, n2), rel.cards) if c is Cardinality.ONE]
        base = min(one_sides) if one_sides else max(n1, n2)
        target = max(1, int(round(link_density * base)))
        cap = min(one_sides) if one_sides else n1 * n2
        if target > cap:
            raise Infeasible(
                f"cannot place {target} {rel.name} links under cardinality "
                f"constraints (max {cap})"
            )
        if Cardinality.ONE not in rel.cards:
            if target * 2 >= n1 * n2:
                flat = rng.choice(n1 * n2, size=target, replace=False)
                paired = sorted((int(k) // n2, int(k) % n2) for k in flat)
            else:
                pairs: set[tuple[int, int]] = set()
                while len(pairs) < target:
                    pairs.add((int(rng.integers(n1)), int(rng.integers(n2))))
                paired = sorted(pairs)
        else:
            side1 = _pick_side(rng, n1, target, rel.cards[0])
            side2 = _pick_side(rng, n2, target, rel.cards[1])
            paired = list(zip(side1, side2))
        ids1 = instances[rel.participants[0]]
        ids2 = instances[rel.participants[1]]
        links[rel.name] = tuple(
            (f"{rel.name.lower()}{k}", ids1[i], ids2[j])
            for k, (i, j) in enumerate(paired)
        )
    return Skeleton(schema, instances, links)


def _pick_side(
    rng: np.random.Generator, n: int, target: int, card: Cardinality
) -> list[int]:
    if card is Cardinality.ONE:
        return [int(i) for i in rng.choice(n, size=target, replace=False)]
    return [int(i) for i in rng.integers(0, n, size=target)]


@dataclass(frozen=True)
class GroundGraph:
    """Directed instantiation of a model on a skeleton.

    ``parents`` groups each node's parents by the dependency that produced
    them, which is what the linear-Gaussian sampler aggregates over.
    """

    model: RelationalModel
    nodes: tuple[Node, ...]
    parents: dict[Node, dict[object, tuple[Node, ...]]]

    def edges(self) -> list[tuple[Node, Node]]:
        out = set()
        for child, groups in self.parents.items():
            for group in groups.values():
                out.update((parent, child) for parent in group)
        return sorted(out)

    def to_networkx(self) -> nx.DiGraph:
        g = getattr(self, "_nx_cache", None)
        if g is None:
            g = nx.DiGraph()
            g.add_nodes_from(self.nodes)
            g.add_edges_from(self.edges())
            object.__setattr__(self, "_nx_cache", g)
        return g

    def is_acyclic(self) -> bool:
        return nx.is_directed_acyclic_graph(self.to_networkx())


def ground_graph(model: RelationalModel, skeleton: Skeleton) -> GroundGraph:
    """Instantiate every dependency for every effect-class instance."""
    if model.schema != skeleton.schema:
        raise ValueError("model and skeleton schemas differ")
    nodes = tuple(skeleton.nodes())
    parents: dict[Node, dict[object, tuple[Node, ...]]] = {}
    for dep in model.dependencies:
        effect_cls = dep.effect.path.last
        cause_cls = dep.cause.path.last
        for inst in skeleton.instances_of(effect_cls):
            reached = terminal_set(skeleton, dep.cause.path, inst)
            if not reached:
                continue
            child = (effect_cls, inst, dep.effect.attribute)
            group = tuple((cause_cls, r, dep.cause.attribute) for r in sorted(reached))
            parents.setdefault(child, {})[dep] = group
    return GroundGraph(model, nodes, parents)


def sample_data(
    gg: GroundGraph,
    seed: int = 0,
    coeff_range: tuple[float, float] = (0.3, 0.7),
    noise_sd: float = 1.0,
) -> dict[Node, float]:
    """Linear-Gaussian sampling, one attribute class at a time.

    Each dependency draws one signed coefficient; a node's value sums, over
    its dependency groups, coefficient times the group's parent average,
    plus Gaussian noise. Every ground edge instantiates an edge of the
    model's acyclic class dependency graph, so visiting attribute classes
    in its topological order computes every parent before its children.
    Values are deterministic for a given seed and do not depend on
    topological tie-breaking.
    """
    rng = np.random.default_rng(seed)
    lo, hi = coeff_range
    coeffs = {
        dep: float(rng.uniform(lo, hi)) * float(rng.choice((-1.0, 1.0)))
        for dep in gg.model.dependencies
    }
    ordered = sorted(gg.nodes)
    noise = dict(zip(ordered, rng.normal(0.0, noise_sd, size=len(ordered))))
    graph = class_dependency_graph(gg.model)
    rank = {c: i for i, c in enumerate(nx.lexicographical_topological_sort(graph))}
    values: dict[Node, float] = {}
    # a stable sort keeps each attribute class's nodes in sorted order
    for node in sorted(ordered, key=lambda n: rank[AttributeClass(n[0], n[2])]):
        total = noise[node]
        for dep, group in gg.parents.get(node, {}).items():
            total += coeffs[dep] * float(np.mean([values[p] for p in group]))
        values[node] = float(total)
    return values


def dsep_ground(gg: GroundGraph, x: set[Node], y: set[Node], z: set[Node]) -> bool:
    """Standard d-separation on the instantiated graph (verification oracle)."""
    if (x & y) or (x & z) or (y & z):
        raise ValueError("query sets must be disjoint")
    return nx.is_d_separator(gg.to_networkx(), x, y, z)


def save_skeleton(skeleton: Skeleton, directory: str | Path) -> Path:
    """Write one CSV per item class plus a manifest naming each file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    values = skeleton.values
    for entity in skeleton.schema.entities:
        fname = f"{entity.name.lower()}.csv"
        files[entity.name] = fname
        with open(directory / fname, "w", newline="") as fh:
            writer = csv.writer(fh)
            attrs = list(entity.attributes) if values else []
            writer.writerow(["id", *attrs])
            for inst in skeleton.instances[entity.name]:
                row = [inst] + [repr(values[(entity.name, inst, a)]) for a in attrs]
                writer.writerow(row)
    for rel in skeleton.schema.relationships:
        fname = f"{rel.name.lower()}.csv"
        files[rel.name] = fname
        with open(directory / fname, "w", newline="") as fh:
            writer = csv.writer(fh)
            attrs = list(rel.attributes) if values else []
            writer.writerow(
                [
                    "id",
                    f"{rel.participants[0]}_id",
                    f"{rel.participants[1]}_id",
                    *attrs,
                ]
            )
            for link_id, e1, e2 in skeleton.links[rel.name]:
                row = [link_id, e1, e2]
                row += [repr(values[(rel.name, link_id, a)]) for a in attrs]
                writer.writerow(row)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"files": files}, indent=2, sort_keys=True) + "\n")
    return manifest


def load_skeleton(schema: Schema, manifest_path: str | Path) -> Skeleton:
    """Read a skeleton (and any attribute values) from the CSV contract."""
    manifest_path = Path(manifest_path)
    doc = json.loads(manifest_path.read_text())
    files = doc["files"]
    base = manifest_path.parent
    instances: dict[str, tuple[str, ...]] = {}
    links: dict[str, tuple[tuple[str, str, str], ...]] = {}
    values: dict[Node, float] = {}
    for cls in sorted(schema.item_classes):
        if cls not in files:
            raise ValueError(f"manifest missing file for class {cls!r}")
        path = base / files[cls]
        if not path.exists():
            raise ValueError(f"missing skeleton file {path}")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[0] != "id":
                raise ValueError(f"{path}: first column must be 'id'")
            item = schema.item_classes[cls]
            if schema.is_entity(cls):
                value_cols = header[1:]
                rows = [(row[0], (), row[1:]) for row in reader]
            else:
                want = [f"{item.participants[0]}_id", f"{item.participants[1]}_id"]
                if header[1:3] != want:
                    raise ValueError(
                        f"{path}: expected participant columns {want}, got {header[1:3]}"
                    )
                value_cols = header[3:]
                rows = [(row[0], tuple(row[1:3]), row[3:]) for row in reader]
            known = set(schema.attributes_of(cls))
            for col in value_cols:
                if col not in known:
                    raise ValueError(f"{path}: unknown column {col!r}")
            ids = []
            link_rows = []
            for inst, refs, vals in rows:
                ids.append(inst)
                if refs:
                    link_rows.append((inst, refs[0], refs[1]))
                for col, raw in zip(value_cols, vals):
                    try:
                        values[(cls, inst, col)] = float(raw)
                    except ValueError as exc:
                        raise ValueError(
                            f"{path}: non-numeric value {raw!r} for {col!r}"
                        ) from exc
            if schema.is_entity(cls):
                instances[cls] = tuple(ids)
            else:
                links[cls] = tuple(link_rows)
    return Skeleton(schema, instances, links, values)
