"""Instance-level data: skeletons, terminal sets, ground graphs, sampling.

A skeleton holds entity and relationship instances conforming to a schema.
Pairing a skeleton with a model gives a directed graph over (instance,
attribute) nodes, its parent lists built when first read, and synthetic
linear-Gaussian data sampled from the pair alone.

``TerminalSets`` follows relational paths from every perspective instance at
once, as boolean products of the skeleton's sparse hop incidence matrices. It
memoises every path prefix it walks, so paths that share a prefix share its
hops; the regression backend keeps one for its lifetime, ``sample_data`` one
per call, and a ground graph one to build its parents. ``terminal_means``
averages over a walker's rows, for the regression test and the sampler alike.
Its means are exact (``math.fsum(row) / len(row)``, bit for bit) without a
loop over rows: each value splits exactly into a part on a power-of-two grid
coarse enough that any row's sum of those parts is exact, and a remainder
whose row sums are exact too wherever it lies on a second, finer grid. Only
rows with a remainder off that grid, or inputs too large or not finite for the
grid, fall back to ``math.fsum``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import Infeasible
from .model import RelationalModel
from .paths import RelationalPath
from .schema import AttributeClass, Cardinality, Schema

# sample_data's coefficient magnitudes (uniform, random sign) and noise scale
COEFF_RANGE = (0.3, 0.7)
NOISE_SD = 1.0

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
        # instance id -> row/column position in the hop matrices
        object.__setattr__(
            self,
            "_positions",
            {
                cls: {inst: i for i, inst in enumerate(self.instances_of(cls))}
                for cls in self.schema.item_classes
            },
        )
        self._check()
        object.__setattr__(self, "_hops", self._hop_matrices())

    def _hop_matrices(self) -> dict[tuple[str, str], sparse.csr_array]:
        """Boolean incidence per (entity, relationship) hop, both directions."""
        hops = {}
        for rel in self.schema.relationships:
            rel_links = self.links[rel.name]
            # int32 indices halve what each product, and so each prefix a
            # TerminalSets memo keeps, holds
            link_pos = np.arange(len(rel_links), dtype=np.int32)
            for side, entity in enumerate(rel.participants):
                pos = self._positions[entity]
                ent_pos = np.fromiter(
                    (pos[link[1 + side]] for link in rel_links), np.int32, len(rel_links)
                )
                to_rel = sparse.csr_array(
                    (np.ones(len(rel_links), dtype=bool), (ent_pos, link_pos)),
                    shape=(len(pos), len(rel_links)),
                )
                hops[(entity, rel.name)] = to_rel
                hops[(rel.name, entity)] = to_rel.T.tocsr()
        return hops

    def instances_of(self, cls: str) -> tuple[str, ...]:
        if self.schema.is_entity(cls):
            return self.instances[cls]
        return tuple(link[0] for link in self.links[cls])

    def _check(self) -> None:
        for cls, pos in self._positions.items():
            if len(pos) != len(self.instances_of(cls)):
                raise ValueError(f"duplicate {cls} instance ids")
        for rel_name, rel_links in self.links.items():
            rel = self.schema.item_classes[rel_name]
            known = [self._positions[p] for p in rel.participants]
            for link_id, e1, e2 in rel_links:
                for inst, participant, ids in zip((e1, e2), rel.participants, known):
                    if inst not in ids:
                        raise ValueError(
                            f"{rel_name} link {link_id!r} references unknown "
                            f"{participant} instance {inst!r}"
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


class TerminalSets:
    """Terminal sets of relational paths on one skeleton, memoised by prefix.

    ``walker(path)`` is a sparse boolean array: row ``i`` marks the
    instances of ``path.last`` reached from the ``i``-th instance of
    ``path.perspective``; rows and columns follow ``instances_of`` order,
    which is sorted, but a row's indices may be unsorted. Each hop is a
    boolean product with the hop's incidence matrix, masked by what each
    row has already visited of the class it lands on, so traversals never
    fold back onto where they came from.

    The memo maps each walked prefix (its item tuple) to its frontier and
    what it has visited per class. A path extends its longest walked
    prefix one hop at a time, so each distinct prefix costs one product
    for the walker's lifetime. The array returned is the memo's own, so
    callers must not modify it.
    """

    def __init__(self, skeleton: Skeleton):
        self.skeleton = skeleton
        # items -> (frontier, visited per class)
        self._walks: dict[tuple[str, ...], tuple[sparse.csr_array, dict]] = {}

    def __call__(self, path: RelationalPath) -> sparse.csr_array:
        items = path.items
        walks = self._walks
        k = len(items)
        while k > 1 and items[:k] not in walks:
            k -= 1
        walk = walks.get(items[:k])
        if walk is None:  # k is 1: start from the perspective itself
            n = len(self.skeleton._positions[items[0]])  # noqa: SLF001
            start = sparse.csr_array(sparse.identity(n, dtype=bool))
            walk = walks[items[:1]] = start, {items[0]: start}
        frontier, burned = walk
        hops = self.skeleton._hops  # noqa: SLF001
        for j in range(k, len(items)):
            cls = items[j]
            frontier = frontier @ hops[(items[j - 1], cls)]
            seen = burned.get(cls)
            if seen is None:
                burned = {**burned, cls: frontier}
            else:
                frontier = frontier > seen
                burned = {**burned, cls: seen + frontier}
            walks[items[: j + 1]] = frontier, burned
        return frontier


def terminal_means(
    reach: sparse.csr_array, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each ``TerminalSets`` row's mean of ``values`` (in ``instances_of``
    order), and which rows have members (the others read 0.0).

    Every mean is bit for bit ``math.fsum(row) / len(row)``: the row sum
    correctly rounded, so it cannot depend on summation order. Segmented
    numpy sums reach it by splitting each value on a power-of-two grid
    (Rump, Ogita & Oishi's ExtractScalar):

    - ``2**q`` is chosen so that ``max|value| * (nmax + 1) < 2**(q + 52)``,
      ``nmax`` being the longest row. For ``c = 1.5 * 2**(q + 52)``,
      ``hi = (x + c) - c`` is ``x`` rounded to a multiple of ``2**q`` and
      ``lo = x - hi`` the rest, both exact.
    - A row's ``hi`` sum stays a multiple of ``2**q`` below ``2**(q + 53)``,
      so it is exact in any order. Its ``lo`` sum is exact too where every
      ``lo`` lies on the finer grid ``2**(q + nmax.bit_length() - 52)``:
      it then stays within 51 bits of that grid.
    - One IEEE add of two exact sums is the correctly rounded row sum. No
      ``hi`` is -0.0, so neither is the sum, as with fsum.

    A row with a ``lo`` off its grid takes ``math.fsum``, as every row does
    where the bound or ``c`` would not stay finite: NaN, infinity or values
    near the float maximum. fsum raises ``OverflowError`` for a row whose
    sum overflows.
    """
    picked = values[reach.indices]
    indptr = reach.indptr
    counts = np.diff(indptr)
    has = counts > 0
    means = np.zeros(len(counts))
    if not picked.size:
        return means, has
    nmax = int(counts.max())
    bound = max(float(picked.max()), -float(picked.min())) * (nmax + 1)
    exponent = math.frexp(bound)[1]  # bound < 2**exponent
    rows = np.flatnonzero(has)
    fallback = rows
    # c + x stays below 2**(exponent + 1), so finite
    if math.isfinite(bound) and exponent <= 1022:
        q = exponent - 52
        c = math.ldexp(1.5, q + 52)
        hi = (picked + c) - c
        lo = picked - hi
        starts = indptr[rows]
        sums = np.add.reduceat(hi, starts) + np.add.reduceat(lo, starts)
        means[rows] = sums / counts[rows]
        # the same split on the finer grid keeps exactly the lo on it
        c_lo = math.ldexp(1.5, q + nmax.bit_length())
        off = (lo + c_lo) - c_lo != lo
        fallback = rows[np.logical_or.reduceat(off, starts)] if off.any() else rows[:0]
    for i in fallback.tolist():
        start, end = indptr[i], indptr[i + 1]
        means[i] = math.fsum(picked[start:end].tolist()) / (end - start)
    return means, has


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
    if not 0 < link_density < math.inf:
        raise ValueError("link_density must be finite and > 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
    them; it is built on first read. The sampler walks the same terminal
    sets on ``skeleton`` instead.
    """

    model: RelationalModel
    skeleton: Skeleton

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self.skeleton.nodes())

    @cached_property
    def parents(self) -> dict[Node, dict[object, tuple[Node, ...]]]:
        skeleton = self.skeleton
        parents: dict[Node, dict[object, tuple[Node, ...]]] = {}
        walker = TerminalSets(skeleton)
        for dep in self.model.dependencies:
            effect_cls = dep.effect.path.last
            cause_cls = dep.cause.path.last
            reach = walker(dep.cause.path)
            causes = [
                (cause_cls, r, dep.cause.attribute) for r in skeleton.instances_of(cause_cls)
            ]
            indptr = reach.indptr.tolist()
            indices = reach.indices.tolist()
            for i, inst in enumerate(skeleton.instances_of(effect_cls)):
                lo, hi = indptr[i], indptr[i + 1]
                if lo == hi:
                    continue
                child = (effect_cls, inst, dep.effect.attribute)
                parents.setdefault(child, {})[dep] = tuple(causes[j] for j in indices[lo:hi])
        return parents

    def edges(self) -> list[tuple[Node, Node]]:
        out = set()
        for child, groups in self.parents.items():
            for group in groups.values():
                out.update((parent, child) for parent in group)
        return sorted(out)


def ground_graph(model: RelationalModel, skeleton: Skeleton) -> GroundGraph:
    """Pair a model with a skeleton; ``parents`` instantiates its dependencies."""
    if model.schema != skeleton.schema:
        raise ValueError("model and skeleton schemas differ")
    return GroundGraph(model, skeleton)


def sample_data(gg: GroundGraph, seed: int = 0) -> dict[Node, float]:
    """Linear-Gaussian sampling, one dependency at a time.

    Each dependency draws one coefficient, uniform in ``COEFF_RANGE`` with a
    random sign, and each node, in sorted order, noise of scale ``NOISE_SD``.
    A node's value is its noise plus, per dependency of its attribute class
    with a non-empty terminal set from the node, the coefficient times the
    cause's ``terminal_means`` average, the aggregate ``RegressionCI`` tests.
    Dependencies go by the length of their effect's longest chain of causes,
    so every cause is complete before it is read, and in text order within
    an attribute class. Values are deterministic for a given seed.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    lo, hi = COEFF_RANGE
    coeffs = {
        dep: float(rng.uniform(lo, hi)) * float(rng.choice((-1.0, 1.0)))
        for dep in gg.model.dependencies
    }
    skeleton = gg.skeleton
    ordered = sorted(skeleton.nodes())
    drawn = rng.normal(0.0, NOISE_SD, size=len(ordered))
    # sorted nodes list each class's instances in instances_of order, each
    # with its attributes sorted, so an attribute class's values are every
    # m-th entry of its class's block: a view that sampling writes through
    columns: dict[AttributeClass, np.ndarray] = {}
    start = 0
    for cls in sorted(skeleton.schema.item_classes):
        attrs = sorted(skeleton.schema.attributes_of(cls))
        end = start + len(skeleton.instances_of(cls)) * len(attrs)
        for k, attr in enumerate(attrs):
            columns[AttributeClass(cls, attr)] = drawn[start + k : end : len(attrs)]
        start = end
    # longest chain of causes above each attribute class: in an acyclic
    # model no chain has more links than there are dependencies
    deps = gg.model.dependencies
    rank: dict[AttributeClass, int] = {}
    for _ in deps:
        for dep in deps:
            cause, effect = dep.cause.attribute_class, dep.effect.attribute_class
            rank[effect] = max(rank.get(effect, 0), rank.get(cause, 0) + 1)
    walker = TerminalSets(skeleton)
    # a stable sort keeps each attribute class's dependencies in text order
    for dep in sorted(deps, key=lambda d: rank[d.effect.attribute_class]):
        means, has = terminal_means(
            walker(dep.cause.path), columns[dep.cause.attribute_class]
        )
        target = columns[dep.effect.attribute_class]
        target[has] += coeffs[dep] * means[has]
    return dict(zip(ordered, drawn.tolist()))


def save_skeleton(skeleton: Skeleton, directory: str | Path) -> Path:
    """Write one CSV per item class plus a manifest naming each file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    values = skeleton.values
    schema = skeleton.schema
    for item in (*schema.entities, *schema.relationships):
        # key columns: (id,) per entity, (id, participant ids) per link
        if schema.is_entity(item.name):
            header = ["id"]
            keys = [(inst,) for inst in skeleton.instances[item.name]]
        else:
            header = ["id", *(f"{p}_id" for p in item.participants)]
            keys = skeleton.links[item.name]
        fname = files[item.name] = f"{item.name.lower()}.csv"
        attrs = list(item.attributes) if values else []
        with open(directory / fname, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*header, *attrs])
            for key in keys:
                row = [repr(float(values[(item.name, key[0], a)])) for a in attrs]
                writer.writerow([*key, *row])
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"files": files}, indent=2, sort_keys=True) + "\n")
    return manifest


def load_skeleton(schema: Schema, manifest_path: str | Path) -> Skeleton:
    """Read a skeleton (and any attribute values) from the CSV contract."""
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read manifest {manifest_path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    files = doc.get("files") if isinstance(doc, dict) else None
    if not isinstance(files, dict) or not all(
        isinstance(cls, str) and isinstance(name, str) for cls, name in files.items()
    ):
        raise ValueError(
            f"malformed manifest {manifest_path}: 'files' must map class names "
            "to file names"
        )
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
                width = 1  # id
            else:
                width = 3  # id and the two participant ids
                want = [f"{item.participants[0]}_id", f"{item.participants[1]}_id"]
                if header[1:3] != want:
                    raise ValueError(
                        f"{path}: expected participant columns {want}, got {header[1:3]}"
                    )
            value_cols = header[width:]
            known = set(schema.attributes_of(cls))
            for i, col in enumerate(value_cols):
                if col not in known:
                    raise ValueError(f"{path}: unknown column {col!r}")
                if col in value_cols[:i]:
                    raise ValueError(f"{path}: duplicate column {col!r}")
            keys = []  # (id,) per entity, (id, participant ids) per link
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}, row {reader.line_num}: {len(row)} fields, "
                        f"the header has {len(header)}"
                    )
                inst = row[0]
                keys.append(tuple(row[:width]))
                for col, raw in zip(value_cols, row[width:]):
                    try:
                        value = float(raw)
                    except ValueError as exc:
                        raise ValueError(
                            f"{path}, row {reader.line_num}: non-numeric value "
                            f"{raw!r} for {col!r}"
                        ) from exc
                    if not math.isfinite(value):
                        raise ValueError(
                            f"{path}, row {reader.line_num}: non-finite value "
                            f"{raw!r} for {col!r}"
                        )
                    values[(cls, inst, col)] = value
            if schema.is_entity(cls):
                instances[cls] = tuple(key[0] for key in keys)
            else:
                links[cls] = tuple(keys)
    return Skeleton(schema, instances, links, values)
