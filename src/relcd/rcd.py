"""Two-phase constraint-based learner for relational causal models.

Phase I prunes the potential dependencies with conditional-independence
tests of growing conditioning size. Phase II lifts the survivors into
per-perspective graphs and orients them. Collider detection and bivariate
orientation across MANY-cardinality paths are one test on lifted unshielded
triples, run as two passes that split the triples by whether the endpoints
share an attribute class. The non-collider / cycle-avoidance / double-parent
propagation rules then run to a fixpoint, with every orientation propagated
through the shared registry. A run returns the pattern, its CI-test counts
per label, the rule that oriented each pair and the conflicts it refused.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .agg import AggSet, build_all, orient, unshielded_triples
from .ci import CIQuery, SepsetStore, find_sepset
from .model import (
    RelationalDependency,
    RelationalVariable,
    canonical_pair,
    potential_dependencies,
    reverse_dependency,
    variable_key,
)
from .schema import Schema

RULES = ("CD", "RBO", "KNC", "CA", "MR3")


@dataclass(frozen=True)
class LearnConfig:
    hop_threshold: int = 4
    depth: int = 3
    rbo_order: str = "rbo_after_cd"  # rbo_after_cd | rbo_first | rbo_last
    seed: int = 0
    order_randomization: bool = False

    def __post_init__(self):
        if self.hop_threshold < 0 or self.depth < 0:
            raise ValueError("hop_threshold and depth must be >= 0")
        if self.rbo_order not in ("rbo_after_cd", "rbo_first", "rbo_last"):
            raise ValueError(f"unknown rbo_order {self.rbo_order!r}")


@dataclass(frozen=True)
class LearnedPattern:
    schema: Schema
    directed: tuple[RelationalDependency, ...]
    undirected: tuple[tuple[RelationalDependency, RelationalDependency], ...]
    stats: Counter  # CI tests per label
    attribution: dict[RelationalDependency, str]
    conflicts: tuple[str, ...]

    @property
    def rule_counts(self) -> dict[str, int]:
        """Directed pairs per orientation rule, for every rule in ``RULES``."""
        counts = Counter(self.attribution.values())
        return {rule: counts[rule] for rule in RULES}

    def pairs(self) -> frozenset[RelationalDependency]:
        """Canonical pair representatives of every learned dependency."""
        return frozenset(
            [canonical_pair(d) for d in self.directed]
            + [pair[0] for pair in self.undirected]
        )


def phase1(
    schema: Schema,
    ci_backend,
    config: LearnConfig,
    *,
    stats: Counter | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[list[RelationalDependency], SepsetStore]:
    """Prune potential dependencies by increasing conditioning size.

    A dependency and its reverse are removed together as soon as any
    conditioning set drawn from the current cause candidates of the effect
    separates the pair; the witnessing set is recorded.
    """
    stats = stats if stats is not None else Counter()
    sepsets = SepsetStore()
    pds = potential_dependencies(schema, config.hop_threshold)
    neighbors: dict[RelationalVariable, set[RelationalVariable]] = {}
    for dep in pds:
        neighbors.setdefault(dep.effect, set()).add(dep.cause)
    order = list(pds)
    if rng is not None:
        rng.shuffle(order)
    live = set(pds)
    for size in range(config.depth + 1):
        for dep in order:
            if dep not in live:
                continue
            x, y = dep.cause, dep.effect
            pool = sorted(neighbors[y] - {x}, key=variable_key)
            if len(pool) < size:
                continue
            if rng is not None:
                rng.shuffle(pool)
            for combo in combinations(pool, size):
                cond = frozenset(combo)
                stats["phase1"] += 1
                if ci_backend.independent(CIQuery(y.perspective, x, y, cond)):
                    sepsets.record(x, y, cond)
                    rev = reverse_dependency(dep)
                    live.discard(dep)
                    live.discard(rev)
                    neighbors[y].discard(x)
                    neighbors.setdefault(rev.effect, set()).discard(rev.cause)
                    break
    return sorted(live, key=str), sepsets


def _orient_edge(agg_set: AggSet, agg, u: int, v: int, rule: str) -> bool:
    """Direct edge u -> v (node ids) by orienting every pair supporting it.

    The pairs all relate u's and v's attribute classes, and an acyclic
    model cannot direct two such pairs oppositely, so one conclusion
    orients them all.
    """
    changed = False
    cause_class = agg.nodes[u].attribute_class
    for pair in agg.pairs_of(u, v):
        if pair.cause.attribute_class == cause_class:
            dep = pair
        else:
            dep = reverse_dependency(pair)
        changed |= orient(agg_set, dep, rule=rule)
    return changed


def _triple_sepset(
    agg, sepsets, ci_backend, config, x, z, *, no_sepset, stats, label, rng
):
    """Stored or freshly searched separating set for endpoint ids x < z."""
    xv, zv = agg.nodes[x], agg.nodes[z]
    sep = sepsets.get(xv, zv)
    if sep is None:
        key = (agg.perspective, x, z)
        if key in no_sepset:
            return None
        # x and z are non-adjacent, so neither is in the other's neighbors
        pool = [agg.nodes[k] for k in agg.adjacency[x] | agg.adjacency[z]]
        sep = find_sepset(
            ci_backend,
            xv,
            zv,
            pool,
            config.depth,
            store=sepsets,
            stats=stats,
            label=label,
            rng=rng,
        )
        if sep is None:
            no_sepset.add(key)
    return sep


def collider_detection(
    agg_set: AggSet,
    sepsets: SepsetStore,
    ci_backend,
    config: LearnConfig,
    *,
    stats: Counter | None = None,
    rng: np.random.Generator | None = None,
) -> None:
    """Orient unshielded triples over distinct endpoint attribute classes."""
    _triple_pass(agg_set, sepsets, ci_backend, config, stats, rng, rbo=False)


def bivariate_orientation(
    agg_set: AggSet,
    sepsets: SepsetStore,
    ci_backend,
    config: LearnConfig,
    *,
    stats: Counter | None = None,
    rng: np.random.Generator | None = None,
) -> None:
    """Orient unshielded triples whose endpoints share an attribute class."""
    _triple_pass(agg_set, sepsets, ci_backend, config, stats, rng, rbo=True)


def _triple_pass(agg_set, sepsets, ci_backend, config, stats, rng, *, rbo: bool):
    """One orientation pass over the unshielded triples of every perspective.

    Collider detection (``rbo=False``) takes triples over distinct endpoint
    attribute classes and orients x -> y <- z when the endpoints separate
    without the middle. The bivariate rule (``rbo=True``) takes triples whose
    endpoints share an attribute class, the signature of relational
    autocorrelation: the middle variable is either a collider (endpoints
    separate without it) or, because a chain would force a cycle between the
    two attribute classes, a common cause (every separating set contains
    it). Both outcomes orient the underlying dependency; a chain never
    occurs in an acyclic model. The singleton form, anchored at a
    perspective's own attribute across a MANY reverse path, is the special
    case where one endpoint is the base variable.

    Pairs with no recorded separating set are searched afresh over the union
    of the endpoints' current neighbors; failures are remembered for the
    pass so a pair is scanned at most once.
    """
    rule, label = ("RBO", "phase2_rbo") if rbo else ("CD", "phase2_cd")
    no_sepset: set[tuple[str, int, int]] = set()
    perspectives = agg_set.perspectives()
    if rng is not None:
        rng.shuffle(perspectives)
    for perspective in perspectives:
        agg = agg_set.aggs[perspective]
        triples = unshielded_triples(agg)
        if rng is not None:
            rng.shuffle(triples)
        for x, y, z in triples:
            if (agg.nodes[x].attribute_class == agg.nodes[z].attribute_class) != rbo:
                continue
            if not (
                agg.edge_direction(x, y) is None or agg.edge_direction(z, y) is None
            ):
                continue
            sep = _triple_sepset(
                agg, sepsets, ci_backend, config, x, z,
                no_sepset=no_sepset, stats=stats, label=label, rng=rng,
            )
            if sep is None:
                continue
            if agg.nodes[y] not in sep:
                _orient_edge(agg_set, agg, x, y, rule)
                _orient_edge(agg_set, agg, z, y, rule)
            elif rbo:
                _orient_edge(agg_set, agg, y, x, rule)
                _orient_edge(agg_set, agg, y, z, rule)


def meek_rules(agg_set: AggSet) -> None:
    """Propagation rules to a fixpoint across all perspectives.

    KNC: x -> y - z with x, z non-adjacent orients y -> z.
    CA: x -> y -> z with x - z orients x -> z.
    MR3: x - y with x - z -> y, x - w -> y and z, w non-adjacent orients x -> y.
    """
    changed = True
    while changed:
        changed = False
        for perspective in agg_set.perspectives():
            agg = agg_set.aggs[perspective]
            changed |= _knc_pass(agg_set, agg)
            changed |= _ca_pass(agg_set, agg)
            changed |= _mr3_pass(agg_set, agg)


def _directed_parents(agg, y):
    return [
        nb for nb in sorted(agg.adjacency[y]) if agg.edge_direction(nb, y) == (nb, y)
    ]


def _undirected_neighbors(agg, y):
    return [
        nb for nb in sorted(agg.adjacency[y]) if agg.edge_direction(nb, y) is None
    ]


def _knc_pass(agg_set: AggSet, agg) -> bool:
    changed = False
    for y in range(len(agg.nodes)):
        parents = _directed_parents(agg, y)
        if not parents:
            continue
        for z in _undirected_neighbors(agg, y):
            if any(x != z and not agg.is_adjacent(x, z) for x in parents):
                changed |= _orient_edge(agg_set, agg, y, z, "KNC")
    return changed


def _ca_pass(agg_set: AggSet, agg) -> bool:
    changed = False
    for x in range(len(agg.nodes)):
        for z in _undirected_neighbors(agg, x):
            # directed path x -> v -> z with v adjacent to both
            for v in sorted(agg.adjacency[x] & agg.adjacency[z]):
                if agg.edge_direction(x, v) == (x, v) and agg.edge_direction(
                    v, z
                ) == (v, z):
                    changed |= _orient_edge(agg_set, agg, x, z, "CA")
                    break
    return changed


def _mr3_pass(agg_set: AggSet, agg) -> bool:
    changed = False
    for x in range(len(agg.nodes)):
        undirected = _undirected_neighbors(agg, x)
        for y in undirected:
            into_y = [
                v
                for v in undirected
                if v != y
                and agg.is_adjacent(v, y)
                and agg.edge_direction(v, y) == (v, y)
            ]
            done = False
            for i, z in enumerate(into_y):
                for w in into_y[i + 1 :]:
                    if not agg.is_adjacent(z, w):
                        changed |= _orient_edge(agg_set, agg, x, y, "MR3")
                        done = True
                        break
                if done:
                    break
    return changed


def rcd_learn(schema: Schema, ci_backend, config: LearnConfig) -> LearnedPattern:
    """Full run: prune, lift at twice the hop threshold, orient, extract."""
    stats: Counter = Counter()
    rng = (
        np.random.default_rng(config.seed) if config.order_randomization else None
    )
    pds, sepsets = phase1(schema, ci_backend, config, stats=stats, rng=rng)
    agg_set = build_all(pds, schema, 2 * config.hop_threshold)
    args = dict(stats=stats, rng=rng)
    if config.rbo_order == "rbo_first":
        bivariate_orientation(agg_set, sepsets, ci_backend, config, **args)
        collider_detection(agg_set, sepsets, ci_backend, config, **args)
        meek_rules(agg_set)
    elif config.rbo_order == "rbo_last":
        collider_detection(agg_set, sepsets, ci_backend, config, **args)
        meek_rules(agg_set)
        bivariate_orientation(agg_set, sepsets, ci_backend, config, **args)
        meek_rules(agg_set)
    else:
        collider_detection(agg_set, sepsets, ci_backend, config, **args)
        bivariate_orientation(agg_set, sepsets, ci_backend, config, **args)
        meek_rules(agg_set)
    directed = []
    undirected = []
    for pair in sorted(agg_set.registry, key=str):
        oriented = agg_set.registry[pair]
        if oriented is None:
            undirected.append((pair, reverse_dependency(pair)))
        else:
            directed.append(oriented)
    return LearnedPattern(
        schema=schema,
        directed=tuple(sorted(directed, key=str)),
        undirected=tuple(sorted(undirected, key=lambda p: str(p[0]))),
        stats=stats,
        attribution=dict(agg_set.attribution),
        conflicts=tuple(agg_set.conflicts),
    )


def majority_vote(
    schema: Schema,
    ci_backend,
    config: LearnConfig,
    runs: int = 100,
    threshold: float = 2 / 3,
) -> LearnedPattern:
    """Vote edge presence and orientation over order-permuted runs.

    Each run re-learns under a derived seed with randomized iteration
    orders. An edge survives when present in at least ``threshold`` of the
    runs; it is directed when a single direction reaches the threshold
    among the runs that kept it.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    seeds = np.random.default_rng(config.seed).integers(0, 2**63, size=runs)
    presence: Counter = Counter()
    direction: Counter = Counter()
    rule_votes: dict[RelationalDependency, Counter] = {}
    stats: Counter = Counter()
    conflicts: list[str] = []
    for run_seed in seeds:
        run_config = replace(
            config, seed=int(run_seed), order_randomization=True
        )
        pattern = rcd_learn(schema, ci_backend, run_config)
        stats.update(pattern.stats)
        conflicts.extend(pattern.conflicts)
        for pair in pattern.pairs():
            presence[pair] += 1
        for dep in pattern.directed:
            direction[dep] += 1
            pair = canonical_pair(dep)
            rule_votes.setdefault(pair, Counter())[
                pattern.attribution.get(pair, "CD")
            ] += 1
    eps = 1e-9
    directed = []
    undirected = []
    attribution: dict[RelationalDependency, str] = {}
    for pair, count in presence.items():
        if count / runs + eps < threshold:
            continue
        rev = reverse_dependency(pair)
        winners = [
            d for d in (pair, rev) if direction.get(d, 0) / count + eps >= threshold
        ]
        if len(winners) == 1:
            directed.append(winners[0])
            votes = rule_votes.get(pair, Counter())
            if votes:
                attribution[pair] = sorted(
                    votes.items(), key=lambda kv: (-kv[1], kv[0])
                )[0][0]
        else:
            undirected.append((pair, rev))
    return LearnedPattern(
        schema=schema,
        directed=tuple(sorted(directed, key=str)),
        undirected=tuple(sorted(undirected, key=lambda p: str(p[0]))),
        stats=stats,
        attribution=attribution,
        conflicts=tuple(conflicts),
    )


def pattern_to_dict(pattern: LearnedPattern) -> dict:
    deps = []
    for dep in pattern.directed:
        pair = canonical_pair(dep)
        deps.append(
            {
                "dependency": str(dep),
                "status": "directed",
                "rule": pattern.attribution.get(pair, ""),
            }
        )
    for pair, _rev in pattern.undirected:
        deps.append({"dependency": str(pair), "status": "undirected", "rule": ""})
    deps.sort(key=lambda d: d["dependency"])
    return {
        "dependencies": deps,
        "conflicts": list(pattern.conflicts),
        "stats": {
            "ci_tests": dict(sorted(pattern.stats.items())),
            "rule_counts": pattern.rule_counts,
        },
    }
