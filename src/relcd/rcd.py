"""Two-phase constraint-based learner for relational causal models.

Phase I prunes the potential dependencies with conditional-independence
tests of growing conditioning size, walking a read-only learn plan built
once per (schema, hop threshold) and shared by a vote's runs. Phase II lifts
the survivors into per-perspective graphs and orients them. Collider
detection and bivariate orientation across MANY-cardinality paths are one
test on lifted unshielded triples, run as two passes that split the triples
by whether the endpoints share an attribute class. A backend that declares
``exact`` (the oracle) is asked only of the triples with a base endpoint,
an attribute of the perspective's own item class: at the default depth
those orient what every triple does. On data that restriction changes the
learned pattern, so every other backend is asked of every triple. The
non-collider / cycle-avoidance / double-parent propagation rules then run
to a fixpoint.
Each orientation is registered once and directs its edges in every
perspective's graph. A run returns the pattern, its CI-test counts per
label, the rule that oriented each pair and the conflicts it refused.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .agg import AggSet, bits, build_all, node_table, orient, unshielded_triples
from .ci import find_sepset
from .model import RelationalDependency, reverse_dependency
from .paths import RelationalPath
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.rbo_order not in ("rbo_after_cd", "rbo_first", "rbo_last"):
            raise ValueError(f"unknown rbo_order {self.rbo_order!r}")


@dataclass(frozen=True)
class LearnedPattern:
    """A learned pattern: each canonical pair and its orientation.

    ``orientation`` maps every learned pair to the direction it was
    oriented in, or to None while it stays undirected; ``directed`` and
    ``undirected`` list the two kinds, each sorted by text.
    """

    schema: Schema
    orientation: dict[RelationalDependency, RelationalDependency | None]
    stats: Counter  # CI tests per label
    attribution: dict[RelationalDependency, str]
    conflicts: tuple[str, ...]

    @property
    def directed(self) -> tuple[RelationalDependency, ...]:
        return tuple(
            sorted((d for d in self.orientation.values() if d is not None), key=str)
        )

    @property
    def undirected(self) -> tuple[RelationalDependency, ...]:
        return tuple(
            sorted((p for p, d in self.orientation.items() if d is None), key=str)
        )

    @property
    def rule_counts(self) -> dict[str, int]:
        """Directed pairs per orientation rule, for every rule in ``RULES``."""
        counts = Counter(self.attribution.values())
        return {rule: counts[rule] for rule in RULES}

    def pairs(self) -> frozenset[RelationalDependency]:
        """Canonical pair representatives of every learned dependency."""
        return frozenset(self.orientation)


@dataclass(frozen=True)
class LearnPlan:
    """What phase I derives from a schema and hop threshold alone.

    Row i of ``rows`` names the i-th potential dependency in text order
    (the order of ``model.potential_dependencies``) by ids in its
    perspective's ``node_table`` at twice the hop threshold: (perspective,
    cause id, effect id, reverse's row). ``causes`` maps each (perspective,
    effect id) to the id mask of the causes the rows give it.
    ``learn_plan`` shares plans, so all of it is read-only; a plan holds no
    table and no variable, so ``node_table`` stays the one owner of the
    tables that queries name, and of the variables a run returns.
    """

    rows: tuple[tuple[str, int, int, int], ...]
    causes: MappingProxyType[tuple[str, int], int]


@lru_cache(maxsize=1)
def learn_plan(schema: Schema, hop_threshold: int) -> LearnPlan:
    """The ``LearnPlan`` of a schema and hop threshold, built once.

    Rows are found by id in the tables' path trees. A cause path within the
    hop threshold keeps its path id in its perspective's tree at twice the
    threshold (ids follow (length, items) order), and (path id, attribute)
    gives the cause's node id. The reverse dependency's cause path is the
    reversed path, walked once per path in the tree of the class where the
    path ends. The rows are sorted by their dependencies' texts, each built
    from its path's text, made once per path. No variable or dependency is
    built: phase I makes its survivors from the tables' variables. Only the
    last plan is kept: callers that learn one schema again do so back to
    back (a vote's runs), and a plan holds every potential dependency, so
    more plans would hold memory that no caller reads again.
    """
    hops = 2 * hop_threshold
    tables = {p: node_table(schema, p, hops) for p in schema.item_classes}
    # (text, perspective, cause id, effect id, the reverse's perspective and ids)
    keyed = []
    for item, table in tables.items():
        node_ids = table.node_ids
        effects = [(attr, y, f" -> {table.nodes[y]}") for attr, y in node_ids[0].items()]
        for k, items in enumerate(table.tree.items):
            if len(items) > hop_threshold + 1:
                break
            last = items[-1]
            reverse_ids = tables[last].node_ids
            reverse_k = tables[last].tree.walk(0, items[-2::-1])
            path_text = str(RelationalPath(items))
            for cause_attr, x in node_ids[k].items():
                head = f"{path_text}.{cause_attr}"
                reverse_y = reverse_ids[0][cause_attr]
                for effect_attr, y, tail in effects:
                    if last == item and cause_attr == effect_attr:
                        continue  # one attribute class
                    keyed.append((
                        head + tail, item, x, y,
                        last, reverse_ids[reverse_k][effect_attr], reverse_y,
                    ))
    keyed.sort()
    position = {(p, x, y): i for i, (_, p, x, y, *_) in enumerate(keyed)}
    rows = tuple((p, x, y, position[(q, rx, ry)]) for _, p, x, y, q, rx, ry in keyed)
    causes: dict[tuple[str, int], int] = {}
    for p, x, y, _ in rows:
        causes[(p, y)] = causes.get((p, y), 0) | 1 << x
    return LearnPlan(rows, MappingProxyType(causes))


def phase1(
    schema: Schema,
    ci_backend,
    config: LearnConfig,
    *,
    stats: Counter | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[list[RelationalDependency], dict]:
    """Prune potential dependencies by increasing conditioning size.

    A dependency and its reverse are removed together as soon as any
    conditioning set drawn from the current cause candidates of the effect
    separates the pair; the witnessing set (an id mask) is recorded, keyed
    (perspective, low id, high id). The run walks the shared ``learn_plan``
    of the schema and hop threshold: one row of ids per potential
    dependency, in text order, naming its reverse's row, and the starting
    cause masks, which the run copies before it prunes them. Queries name
    variables by id in the tables ``node_table`` holds at twice the hop
    threshold, looked up anew on every run: phase II lifts on them, and an
    oracle at those hops walks graphs that share their nodes, so it
    translates no id. The survivors come back in text order, made of the
    tables' variables.
    """
    sepsets: dict[tuple[str, int, int], int | None] = {}
    plan = learn_plan(schema, config.hop_threshold)
    hops = 2 * config.hop_threshold
    tables = {p: node_table(schema, p, hops) for p in schema.item_classes}
    rows = plan.rows
    causes = dict(plan.causes)
    live = [True] * len(rows)
    order = list(range(len(rows)))
    if rng is not None:
        rng.shuffle(order)
    for size in range(config.depth + 1):
        for i in order:
            if not live[i]:
                continue
            perspective, x, y, rev = rows[i]
            sep = find_sepset(
                ci_backend, tables[perspective], x, y, causes[(perspective, y)],
                range(size, size + 1), stats=stats, label="phase1", rng=rng,
            )
            if sep is not None:
                sepsets[(perspective, min(x, y), max(x, y))] = sep
                live[i] = live[rev] = False
                for p, cause, effect, _ in (rows[i], rows[rev]):
                    causes[(p, effect)] &= ~(1 << cause)
    survivors = [
        RelationalDependency(tables[p].nodes[x], tables[p].nodes[y])
        for (p, x, y, _), alive in zip(rows, live)
        if alive
    ]
    return survivors, sepsets


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


def collider_detection(
    agg_set: AggSet,
    sepsets: dict,
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
    sepsets: dict,
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

    A backend with ``exact`` set (``OracleCI``) is asked only of the triples
    whose x is a base variable, one of the perspective's own attributes, as
    RCD-Light orients from tests that involve canonical variables (Lee &
    Honavar, AAAI 2016). With exact verdicts at the default depth, that
    learns the pattern every triple learns from about a fifteenth of the
    collider-detection queries. On data the verdicts can be wrong, and the
    restriction moves the pattern (on data-vote, oriented precision falls
    and recall rises), so any other backend is still asked of every triple.

    Pairs absent from the ``sepsets`` record are searched afresh as in PC:
    first among subsets of x's current neighbors, then, if none separates,
    among subsets of z's. The result, an id mask or None, is recorded, so a
    pair is searched once. The two passes take disjoint endpoint pairs, so
    neither reads a failure the other recorded.
    """
    rule, label = ("RBO", "phase2_rbo") if rbo else ("CD", "phase2_cd")
    canonical = getattr(ci_backend, "exact", False)
    perspectives = agg_set.perspectives()
    if rng is not None:
        rng.shuffle(perspectives)
    for perspective in perspectives:
        agg = agg_set.aggs[perspective]
        triples = unshielded_triples(agg, canonical)
        if rng is not None:
            rng.shuffle(triples)
        for x, y, z in triples:
            a, b = agg.nodes[x], agg.nodes[z]
            if (a.attribute == b.attribute and a.path.last == b.path.last) != rbo:
                continue
            directed = agg.parents[y] | agg.children[y]
            if directed >> x & 1 and directed >> z & 1:
                continue
            key = (perspective, x, z)  # x < z, as unshielded_triples emits
            if key not in sepsets:
                # x and z are non-adjacent, so neither is in the other's neighbors
                for end in (x, z):
                    sep = find_sepset(
                        ci_backend, agg, x, z, agg.adjacency[end],
                        range(config.depth + 1),
                        stats=stats, label=label, rng=rng,
                    )
                    if sep is not None:
                        break
                sepsets[key] = sep
            sep = sepsets[key]
            if sep is None:
                continue
            if not sep >> y & 1:
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


def _undirected(agg, y: int) -> int:
    """The id mask of y's neighbours joined to it by undirected edges."""
    return agg.adjacency[y] & ~(agg.parents[y] | agg.children[y])


def _knc_pass(agg_set: AggSet, agg) -> bool:
    changed = False
    for y in range(len(agg.nodes)):
        parents = agg.parents[y]
        if not parents:
            continue
        for z in bits(_undirected(agg, y)):
            if parents & ~agg.adjacency[z] & ~(1 << z):
                changed |= _orient_edge(agg_set, agg, y, z, "KNC")
    return changed


def _ca_pass(agg_set: AggSet, agg) -> bool:
    changed = False
    for x in range(len(agg.nodes)):
        for z in bits(_undirected(agg, x)):
            # a directed path x -> v -> z
            if agg.children[x] & agg.parents[z]:
                changed |= _orient_edge(agg_set, agg, x, z, "CA")
    return changed


def _mr3_pass(agg_set: AggSet, agg) -> bool:
    changed = False
    for x in range(len(agg.nodes)):
        undirected = _undirected(agg, x)
        for y in bits(undirected):
            into_y = undirected & agg.parents[y]
            if any(into_y & ~agg.adjacency[z] & ~(1 << z) for z in bits(into_y)):
                changed |= _orient_edge(agg_set, agg, x, y, "MR3")
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
    return LearnedPattern(
        schema=schema,
        orientation=dict(agg_set.registry),
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
    among the runs that kept it, and credited to the rule named most often
    by the runs that oriented it that way (ties to the first name).
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    seeds = np.random.default_rng(config.seed).integers(0, 2**63, size=runs)
    presence: Counter = Counter()
    # oriented dependency -> the rules of the runs that oriented it so
    rule_votes: defaultdict[RelationalDependency, Counter] = defaultdict(Counter)
    stats: Counter = Counter()
    conflicts: list[str] = []
    for run_seed in seeds:
        run_config = replace(
            config, seed=int(run_seed), order_randomization=True
        )
        pattern = rcd_learn(schema, ci_backend, run_config)
        stats.update(pattern.stats)
        conflicts.extend(pattern.conflicts)
        for pair, dep in pattern.orientation.items():
            presence[pair] += 1
            if dep is not None:
                rule_votes[dep][pattern.attribution[pair]] += 1
    eps = 1e-9
    orientation: dict[RelationalDependency, RelationalDependency | None] = {}
    attribution: dict[RelationalDependency, str] = {}
    for pair, count in presence.items():
        if count / runs + eps < threshold:
            continue
        rev = reverse_dependency(pair)
        winners = [
            d for d in (pair, rev) if rule_votes[d].total() / count + eps >= threshold
        ]
        orientation[pair] = None
        if len(winners) == 1:
            orientation[pair] = winners[0]
            attribution[pair] = sorted(
                rule_votes[winners[0]].items(), key=lambda kv: (-kv[1], kv[0])
            )[0][0]
    return LearnedPattern(
        schema=schema,
        orientation=orientation,
        stats=stats,
        attribution=attribution,
        conflicts=tuple(conflicts),
    )


def pattern_to_dict(pattern: LearnedPattern) -> dict:
    deps = [
        {
            "dependency": str(pair if dep is None else dep),
            "status": "undirected" if dep is None else "directed",
            "rule": pattern.attribution.get(pair, ""),
        }
        for pair, dep in pattern.orientation.items()
    ]
    deps.sort(key=lambda d: d["dependency"])
    return {
        "dependencies": deps,
        "conflicts": list(pattern.conflicts),
        "stats": {
            "ci_tests": dict(sorted(pattern.stats.items())),
            "rule_counts": pattern.rule_counts,
        },
    }
