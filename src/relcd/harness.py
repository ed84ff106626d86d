"""Synthetic benchmark driver, scoring, and verification oracles.

Trials draw a random schema and model per cell of a (num_entities,
num_deps) grid, learn with the exact oracle backend, and score the learned
pattern against the truth. Results aggregate into one CSV row per cell.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import networkx as nx
import numpy as np

from .ci import OracleCI
from .errors import Infeasible
from .model import (
    RelationalModel,
    canonical_pair,
    random_model,
)
from .rcd import RULES, LearnConfig, LearnedPattern, rcd_learn
from .schema import Schema, random_schema


@dataclass(frozen=True)
class TrialConfig:
    entities: tuple[int, ...] = (1, 2, 3, 4)
    deps: tuple[int, ...] = (1, 5, 10, 15)
    trials: int = 100
    hop_threshold: int = 4
    oracle_hops: int = 8
    depth: int = 3
    seed: int = 0


@dataclass(frozen=True)
class TrialMetrics:
    skeleton_precision: float
    skeleton_recall: float
    oriented_precision: float
    oriented_recall: float
    rule_counts: dict[str, int]
    ci_tests: int


def score(learned: LearnedPattern, truth: RelationalModel) -> TrialMetrics:
    """Precision/recall of the learned skeleton and of its directed part.

    Oriented precision is 1.0 when nothing was directed.
    """
    if learned.schema != truth.schema:
        raise ValueError("learned pattern and truth use different schemas")
    learned_pairs = learned.pairs()
    truth_pairs = {canonical_pair(d) for d in truth.dependencies}
    true_deps = set(truth.dependencies)
    tp = len(learned_pairs & truth_pairs)
    correct = sum(1 for d in learned.directed if d in true_deps)
    n_directed = len(learned.directed)
    return TrialMetrics(
        skeleton_precision=tp / len(learned_pairs) if learned_pairs else 1.0,
        skeleton_recall=tp / len(truth_pairs) if truth_pairs else 1.0,
        oriented_precision=correct / n_directed if n_directed else 1.0,
        oriented_recall=correct / len(true_deps) if true_deps else 1.0,
        rule_counts=learned.rule_counts,
        ci_tests=learned.stats.total(),
    )


def generate_case(
    num_entities: int,
    num_deps: int,
    hop_threshold: int,
    seed_seq: np.random.SeedSequence,
    max_attempts: int = 50_000,
) -> tuple[Schema, RelationalModel]:
    """Draw (schema, model) pairs until the dependency count is placeable.

    Small schemas often cannot host many dependencies (a single entity
    needs enough attributes), so infeasible draws are discarded and
    resampled; the trial distribution is conditioned on feasibility.
    """
    rng = np.random.default_rng(seed_seq)
    for _ in range(max_attempts):
        s_seed, m_seed = (int(v) for v in rng.integers(0, 2**63, size=2))
        schema = random_schema(s_seed, num_entities)
        if num_entities == 1:
            # exact capacity of an acyclic, parent-capped single class
            m = len(schema.entities[0].attributes)
            if sum(min(i, 3) for i in range(m)) < num_deps:
                continue
        try:
            model = random_model(
                schema,
                num_deps,
                hop_threshold=hop_threshold,
                max_parents=3,
                seed=m_seed,
                restarts=300,
            )
        except Infeasible:
            continue
        return schema, model
    raise Infeasible(
        f"no feasible (schema, model) pair for {num_entities} entities, "
        f"{num_deps} dependencies after {max_attempts} attempts"
    )


def _run_oracle_trial(payload: tuple) -> dict:
    config, learn_config, num_entities, num_deps, trial_idx = payload
    seq = np.random.SeedSequence(
        entropy=config.seed, spawn_key=(num_entities, num_deps, trial_idx)
    )
    schema, truth = generate_case(num_entities, num_deps, config.hop_threshold, seq)
    backend = OracleCI(truth, hops=config.oracle_hops)
    learned = rcd_learn(schema, backend, learn_config)
    metrics = score(learned, truth)
    return {
        "entities": num_entities,
        "deps": num_deps,
        "trial": trial_idx,
        "skel_p": metrics.skeleton_precision,
        "skel_r": metrics.skeleton_recall,
        "orient_p": metrics.oriented_precision,
        "orient_r": metrics.oriented_recall,
        "rule_counts": metrics.rule_counts,
        "directed": len(learned.directed),
        "ci_tests": metrics.ci_tests,
    }


def run_trials(
    config: TrialConfig,
    rbo_order: str = "rbo_after_cd",
    workers: int = 1,
) -> tuple[list[dict], list[str]]:
    """All per-trial results for the grid, plus notes for skipped cells.

    Trials are independent with derived seeds; the result order is fixed by
    (entities, deps, trial) regardless of scheduling. ``rbo_order`` is
    validated, through the learner's config, before any trial runs.
    """
    learn_config = LearnConfig(
        hop_threshold=config.hop_threshold, depth=config.depth, rbo_order=rbo_order
    )
    payloads = [
        (config, learn_config, e, d, t)
        for e in config.entities
        for d in config.deps
        for t in range(config.trials)
    ]
    notes: list[str] = []
    results: list[dict] = []
    skipped_cells: set[tuple[int, int]] = set()

    def _collect(payload, outcome):
        if isinstance(outcome, Infeasible):
            cell = (payload[2], payload[3])
            if cell not in skipped_cells:
                skipped_cells.add(cell)
                notes.append(f"cell {cell} skipped: {outcome}")
        else:
            results.append(outcome)

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = pool.map(_guarded_trial, payloads, chunksize=4)
            for payload, outcome in zip(payloads, outcomes):
                _collect(payload, outcome)
    else:
        for payload in payloads:
            _collect(payload, _guarded_trial(payload))
    results.sort(key=lambda r: (r["entities"], r["deps"], r["trial"]))
    results = [
        r for r in results if (r["entities"], r["deps"]) not in skipped_cells
    ]
    return results, notes


def _guarded_trial(payload: tuple):
    try:
        return _run_oracle_trial(payload)
    except Infeasible as exc:
        return exc


def _sem(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))


def aggregate_cells(results: list[dict]) -> list[dict]:
    """Collapse per-trial rows into one row per (entities, deps) cell."""
    cells: dict[tuple[int, int], list[dict]] = {}
    for row in results:
        cells.setdefault((row["entities"], row["deps"]), []).append(row)
    out = []
    for (e, d), rows in sorted(cells.items()):
        directed_total = sum(r["directed"] for r in rows)
        rule_totals = Counter()
        for r in rows:
            rule_totals.update(r["rule_counts"])
        cell = {
            "entities": e,
            "deps": d,
            "trials": len(rows),
            "skel_p": float(np.mean([r["skel_p"] for r in rows])),
            "skel_r": float(np.mean([r["skel_r"] for r in rows])),
            "orient_p": float(np.mean([r["orient_p"] for r in rows])),
            "orient_r": float(np.mean([r["orient_r"] for r in rows])),
            "se_skel_p": _sem([r["skel_p"] for r in rows]),
            "se_skel_r": _sem([r["skel_r"] for r in rows]),
            "se_orient_p": _sem([r["orient_p"] for r in rows]),
            "se_orient_r": _sem([r["orient_r"] for r in rows]),
            "mean_ci_tests": float(np.mean([r["ci_tests"] for r in rows])),
            "directed_total": directed_total,
        }
        for rule in RULES:
            cell[f"share_{rule.lower()}"] = (
                rule_totals.get(rule, 0) / directed_total if directed_total else 0.0
            )
        out.append(cell)
    return out


BENCH_COLUMNS = (
    "entities",
    "deps",
    "trials",
    "skel_p",
    "skel_r",
    "orient_p",
    "orient_r",
    "se_skel_p",
    "se_skel_r",
    "se_orient_p",
    "se_orient_r",
    "share_cd",
    "share_rbo",
    "share_knc",
    "share_ca",
    "share_mr3",
    "mean_ci_tests",
)


PROFILE_COLUMNS = (
    "entities",
    "deps",
    "trials",
    "directed_total",
    "share_cd",
    "share_rbo",
    "share_knc",
    "share_ca",
    "share_mr3",
)


def bench_to_csv(cells: list[dict], columns: tuple[str, ...] = BENCH_COLUMNS) -> str:
    """One CSV row per cell over ``columns``.

    BENCH_COLUMNS give the metrics report, PROFILE_COLUMNS the rule
    activation profile.
    """
    lines = [",".join(columns)]
    for cell in cells:
        parts = []
        for col in columns:
            value = cell[col]
            parts.append(str(value) if isinstance(value, int) else f"{value:.6f}")
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def run_bench(
    config: TrialConfig,
    rbo_order: str = "rbo_after_cd",
    workers: int = 1,
) -> tuple[list[dict], list[str]]:
    """Aggregated metrics per cell; see bench_to_csv for the report forms.

    ``rbo_order`` is the rule ordering under study: rbo_first applies the
    bivariate rule before collider detection, rbo_last holds it until all
    other rules have settled.
    """
    results, notes = run_trials(config, rbo_order=rbo_order, workers=workers)
    return aggregate_cells(results), notes


@lru_cache(maxsize=8)
def _propositional_dag_classes(variables: tuple[str, ...]):
    """All DAGs over the variables, grouped by their d-separation facts."""
    pairs = list(combinations(variables, 2))
    queries = []
    for a, b in pairs:
        rest = [v for v in variables if v not in (a, b)]
        for size in range(len(rest) + 1):
            for z in combinations(rest, size):
                queries.append((a, b, frozenset(z)))
    classes: dict[frozenset, list[frozenset]] = {}
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (a, b), kind in zip(pairs, assignment):
            if kind == 1:
                edges.append((a, b))
            elif kind == 2:
                edges.append((b, a))
        g = nx.DiGraph()
        g.add_nodes_from(variables)
        g.add_edges_from(edges)
        if not nx.is_directed_acyclic_graph(g):
            continue
        facts = frozenset(
            (a, b, z) for a, b, z in queries if nx.is_d_separator(g, {a}, {b}, set(z))
        )
        classes.setdefault(facts, []).append(frozenset(edges))
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
    g = nx.DiGraph()
    g.add_nodes_from(variables)
    g.add_edges_from(true_edges)
    queries = []
    for a, b in combinations(variables, 2):
        rest = [v for v in variables if v not in (a, b)]
        for size in range(len(rest) + 1):
            for z in combinations(rest, size):
                queries.append((a, b, frozenset(z)))
    facts = frozenset(
        (a, b, z) for a, b, z in queries if nx.is_d_separator(g, {a}, {b}, set(z))
    )
    members = _propositional_dag_classes(variables)[facts]
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
        for pair, _rev in learned.undirected
    )
    return {"directed": directed, "undirected": undirected}
