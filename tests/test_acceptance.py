"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all). Tolerances are fixed here, not tuned at runtime.
"""

import json
import time
from itertools import product

import numpy as np
import pytest

from relcd.agg import build_all, orient, unshielded_triples
from relcd.ci import OracleCI, RegressionCI, oriented_agg
from relcd.cli import main as cli_main
from relcd.errors import Infeasible
from relcd.harness import TrialConfig, run_bench, run_trials
from relcd.model import (
    RelationalDependency,
    RelationalModel,
    RelationalVariable,
    canonical_pair,
    model_to_json,
    random_model,
    reverse_dependency,
)
from relcd.paths import RelationalPath
from relcd.rcd import LearnConfig, majority_vote, rcd_learn
from relcd.schema import Cardinality, random_schema, schema_to_json
from relcd.skeleton import ground_graph, random_skeleton, sample_data
from tests.conftest import as_variables, propositional_model, single_entity_schema
from tests.reference import (
    brute_force_pattern,
    dags,
    dsep_ground,
    propositional_pattern,
    terminal_set,
)

pytestmark = pytest.mark.acceptance

WORKERS = 2


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_movie_worked_example(movie_truth):
    started = time.perf_counter()
    actor = oriented_agg(movie_truth, "ACTOR", 4)
    movie = oriented_agg(movie_truth, "MOVIE", 4)
    actor_nodes = {str(v) for v in actor.nodes}
    movie_nodes = {str(v) for v in movie.nodes}
    actor_edges = {(str(a), str(b)) for a, b, d in actor.edges() if d}
    movie_edges = {(str(a), str(b)) for a, b, d in movie.edges() if d}
    nodes_ok = actor_nodes == {
        "[ACTOR].Popularity",
        "[ACTOR, STARS-IN, MOVIE].Success",
        "[ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR].Popularity",
    } and movie_nodes == {
        "[MOVIE].Success",
        "[MOVIE, STARS-IN, ACTOR].Popularity",
        "[MOVIE, STARS-IN, ACTOR, STARS-IN, MOVIE].Success",
    }
    edges_ok = actor_edges == {
        ("[ACTOR].Popularity", "[ACTOR, STARS-IN, MOVIE].Success"),
        (
            "[ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR].Popularity",
            "[ACTOR, STARS-IN, MOVIE].Success",
        ),
    } and movie_edges == {
        ("[MOVIE, STARS-IN, ACTOR].Popularity", "[MOVIE].Success"),
        (
            "[MOVIE, STARS-IN, ACTOR].Popularity",
            "[MOVIE, STARS-IN, ACTOR, STARS-IN, MOVIE].Success",
        ),
    }
    pattern = rcd_learn(movie_truth.schema, OracleCI(movie_truth, 8), LearnConfig())
    learn_ok = [str(d) for d in pattern.directed] == [
        "[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE].Success"
    ] and pattern.undirected == ()
    elapsed = time.perf_counter() - started
    ok = nodes_ok and edges_ok and learn_ok and elapsed < 1.0
    assert report(
        1,
        ok,
        f"lifted graphs exact={nodes_ok and edges_ok}, "
        f"single dependency directed={learn_ok}, {elapsed:.3f}s",
    )


def test_criterion_2_oracle_soundness_grid():
    started = time.perf_counter()
    config = TrialConfig(
        entities=(1, 2, 3, 4),
        deps=(1, 5, 10, 15),
        trials=100,
        hop_threshold=4,
        oracle_hops=8,
        depth=3,
        seed=2024,
    )
    results, notes = run_trials(config, workers=WORKERS)
    cells = {(r["entities"], r["deps"]) for r in results}
    complete = len(cells) == 16 and len(results) == 1600 and not notes
    bad = [
        r
        for r in results
        if r["orient_p"] != 1.0 or r["skel_p"] != 1.0 or r["skel_r"] != 1.0
    ]
    elapsed = time.perf_counter() - started
    ok = complete and not bad
    assert report(
        2,
        ok,
        f"{len(results)} trials over {len(cells)} cells, "
        f"{len(bad)} imperfect trials, notes={notes}, {elapsed:.0f}s "
        f"(target 600s)",
    )


def test_criterion_3_oriented_recall_extremes():
    config_low = TrialConfig(entities=(2,), deps=(1,), trials=200, seed=31)
    config_high = TrialConfig(entities=(4,), deps=(15,), trials=200, seed=32)
    low, _ = run_trials(config_low, workers=WORKERS)
    high, _ = run_trials(config_high, workers=WORKERS)
    low_recall = float(np.mean([r["orient_r"] for r in low]))
    high_recall = float(np.mean([r["orient_r"] for r in high]))
    low_ok = 0.46 <= low_recall <= 0.66
    high_ok = 0.89 <= high_recall <= 0.99
    assert report(
        3,
        low_ok and high_ok,
        f"(2 entities, 1 dep) recall={low_recall:.3f} in 0.56+-0.10: {low_ok}; "
        f"(4 entities, 15 deps) recall={high_recall:.3f} in 0.94+-0.05: {high_ok}",
    )


def test_criterion_4_rbo_activation_profile():
    config = TrialConfig(trials=40, seed=41)
    first, _ = run_bench(config, rbo_order="rbo_first", workers=WORKERS)
    last, _ = run_bench(config, rbo_order="rbo_last", workers=WORKERS)
    single_zero = all(
        c["share_rbo"] == 0.0 for c in first + last if c["entities"] == 1
    )
    first_multi = [c["share_rbo"] for c in first if c["entities"] >= 2]
    last_multi = [c["share_rbo"] for c in last if c["entities"] >= 2]
    first_ok = float(np.mean(first_multi)) >= 0.5
    last_ok = all(share > 0.0 for share in last_multi)
    ok = single_zero and first_ok and last_ok
    assert report(
        4,
        ok,
        f"single-entity share 0: {single_zero}; rbo_first mean "
        f"{np.mean(first_multi):.3f} >= 0.5: {first_ok}; rbo_last min "
        f"{min(last_multi):.3f} > 0: {last_ok}",
    )


def test_criterion_5_propositional_completeness():
    started = time.perf_counter()
    mismatches = 0
    total = 0
    for m in (1, 2, 3, 4):
        variables = tuple(f"X{i}" for i in range(m))
        schema = single_entity_schema(*variables)
        for edges in dags(variables):
            total += 1
            truth = propositional_model(schema, edges)
            learned = rcd_learn(schema, OracleCI(truth, 8), LearnConfig())
            if propositional_pattern(learned) != brute_force_pattern(schema, truth):
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    assert report(
        5,
        ok,
        f"{total} DAGs on <=4 variables, {mismatches} mismatches, {elapsed:.1f}s",
    )


def _collider_fingerprint(pairs, schema, hops, direction_map):
    """Per-perspective unshielded-collider sets under one orientation choice.

    Two orientations of the same skeleton answer every separation query
    identically iff these sets match graph by graph.
    """
    deps = [d for pair in pairs for d in (pair, reverse_dependency(pair))]
    agg_set = build_all(deps, schema, hops)
    for oriented in direction_map.values():
        orient(agg_set, oriented, rule="given")
    fingerprint = []
    for perspective in agg_set.perspectives():
        agg = agg_set.aggs[perspective]
        fingerprint.append(
            frozenset(
                (x, y, z)
                for (x, y, z) in unshielded_triples(agg)
                if agg.edge_direction(x, y) == (x, y)
                and agg.edge_direction(z, y) == (z, y)
            )
        )
    return tuple(fingerprint)


def test_criterion_6_relational_maximality():
    rng = np.random.default_rng(61)
    violations = []
    undirected_checked = 0
    for trial in range(50):
        while True:
            s_seed, m_seed = (int(v) for v in rng.integers(0, 2**63, size=2))
            schema = random_schema(s_seed, 2)
            try:
                truth = random_model(schema, 1 + trial % 3, seed=m_seed, restarts=50)
                break
            except Infeasible:
                continue
        learned = rcd_learn(schema, OracleCI(truth, 8), LearnConfig())
        pairs = sorted(learned.pairs(), key=str)
        truth_directions = {canonical_pair(d): d for d in truth.dependencies}
        target = _collider_fingerprint(pairs, schema, 8, truth_directions)
        admissible = {pair: set() for pair in pairs}
        for choice in product((0, 1), repeat=len(pairs)):
            directions = {
                pair: (pair if bit == 0 else reverse_dependency(pair))
                for pair, bit in zip(pairs, choice)
            }
            try:
                RelationalModel(schema, tuple(directions.values()))
            except ValueError:
                continue
            if _collider_fingerprint(pairs, schema, 8, directions) == target:
                for pair, d in directions.items():
                    admissible[pair].add(d)
        for pair in learned.undirected:
            undirected_checked += 1
            if len(admissible[pair]) != 2:
                violations.append(f"{pair} admits only {admissible[pair]}")
        for d in learned.directed:
            if len(admissible[canonical_pair(d)]) != 1:
                violations.append(f"{d} directed but class admits both directions")
    ok = not violations
    assert report(
        6,
        ok,
        f"50 models, {undirected_checked} undirected dependencies all reversible, "
        f"{len(violations)} violations",
    ), violations[:5]


class _RecordingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.records = {}
        self.calls = 0

    def independent(self, table, x, y, z=0):
        self.calls += 1
        verdict = self.inner.independent(table, x, y, z)
        a, b, cond = as_variables(table, x, y, z)
        self.records[(a.perspective, a, b, cond)] = verdict
        return verdict


def _instance_nodes(skeleton, variable, start):
    cls = variable.path.last
    return {
        (cls, reached, variable.attribute)
        for reached in terminal_set(skeleton, variable.path, start)
    }


def test_criterion_7_agg_vs_ground_consistency():
    """Every oracle verdict must agree with instance-level separation.

    Known caveat: the lifted graphs omit the companion representation's
    intersection variables, so independence verdicts can miss dependences
    that arise when two variables' traversals overlap on shared instances.
    Divergences are printed in full before the zero-divergence assertion.
    """
    rng = np.random.default_rng(71)
    divergences = []
    vacuous = overlap_skips = checked = 0
    for trial in range(50):
        n_entities = 2 + trial % 3
        while True:
            s_seed, m_seed = (int(v) for v in rng.integers(0, 2**63, size=2))
            schema = random_schema(s_seed, n_entities)
            try:
                truth = random_model(
                    schema, 1 + trial % 5, seed=m_seed, restarts=50
                )
                break
            except Infeasible:
                continue
        sizes = {e: 12 for e in schema.entity_names}
        for rel in schema.relationships:
            for side, card in zip(rel.participants, rel.cards):
                if card is Cardinality.ONE:
                    sizes[side] = 36  # let the MANY side fan in
        density = (
            1.0
            if any(Cardinality.ONE in r.cards for r in schema.relationships)
            else 2.0
        )
        skeleton = random_skeleton(schema, sizes, density, seed=trial)
        gg = ground_graph(truth, skeleton)
        backend = _RecordingOracle(OracleCI(truth, 8))
        rcd_learn(schema, backend, LearnConfig())
        for (perspective, x, y, cond), verdict in backend.records.items():
            checked += 1
            any_connected = False
            any_wellposed = False
            for start in skeleton.instances_of(perspective):
                xs = _instance_nodes(skeleton, x, start)
                ys = _instance_nodes(skeleton, y, start)
                zs = set()
                for c in cond:
                    zs |= _instance_nodes(skeleton, c, start)
                xs -= zs
                ys -= zs
                if xs & ys:
                    overlap_skips += 1  # ill-posed for graph separation
                    continue
                if not xs or not ys:
                    continue
                any_wellposed = True
                if not dsep_ground(gg, xs, ys, zs):
                    any_connected = True
                    break
            if verdict and any_connected:
                divergences.append(
                    f"independent per oracle, connected in ground graph: "
                    f"{x} vs {y} given {sorted(map(str, cond))} [{perspective}]"
                )
            elif not verdict and not any_connected:
                if any_wellposed:
                    divergences.append(
                        f"dependent per oracle, separated for every instance: "
                        f"{x} vs {y} given {sorted(map(str, cond))} [{perspective}]"
                    )
                else:
                    vacuous += 1
    for line in divergences:
        print(f"  divergence: {line}")
    ok = not divergences
    report(
        7,
        ok,
        f"{checked} verdicts over 50 model/skeleton pairs: "
        f"{len(divergences)} divergences, {overlap_skips} overlapping "
        f"instantiations skipped, {vacuous} vacuous",
    )
    assert ok, (
        f"{len(divergences)} oracle/ground divergences; these stem from the "
        "omitted intersection-variable machinery (see notes in the decisions "
        "ledger): the lifted graphs cannot represent dependences through "
        "shared instances reached by overlapping traversals"
    )


@pytest.fixture(scope="module")
def movie_inputs(movie_truth):
    return movie_truth.schema, movie_truth


def test_criterion_8_data_path_majority_vote(movie_inputs):
    schema, truth = movie_inputs
    null = RelationalModel(schema, ())
    want = truth.dependencies[0]
    sizes = {"ACTOR": 5000, "MOVIE": 5000}
    recovered = 0
    for master in range(20):
        skeleton = random_skeleton(schema, sizes, link_density=2.5, seed=9000 + master)
        values = sample_data(ground_graph(truth, skeleton), seed=9100 + master)
        backend = RegressionCI(skeleton.with_values(values))
        pattern = majority_vote(
            schema, backend, LearnConfig(seed=master), runs=100, threshold=2 / 3
        )
        recovered += want in pattern.directed
    false_edges = 0
    candidates = 0
    for master in range(20):
        skeleton = random_skeleton(schema, sizes, link_density=2.5, seed=9500 + master)
        values = sample_data(ground_graph(null, skeleton), seed=9600 + master)
        backend = RegressionCI(skeleton.with_values(values))
        pattern = majority_vote(
            schema, backend, LearnConfig(seed=master), runs=100, threshold=2 / 3
        )
        false_edges += len(pattern.pairs())
        candidates += 1  # one undirected candidate pair per movie schema run
    rate = false_edges / candidates
    recovery_ok = recovered >= 16
    null_ok = rate <= 0.05 + 0.03
    assert report(
        8,
        recovery_ok and null_ok,
        f"vote recovered the true direction in {recovered}/20 seeds "
        f"(need >=16); null false-edge rate {rate:.3f} <= 0.08: {null_ok}",
    )


def test_criterion_9_cli_determinism(tmp_path, movie_inputs):
    schema, truth = movie_inputs
    schema_path = tmp_path / "schema.json"
    model_path = tmp_path / "model.json"
    schema_path.write_text(schema_to_json(schema))
    model_path.write_text(model_to_json(truth))

    def run_twice(argv, out_name):
        out_a = tmp_path / f"{out_name}.a"
        out_b = tmp_path / f"{out_name}.b"
        assert cli_main([*map(str, argv), "-o", str(out_a)]) == 0
        assert cli_main([*map(str, argv), "-o", str(out_b)]) == 0
        return out_a.read_bytes() == out_b.read_bytes()

    checks = {
        "gen schema": run_twice(["gen", "schema", "--entities", 3, "--seed", 5], "schema"),
        "gen model": run_twice(
            ["gen", "model", "--schema", schema_path, "--deps", 1, "--seed", 5],
            "model",
        ),
        "learn oracle": run_twice(
            ["learn", "--schema", schema_path, "--model", model_path, "--seed", 2],
            "learn",
        ),
        "agg export": run_twice(
            ["agg", "export", "--model", model_path, "--perspective", "ACTOR"],
            "agg",
        ),
        "bench": run_twice(
            ["bench", "--entities", "2", "--deps", "1", "--trials", 3, "--seed", 4],
            "bench",
        ),
        "profile": run_twice(
            [
                "profile", "--mode", "rbo_first",
                "--entities", "2", "--deps", "1", "--trials", 3, "--seed", 4,
            ],
            "profile",
        ),
    }
    # skeleton CSVs: compare every emitted file
    dir_a, dir_b = tmp_path / "skel_a", tmp_path / "skel_b"
    for target in (dir_a, dir_b):
        assert (
            cli_main(
                [
                    "gen", "skeleton",
                    "--schema", str(schema_path),
                    "--sizes", "ACTOR=40,MOVIE=40",
                    "--density", "2.0",
                    "--model", str(model_path),
                    "--seed", "6",
                    "-o", str(target),
                ]
            )
            == 0
        )
    checks["gen skeleton"] = all(
        (dir_a / f.name).read_bytes() == (dir_b / f.name).read_bytes()
        for f in sorted(dir_a.iterdir())
    )
    data_learn = [
        "learn",
        "--schema", schema_path,
        "--data", dir_a / "manifest.json",
        "--runs", 5,
        "--seed", 3,
    ]
    checks["learn data vote"] = run_twice(data_learn, "learn_data")
    ok = all(checks.values())
    assert report(9, ok, f"byte-identical outputs: {checks}"), checks
