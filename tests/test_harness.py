import pytest

from relcd.ci import OracleCI
from relcd.harness import (
    BENCH_COLUMNS,
    PROFILE_COLUMNS,
    TrialConfig,
    aggregate_cells,
    bench_to_csv,
    brute_force_pattern,
    generate_case,
    propositional_pattern,
    run_bench,
    run_trials,
    score,
)
from relcd.model import RelationalModel, reverse_dependency
from relcd.rcd import LearnConfig, rcd_learn
from tests.conftest import propositional_model, single_entity_schema


def test_score_perfect(movie_truth):
    learned = rcd_learn(movie_truth.schema, OracleCI(movie_truth, 8), LearnConfig())
    metrics = score(learned, movie_truth)
    assert metrics.skeleton_precision == 1.0
    assert metrics.skeleton_recall == 1.0
    assert metrics.oriented_precision == 1.0
    assert metrics.oriented_recall == 1.0


def test_score_reversed_direction(movie_truth, movie_schema):
    reversed_truth = RelationalModel(
        movie_schema, (reverse_dependency(movie_truth.dependencies[0]),)
    )
    learned = rcd_learn(movie_schema, OracleCI(movie_truth, 8), LearnConfig())
    metrics = score(learned, reversed_truth)
    assert metrics.skeleton_precision == 1.0
    assert metrics.oriented_precision == 0.0
    assert metrics.oriented_recall == 0.0


def test_score_empty_pattern_flags(movie_schema):
    null = RelationalModel(movie_schema, ())
    learned = rcd_learn(movie_schema, OracleCI(null, 8), LearnConfig())
    metrics = score(learned, null)
    assert metrics.oriented_precision == 1.0
    assert metrics.skeleton_recall == 1.0


def test_score_schema_mismatch(movie_truth, employer_schema):
    null = RelationalModel(employer_schema, ())
    learned = rcd_learn(employer_schema, OracleCI(null, 8), LearnConfig())
    with pytest.raises(ValueError):
        score(learned, movie_truth)


def test_generate_case_deterministic():
    import numpy as np

    a = generate_case(2, 3, 4, np.random.SeedSequence(5))
    b = generate_case(2, 3, 4, np.random.SeedSequence(5))
    assert a == b


def test_run_bench_deterministic_and_schedule_independent():
    config = TrialConfig(entities=(2,), deps=(1, 2), trials=4, seed=13)
    serial, _ = run_bench(config, workers=1)
    parallel, _ = run_bench(config, workers=2)
    again, _ = run_bench(config, workers=2)
    assert bench_to_csv(serial) == bench_to_csv(parallel) == bench_to_csv(again)


def test_run_bench_infeasible_cell_skipped():
    # forty dependencies can never fit on a single entity class
    config = TrialConfig(entities=(1,), deps=(1, 40), trials=2, seed=0)
    cells, notes = run_bench(config, workers=1)
    assert [(c["entities"], c["deps"]) for c in cells] == [(1, 1)]
    assert any("skipped" in n for n in notes)


def test_bench_csv_shape():
    config = TrialConfig(entities=(2,), deps=(1,), trials=3, seed=1)
    cells, _ = run_bench(config)
    text = bench_to_csv(cells)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("2,1,3,")


def test_oracle_trials_are_exact():
    config = TrialConfig(entities=(1, 2), deps=(1, 3), trials=5, seed=21)
    results, notes = run_trials(config)
    assert notes == []
    for row in results:
        assert row["skel_p"] == 1.0 and row["skel_r"] == 1.0
        assert row["orient_p"] == 1.0


def test_rule_profile_shape_and_single_entity_rbo():
    config = TrialConfig(entities=(1, 2), deps=(2,), trials=5, seed=2)
    cells, _ = run_bench(config, rbo_order="rbo_first")
    text = bench_to_csv(cells, PROFILE_COLUMNS)
    assert text.startswith("entities,deps,trials,directed_total,share_cd,share_rbo")
    single = [c for c in cells if c["entities"] == 1]
    assert all(c["share_rbo"] == 0.0 for c in single)


def test_rule_profile_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_bench(TrialConfig(), rbo_order="alphabetical")


def test_brute_force_three_chain():
    schema = single_entity_schema("X", "Y", "Z")
    truth = propositional_model(schema, [("X", "Y"), ("Y", "Z")])
    pattern = brute_force_pattern(schema, truth)
    assert pattern["directed"] == frozenset()
    assert pattern["undirected"] == frozenset(
        (frozenset(("X", "Y")), frozenset(("Y", "Z")))
    )


def test_brute_force_collider():
    schema = single_entity_schema("X", "Y", "Z")
    truth = propositional_model(schema, [("X", "Z"), ("Y", "Z")])
    pattern = brute_force_pattern(schema, truth)
    assert pattern["directed"] == frozenset((("X", "Z"), ("Y", "Z")))
    assert pattern["undirected"] == frozenset()


def test_brute_force_two_variables():
    schema = single_entity_schema("X", "Y")
    truth = propositional_model(schema, [("X", "Y")])
    pattern = brute_force_pattern(schema, truth)
    assert pattern["directed"] == frozenset()
    assert pattern["undirected"] == frozenset((frozenset(("X", "Y")),))


def test_brute_force_rejects_relational(movie_schema, movie_truth):
    with pytest.raises(ValueError):
        brute_force_pattern(movie_schema, movie_truth)


def test_propositional_pattern_mapping():
    schema = single_entity_schema("X", "Y", "Z")
    truth = propositional_model(schema, [("X", "Z"), ("Y", "Z")])
    learned = rcd_learn(schema, OracleCI(truth, 8), LearnConfig())
    assert propositional_pattern(learned) == brute_force_pattern(schema, truth)


def test_aggregate_cells_rule_shares():
    rows = [
        {
            "entities": 2,
            "deps": 1,
            "trial": t,
            "skel_p": 1.0,
            "skel_r": 1.0,
            "orient_p": 1.0,
            "orient_r": 1.0,
            "rule_counts": {"CD": 1, "RBO": 1, "KNC": 0, "CA": 0, "MR3": 0},
            "directed": 2,
            "ci_tests": 10,
        }
        for t in range(4)
    ]
    cell = aggregate_cells(rows)[0]
    assert cell["share_cd"] == 0.5 and cell["share_rbo"] == 0.5
    assert cell["trials"] == 4
    assert cell["mean_ci_tests"] == 10.0
    assert cell["directed_total"] == 8
