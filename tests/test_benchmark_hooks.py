"""The benchmark's tracer finds the program functions it wraps.

``perfbench/tracing.py`` replaces functions at the module globals the
program calls them through, and counts CI queries by wrapping a backend's
``independent``. A change that routes around one of them would zero its
per-layer counts without failing the benchmark, so these tests run one
traced learn per backend. They read ``perfbench/`` and change nothing
there.
"""

import importlib.util
from pathlib import Path

import numpy as np

from relcd import rcd
from relcd.ci import OracleCI, RegressionCI
from relcd.harness import generate_case

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


# column building walks paths through TerminalSets, so only terminal_set is unused
UNUSED = {
    "skeleton.terminal_set (relcd.ci.terminal_set)",
    "skeleton.terminal_set (relcd.skeleton.terminal_set)",
}


def test_tracer_counts_every_query_of_an_oracle_learn():
    # oracle-grid's case (4, 10, 0): an exact backend asks 24 collider
    # queries of it, a backend that is not exact 247
    seq = np.random.SeedSequence(entropy=0, spawn_key=(4, 10, 0))
    schema, truth = generate_case(4, 10, rcd.LearnConfig().hop_threshold, seq)
    tracer = _tracer()
    tracer.install_program()
    try:
        backend = tracer.backend(OracleCI(truth, hops=8))
        pattern = rcd.rcd_learn(schema, backend, rcd.LearnConfig())
    finally:
        tracer.uninstall()
    assert tracer.absent == UNUSED
    assert tracer.stats["ci.independent"]["calls"] == pattern.stats.total() > 0
    # the proxy forwards OracleCI.exact, so a traced learn asks what an
    # untraced one asks, and its per-layer counts describe the same program
    untraced = rcd.rcd_learn(schema, OracleCI(truth, hops=8), rcd.LearnConfig())
    assert pattern.stats == untraced.stats
    assert tracer.stats["ci.find_sepset"]["calls"] > 0
    # the oracle lifts through ci.build_agg, the learner through rcd.build_all
    assert tracer.stats["ci.oracle.build_agg"]["calls"] > 0
    assert tracer.stats["agg.build_all"]["calls"] == 1


def test_tracer_counts_every_query_of_a_data_vote(movie_data):
    tracer = _tracer()
    tracer.install_program()
    try:
        backend = tracer.backend(RegressionCI(movie_data))
        pattern = rcd.majority_vote(
            movie_data.schema, backend, rcd.LearnConfig(), runs=2
        )
    finally:
        tracer.uninstall()
    assert tracer.absent == UNUSED
    assert tracer.stats["ci.independent"]["calls"] == pattern.stats.total() > 0
    assert tracer.stats["ci.regression.column"]["calls"] > 0
    spans = tracer.spans
    learns = [
        span for span in spans
        if span[0] == "rcd.rcd_learn" and spans[span[3]][0] == "rcd.majority_vote"
    ]
    assert len(learns) == 2
