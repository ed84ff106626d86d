"""The benchmark's tracer finds the program functions it wraps.

``perfbench/tracing.py`` replaces functions at the module globals the
program calls them through, and counts CI queries by wrapping a backend's
``independent``. A change that routes around one of them would zero its
per-layer counts without failing the benchmark, so this test runs one
traced learn. It reads ``perfbench/`` and changes nothing there.
"""

import importlib.util
from pathlib import Path

from relcd import rcd
from relcd.ci import OracleCI

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_counts_every_query_of_an_oracle_learn(movie_truth):
    tracer = _tracer()
    tracer.install_program()
    try:
        backend = tracer.backend(OracleCI(movie_truth, hops=8))
        pattern = rcd.rcd_learn(movie_truth.schema, backend, rcd.LearnConfig())
    finally:
        tracer.uninstall()
    # column building reads terminal_sets, so only terminal_set is unused
    assert tracer.absent == {
        "skeleton.terminal_set (relcd.ci.terminal_set)",
        "skeleton.terminal_set (relcd.skeleton.terminal_set)",
    }
    assert tracer.stats["ci.independent"]["calls"] == pattern.stats.total() > 0
    assert tracer.stats["ci.find_sepset"]["calls"] > 0
