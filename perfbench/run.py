"""relcd benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload oracle-grid --seed 0 --seconds 20 --trace 0

Runs from the repository root against the sources in ``src/``. With
``--trace 0`` it runs whole passes of the workload's ``unit_ops`` operations
one at a time, until at least ``--seconds`` have passed, repeats the set-up
now and then between them (``setup_s`` is the median set-up time), and
reports the end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1``
it sets up once under the tracer, runs the first ``unit_ops`` operations
untraced and then the same operations traced, checks that both learn the
same patterns, writes the spans to ``perfbench/out/`` and reports the
per-layer metrics. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

# setup_s is the median of the set-up that makes the inputs and of set-ups
# repeated between the timed operations, about this share of the run, so that
# they sample the same spells of the machine's speed as the operations do
SETUP_SHARE = 0.12


def run_op(workload, inputs, k: int, backend, log) -> Outcome | None:
    """Operation ``k``; one that raises is logged and returned as ``None``."""
    try:
        outcome = workload.op(inputs, k, backend)
    except Exception as exc:  # a failed operation is counted; the run goes on
        log.append(f"op {k} raised {type(exc).__name__}: {exc}")
        return None
    log.extend(outcome.notes)
    return outcome


def untraced_backend(backend):
    return backend


def digest(outcomes) -> str:
    """Digest of the operations' outputs, whatever order they ran in."""
    h = hashlib.sha256()
    for d in sorted("failed" if o is None else o.digest for o in outcomes):
        h.update(d.encode())
    return h.hexdigest()[:16]


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


QUALITY = {
    "skel_precision": "skeleton_precision",
    "skel_recall": "skeleton_recall",
    "orient_precision": "oriented_precision",
    "orient_recall": "oriented_recall",
}


def quality(outcomes) -> dict[str, float]:
    """Means of ``harness.score`` over the operations that completed."""
    scores = [o.score for o in outcomes if o is not None]
    return {
        name: statistics.fmean(getattr(s, field) for s in scores)
        for name, field in QUALITY.items()
    }


def end_to_end(outcomes, setups: list[float], unit_ops: int) -> dict[str, float]:
    done = [o for o in outcomes if o is not None]
    if not done:
        raise SystemExit("every operation failed; nothing to measure")
    ok = [o for o in done if o.ok]
    times = [o.seconds for o in done]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": sum(o.items for o in ok) / sum(times),
        "learn_s.p50": statistics.median(times),
        "learn_s.p90": percentile(times, 90),
        "ok_frac": len(ok) / len(outcomes),
        # over the first pass, which holds the same inputs at every speed
        **quality(outcomes[:unit_ops]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def timed_setup(workload, seed: int, workdir: Path, setups: list[float]):
    start = time.perf_counter()
    inputs = workload.setup(seed, workdir)
    setups.append(time.perf_counter() - start)
    return inputs


def untraced(workload, seed: int, seconds: float, workdir: Path, log):
    setups: list[float] = []
    inputs = timed_setup(workload, seed, workdir, setups)
    outcomes = []
    start = time.perf_counter()
    # whole passes only, so that every run measures the same operations
    while (
        not outcomes
        or len(outcomes) % workload.unit_ops
        or time.perf_counter() - start < seconds
    ):
        if sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
            timed_setup(workload, seed, workdir, setups)
        outcomes.append(run_op(workload, inputs, len(outcomes), untraced_backend, log))
    log.append(
        f"{len(outcomes)} operations, {len(setups)} set-ups; "
        f"digest of the first {workload.unit_ops}: "
        f"{digest(outcomes[:workload.unit_ops])}"
    )
    return outcomes, True, end_to_end(outcomes, setups, workload.unit_ops)


def traced(workload, seed: int, workdir: Path, log):
    tracer = tracing.Tracer()
    ks = range(workload.unit_ops)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install_program()
        try:
            inputs = workload.setup(seed, workdir)
        finally:
            tracer.uninstall()
        plain = [run_op(workload, inputs, k, untraced_backend, log) for k in ks]
        del caught[:]
        tracer.install_program()
        try:
            traced_ops = []
            for k in ks:
                tracer.start_op(k)
                traced_ops.append(run_op(workload, inputs, k, tracer.backend, log))
        finally:
            tracer.uninstall()
    tracer.totals["zero_variance"] = sum("zero-variance" in str(w.message) for w in caught)
    same = digest(plain) == digest(traced_ops)
    log.append(f"digest untraced {digest(plain)} traced {digest(traced_ops)}")
    if not same:
        log.append("traced and untraced runs learned different patterns")

    def busy(outcomes):
        return sum(o.seconds for o in outcomes if o is not None)

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = busy(traced_ops) / busy(plain) - 1.0
    for name, calls, total, self_s in tracer.self_time_table():
        log.append(f"self {self_s:9.3f} s  total {total:9.3f} s  {calls:9d}  {name}")
    if tracer.absent:
        log.append(f"absent (reads 0): {', '.join(sorted(tracer.absent))}")
    tracer.write(
        ROOT / "perfbench" / "out" / f"trace-{workload.name}-seed{seed}.json",
        {"workload": workload.name, "seed": seed, "metrics": metrics},
    )
    return plain + traced_ops, same, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    log: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / "perfbench"))
    try:
        if args.trace:
            outcomes, same, metrics = traced(workload, args.seed, workdir, log)
        else:
            outcomes, same, metrics = untraced(
                workload, args.seed, args.seconds, workdir, log
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in log:
        print(line)
    ok = [o for o in outcomes if o is not None and o.ok]
    correct = same and all(o.ok for o in outcomes if o is not None)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(ok),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
