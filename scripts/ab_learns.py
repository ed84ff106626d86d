"""Interleaved A/B timing of learns between two relcd source trees.

    python scripts/ab_learns.py BASE_SRC NEW_SRC [--passes 4]
        [--workload oracle-grid|data-vote]

BASE_SRC and NEW_SRC are directories that each hold a ``relcd`` package
(a checkout's ``src/``). Both trees are imported into one process, each
under its own package name. The panel is one of the benchmark's workloads
in ``perfbench/workloads.py`` (imported with BASE_SRC's ``relcd``), whose
inputs each tree draws at entropy 0 with its own modules:

- ``oracle-grid`` (the default): ``OracleGrid``'s cells and cases a cell,
  drawn by each tree's ``harness``, as ``OracleGrid.setup`` draws them, and
  learned, as ``OracleGrid.op`` learns them, with ``OracleCI(hops=8)`` and
  the default ``LearnConfig``.
- ``data-vote``: ``DataVote``'s model, skeletons and vote seeds. Each tree
  generates, grounds, samples, writes and reads back the skeletons with
  its own ``skeleton`` module, as ``DataVote.setup`` does, and votes, as
  ``DataVote.op`` does, with ``RegressionCI``.

A pass runs every learn or vote once with each tree, alternating the trees
item by item, so both sample the same spells of the machine's speed; which
tree goes first alternates from item to item. Separate runs of one tree can
differ by a quarter on a loaded machine, where interleaved passes agree far
closer.

The script fails unless both trees give identical ``pattern_to_dict``
outputs, CI-test counts included. It also fails, before any timing, unless
both trees draw identical inputs: on oracle-grid the ``model_to_json`` of
every case (schema and model), so a change to the order of
``random_model``'s pool shows even where the learns still agree; on
data-vote bit-identical values for each skeleton (``sample_data``'s values
in node order, compared as the bytes of one float array), so a change to
how the sampler rounds shows even where the votes still agree. On
data-vote it fails too unless each vote's ``RegressionCI.outcomes`` (its
counts, by reason, of queries read independent without a test) agree
between the trees, so a degenerate query routed to another outcome shows
even where its verdict does not move; it prints each vote's outcomes at the
end.

It prints each pass's time per tree and their ratio (base / new; above 1
means the new tree is faster), then the median ratio. It also prints each
tree's ``agg.lift`` cache hits and misses within each pass. On oracle-grid
it prints each tree's Bayes-ball walks within each pass, counted by
wrapping ``Agg.reach``. The wrapper costs each walk the same small time in
both trees, so it slightly favours the tree that walks less. Each pass also
times each tree's set-up once more, the trees in turn first from pass to
pass: on oracle-grid the draw of the panel's 200 cases, as
``OracleGrid.setup`` does; on data-vote the draw, ground, sample, write and
read-back of the skeletons, as ``DataVote.setup`` does. It prints those
times and their ratio with the pass, and their median ratio at the end. On
data-vote it ends with one untimed pass per tree under ``tracemalloc`` and
prints the peak MB each tree's votes trace, so a trade of memory for speed
shows before the benchmark's ``peak_rss_mb`` bound refuses it.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from itertools import count
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]


def benchmark_workloads(src: Path):
    """``perfbench.workloads``, importing the ``relcd`` under ``src``."""
    sys.path[:0] = [str(REPO), str(src)]  # perfbench imports relcd
    return importlib.import_module("perfbench.workloads")


def load_tree(src: Path, name: str):
    """Import ``src/relcd`` as the package ``name``; return its submodules."""
    package = src / "relcd"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None:
        raise SystemExit(f"no relcd package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in
            ("agg", "ci", "harness", "model", "rcd", "schema", "skeleton")}


def oracle_panel(tree, workloads, workdir: Path):
    """``OracleGrid.setup``'s cases, in panel order, as learns to time, each
    case's ``model_to_json``, and the draw, to time again."""
    setup = partial(oracle_setup, tree, workloads)
    cases = setup()
    model_to_json = tree["model"].model_to_json
    return [model_to_json(truth) for _, truth in cases], [
        partial(learn_oracle, tree, schema, truth) for schema, truth in cases
    ], setup


def oracle_setup(tree, workloads):
    """``OracleGrid.setup``'s draw with this tree's ``harness``: the panel's
    (schema, model) cases, in panel order."""
    grid = workloads.OracleGrid
    hops = tree["rcd"].LearnConfig().hop_threshold
    return [
        tree["harness"].generate_case(
            e, d, hops, np.random.SeedSequence(entropy=0, spawn_key=(e, d, t))
        )
        for t in range(grid.unit_ops // len(grid.cells))
        for e, d in grid.cells
    ]


def learn_oracle(tree, schema, truth):
    """The learned pattern, and no outcomes: the oracle tests nothing."""
    rcd = tree["rcd"]
    backend = tree["ci"].OracleCI(truth, hops=8)
    return rcd.rcd_learn(schema, backend, rcd.LearnConfig()), {}


def vote_panel(tree, workloads, workdir: Path):
    """``DataVote.setup``'s votes, in panel order, as votes to time, the
    bytes of each skeleton's sampled values in node order, and the set-up,
    to time again."""
    setup = partial(vote_setup, tree, workloads, workdir)
    schema, sampled, loaded = setup()
    vote, derive = workloads.DataVote, workloads.derive
    return sampled, [
        partial(learn_vote, tree, schema, loaded[j % vote.skeletons],
                derive(0, 3, j), vote.runs)
        for j in range(vote.unit_ops)
    ], setup


def vote_setup(tree, workloads, workdir: Path):
    """``DataVote.setup`` with this tree's modules: the schema, each
    skeleton's sampled values as bytes, and the skeletons read back."""
    harness, skeleton = tree["harness"], tree["skeleton"]
    vote, derive = workloads.DataVote, workloads.derive
    hops = tree["rcd"].LearnConfig().hop_threshold
    one = tree["schema"].Cardinality.ONE
    for k in count():  # workloads.data_case, with this tree's harness
        seq = np.random.SeedSequence(entropy=0, spawn_key=(k,))
        schema, truth = harness.generate_case(3, 5, hops, seq)
        if all(one not in rel.cards for rel in schema.relationships):
            break
    sizes = dict.fromkeys(schema.entity_names, vote.size)
    loaded, sampled = [], []
    for j in range(vote.skeletons):
        skel = skeleton.random_skeleton(
            schema, sizes, workloads.DENSITY, seed=derive(0, 1, j)
        )
        gg = skeleton.ground_graph(truth, skel)
        values = skeleton.sample_data(gg, seed=derive(0, 2, j))
        sampled.append(np.array(list(values.values())).tobytes())
        written = skel.with_values(values)
        manifest = skeleton.save_skeleton(written, workdir / f"skeleton{j}")
        loaded.append(skeleton.load_skeleton(schema, manifest))
    return schema, sampled, loaded


def learn_vote(tree, schema, data, seed, runs):
    """The voted pattern, and the backend's outcomes."""
    rcd = tree["rcd"]
    backend = tree["ci"].RegressionCI(data)
    pattern = rcd.majority_vote(schema, backend, rcd.LearnConfig(seed=seed), runs=runs)
    return pattern, dict(backend.outcomes)


PANELS = {"oracle-grid": oracle_panel, "data-vote": vote_panel}


def timed(tree, job):
    start = time.perf_counter()
    pattern, outcomes = job()
    seconds = time.perf_counter() - start
    return seconds, (tree["rcd"].pattern_to_dict(pattern), outcomes)


def cache_counts(tree) -> tuple[int, int]:
    return tree["agg"].lift.cache_info()[:2]


def count_walks(tree) -> list[int]:
    """Count calls of the tree's ``Agg.reach`` in the returned cell."""
    agg = tree["agg"].Agg
    kernel = agg.reach
    walks = [0]

    def counted(self, *args):
        walks[0] += 1
        return kernel(self, *args)

    agg.reach = counted
    return walks


def traced_peaks(jobs) -> list[float]:
    """The peak MB ``tracemalloc`` traces within each job, run once."""
    peaks = []
    for job in jobs:
        tracemalloc.start()
        try:
            job()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the base tree's src directory")
    parser.add_argument("new", type=Path, help="the new tree's src directory")
    parser.add_argument("--passes", type=int, default=4)
    parser.add_argument("--workload", choices=sorted(PANELS), default="oracle-grid")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    trees = [load_tree(args.base, "relcd_base"), load_tree(args.new, "relcd_new")]
    workloads = benchmark_workloads(args.base)
    with tempfile.TemporaryDirectory() as workdir:
        return run_passes(args, trees, workloads, Path(workdir))


def run_passes(args, trees, workloads, workdir: Path) -> int:
    inputs, jobs, setups = zip(*(
        PANELS[args.workload](tree, workloads, workdir / label)
        for tree, label in zip(trees, ("base", "new"))
    ))
    oracle = args.workload == "oracle-grid"
    drawn = "case" if oracle else "skeleton"
    for j, (base, new) in enumerate(zip(*inputs)):
        if base != new:
            print(f"{drawn} {j}: the trees draw different inputs", file=sys.stderr)
            return 1
    walks = [count_walks(tree) for tree in trees]
    ratios, setup_ratios = [], []
    outcomes = []  # each item's outcomes, from the first pass
    for p in range(args.passes):
        setup_seconds = [0.0, 0.0]
        for t in (0, 1) if p % 2 == 0 else (1, 0):
            began = time.perf_counter()
            setups[t]()
            setup_seconds[t] = time.perf_counter() - began
        setup_ratios.append(setup_seconds[0] / setup_seconds[1])
        seconds = [0.0, 0.0]
        before = [cache_counts(tree) for tree in trees]
        walks_before = [w[0] for w in walks]
        for k in range(len(jobs[0])):
            order = (0, 1) if (k + p) % 2 == 0 else (1, 0)
            outputs = [None, None]
            for t in order:
                dt, outputs[t] = timed(trees[t], jobs[t][k])
                seconds[t] += dt
            if outputs[0][0] != outputs[1][0]:
                print(f"item {k}: the trees learn different patterns", file=sys.stderr)
                return 1
            if outputs[0][1] != outputs[1][1]:
                print(
                    f"item {k}: the trees count different outcomes: base "
                    f"{outputs[0][1]}, new {outputs[1][1]}", file=sys.stderr,
                )
                return 1
            if p == 0:
                outcomes.append(outputs[0][1])
        ratios.append(seconds[0] / seconds[1])
        line = (
            f"pass {p}: base {seconds[0]:.3f} s, new {seconds[1]:.3f} s, "
            f"ratio {ratios[-1]:.3f}; set-up base {setup_seconds[0]:.3f} s, "
            f"new {setup_seconds[1]:.3f} s, ratio {setup_ratios[-1]:.3f}"
        )
        for label, tree, start, walked, start_walks in zip(
            ("base", "new"), trees, before, walks, walks_before
        ):
            counts = [f"{walked[0] - start_walks} walks"] if oracle else []
            hits, misses = (a - b for a, b in zip(cache_counts(tree), start))
            counts.append(f"lift cache {hits} hits, {misses} misses")
            line += f"; {label} " + ", ".join(counts)
        print(line, flush=True)
    print(
        f"identical pattern_to_dict outputs on {len(jobs[0])} {args.workload}"
        f" items x {args.passes} passes"
    )
    print(f"identical inputs on {len(inputs[0])} {drawn}s")
    print(f"median ratio (base / new): {statistics.median(ratios):.3f}")
    print(f"median set-up ratio (base / new): {statistics.median(setup_ratios):.3f}")
    if not oracle:
        print(f"identical RegressionCI outcomes per vote: {outcomes}")
        for label, tree_jobs in zip(("base", "new"), jobs):
            peaks = traced_peaks(tree_jobs)
            print(
                f"{label}: tracemalloc peak per vote, median "
                f"{statistics.median(peaks):.1f} MB, max {max(peaks):.1f} MB"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
