"""Interleaved A/B timing of oracle learns between two relcd source trees.

    python scripts/ab_learns.py BASE_SRC NEW_SRC [--passes 4]

BASE_SRC and NEW_SRC are directories that each hold a ``relcd`` package
(a checkout's ``src/``). Both trees are imported into one process, each
under its own package name. The panel is the benchmark's oracle-grid
panel: the cells and cases a cell of ``perfbench/workloads.py``'s
``OracleGrid`` (imported with BASE_SRC's ``relcd``), drawn at entropy 0 by
each tree's own ``harness`` and learned, as ``OracleGrid.op`` learns them,
with ``OracleCI(hops=8)`` and the default ``LearnConfig``. A pass learns
every case once with each tree, alternating the trees learn by learn, so
both sample the same spells of the machine's speed; which tree goes first
alternates from case to case. Separate runs of one tree can differ by a
quarter on a loaded machine, where interleaved passes agree far closer.

The script fails unless both trees give identical ``pattern_to_dict``
outputs, CI-test counts included. It prints each pass's time per tree and
their ratio (base / new; above 1 means the new tree is faster), then the
median ratio. For a tree whose ``agg.lift`` is an ``lru_cache``, it also
prints that cache's hits and misses within each pass. It prints each
tree's Bayes-ball walks within each pass, counted by wrapping the tree's
kernel method (``Agg.reach``, or ``Agg.d_separated`` in a tree without
it). The wrapper costs each walk the same small time in both trees, so it
slightly favours the tree that walks less.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]


def oracle_grid(src: Path) -> tuple[tuple[tuple[int, int], ...], int]:
    """The benchmark panel's (entities, dependencies) cells and cases a cell."""
    sys.path[:0] = [str(REPO), str(src)]  # perfbench imports relcd
    from perfbench.workloads import OracleGrid

    return OracleGrid.cells, OracleGrid.unit_ops // len(OracleGrid.cells)


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
            ("agg", "ci", "harness", "rcd")}


def panel(tree, cells, cases_per_cell):
    """``OracleGrid.setup``'s cases, in panel order, from this tree's harness."""
    hops = tree["rcd"].LearnConfig().hop_threshold
    return [
        tree["harness"].generate_case(
            e, d, hops, np.random.SeedSequence(entropy=0, spawn_key=(e, d, t))
        )
        for t in range(cases_per_cell)
        for e, d in cells
    ]


def learn(tree, case):
    schema, truth = case
    rcd = tree["rcd"]
    start = time.perf_counter()
    oracle = tree["ci"].OracleCI(truth, hops=8)
    pattern = rcd.rcd_learn(schema, oracle, rcd.LearnConfig())
    return time.perf_counter() - start, rcd.pattern_to_dict(pattern)


def cache_counts(tree) -> tuple[int, int] | None:
    info = getattr(getattr(tree["agg"], "lift", None), "cache_info", None)
    return None if info is None else info()[:2]


def count_walks(tree) -> list[int]:
    """Count calls of the tree's Bayes-ball kernel in the returned cell."""
    agg = tree["agg"].Agg
    name = "reach" if hasattr(agg, "reach") else "d_separated"
    kernel = getattr(agg, name)
    walks = [0]

    def counted(self, *args):
        walks[0] += 1
        return kernel(self, *args)

    setattr(agg, name, counted)
    return walks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the base tree's src directory")
    parser.add_argument("new", type=Path, help="the new tree's src directory")
    parser.add_argument("--passes", type=int, default=4)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    trees = [load_tree(args.base, "relcd_base"), load_tree(args.new, "relcd_new")]
    cells, cases_per_cell = oracle_grid(args.base)
    cases = [panel(tree, cells, cases_per_cell) for tree in trees]
    walks = [count_walks(tree) for tree in trees]
    ratios = []
    for p in range(args.passes):
        seconds = [0.0, 0.0]
        before = [cache_counts(tree) for tree in trees]
        walks_before = [w[0] for w in walks]
        for k in range(len(cases[0])):
            order = (0, 1) if (k + p) % 2 == 0 else (1, 0)
            outputs = [None, None]
            for t in order:
                dt, outputs[t] = learn(trees[t], cases[t][k])
                seconds[t] += dt
            if outputs[0] != outputs[1]:
                print(f"case {k}: the trees learn different patterns", file=sys.stderr)
                return 1
        ratios.append(seconds[0] / seconds[1])
        line = (
            f"pass {p}: base {seconds[0]:.3f} s, new {seconds[1]:.3f} s, "
            f"ratio {ratios[-1]:.3f}"
        )
        for label, tree, start, walked, start_walks in zip(
            ("base", "new"), trees, before, walks, walks_before
        ):
            line += f"; {label} {walked[0] - start_walks} walks"
            if start is not None:
                hits, misses = (a - b for a, b in zip(cache_counts(tree), start))
                line += f", lift cache {hits} hits, {misses} misses"
        print(line, flush=True)
    print(
        f"identical pattern_to_dict outputs on {len(cases[0])} cases"
        f" x {args.passes} passes"
    )
    print(f"median ratio (base / new): {statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
