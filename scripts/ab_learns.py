"""Interleaved A/B timing of the benchmark's workloads between two relcd trees.

    python scripts/ab_learns.py BASE_SRC NEW_SRC [--passes 4]
        [--workload oracle-grid|data-vote]

BASE_SRC and NEW_SRC are directories that each hold a ``relcd`` package
(a checkout's ``src/``). Both trees are imported into one process, each
under its own package name, and ``perfbench/workloads.py`` is run once per
tree, with ``relcd`` pointing at that tree's modules. So each tree sets up
and runs the benchmark's own workload, at seed 0:

- ``oracle-grid`` (the default): ``OracleGrid``'s 200 oracle learns. Each
  learned pattern is taken by wrapping the tree's ``rcd.rcd_learn``.
- ``data-vote``: ``DataVote``'s six regression votes on the skeletons its
  set-up generates, grounds, samples, writes and reads back. Each voted
  pattern is taken by wrapping the tree's ``rcd.majority_vote``, and each
  vote's ``RegressionCI`` from the workload's ``backend`` hook.

A pass runs every operation once with each tree, alternating the trees
item by item, so both sample the same spells of the machine's speed; which
tree goes first alternates from item to item. Separate runs of one tree can
differ by a quarter on a loaded machine, where interleaved passes agree far
closer. An item's time is its ``Outcome.seconds``, the benchmark's own
clock around the backend's construction and the learn.

The script fails, before any timing, unless both trees' set-ups draw
identical inputs: on oracle-grid the ``model_to_json`` of every case
(schema and model), so a change to the order of ``random_model``'s pool
shows even where the learns still agree; on data-vote the model, the vote
seed and the read-back skeleton's instances, links and values of every
vote, so a change to how the sampler rounds shows even where the votes
still agree. It then fails unless every operation passes the workload's
own check (``Outcome.ok``) and both trees give identical
``pattern_to_dict`` outputs, CI-test counts included. On data-vote it fails
too unless each vote's ``RegressionCI.outcomes`` (its counts, by reason,
of queries read independent without a test) agree between the trees, so a
degenerate query routed to another outcome shows even where its verdict
does not move; it prints each vote's outcomes at the end.

It prints each pass's time per tree and their ratio (base / new; above 1
means the new tree is faster), then the median ratio. It also prints each
tree's ``agg.lift`` cache hits and misses within each pass, and the
seconds the pass spent building per-schema structure: the cache misses of
``agg.node_table``, ``agg.lift`` and ``rcd.learn_plan``, each without the
builders it calls, timed by wrappers at the module globals the program
calls them through. On oracle-grid
it prints each tree's Bayes-ball walks within each pass, counted by
wrapping ``Agg.reach``. The wrappers cost each call the same small time in
both trees, so the walk counter slightly favours the tree that walks less.
It does not time set-up: one set-up per tree per pass is too few to tell
two identical trees apart, so a set-up claim needs the benchmark's
``setup_s`` in alternating runs. On data-vote it ends with one
untimed pass per tree under ``tracemalloc`` and prints the peak MB each
tree's votes trace, so a trade of memory for speed shows before the
benchmark's ``peak_rss_mb`` bound refuses it.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# the program call whose pattern each workload's operation scores
LEARNS = {"oracle-grid": "rcd_learn", "data-vote": "majority_vote"}
# the cached builders of per-schema structure, at every global they are called by
STRUCTURE = (
    ("relcd.agg", "node_table"),
    ("relcd.rcd", "node_table"),
    ("relcd.agg", "lift"),
    ("relcd.rcd", "learn_plan"),
)


def load_tree(src: Path, name: str) -> dict:
    """Import ``src/relcd`` as the package ``name``; return it and its
    submodules, keyed by the names they have under ``relcd``."""
    package = src / "relcd"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None:
        raise SystemExit(f"no relcd package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)  # imports every submodule the workloads use
    return {
        "relcd" + key[len(name):]: sub
        for key, sub in sys.modules.items()
        if key == name or key.startswith(name + ".")
    }


def load_workloads(tree: dict, name: str):
    """``perfbench/workloads.py`` run as the module ``name``, its ``relcd``
    imports pointed at ``tree``'s modules."""
    saved = {key: sys.modules.get(key) for key in tree}
    sys.modules.update(tree)
    try:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # @dataclass looks its module up here
        spec.loader.exec_module(module)
    finally:
        for key, held in saved.items():
            if held is None:
                del sys.modules[key]
            else:
                sys.modules[key] = held
    return module


def drawn_inputs(tree, workload, inputs) -> list:
    """Each operation's inputs in a form two trees can compare."""
    model_to_json = tree["relcd.model"].model_to_json
    if workload.name == "oracle-grid":
        return [model_to_json(truth) for _, truth in inputs]
    _, truth, votes = inputs
    model = model_to_json(truth)
    return [
        (model, seed, data.instances, data.links, data.values)
        for data, _, seed in votes
    ]


def keep_patterns(tree, name: str) -> list:
    """Wrap the tree's ``rcd.<name>``, the module global the workload's
    operation calls, to append each pattern it returns to the returned list."""
    rcd = tree["relcd.rcd"]
    learn = getattr(rcd, name)
    patterns = []

    def kept(*args, **kwargs):
        pattern = learn(*args, **kwargs)
        patterns.append(pattern)
        return pattern

    setattr(rcd, name, kept)
    return patterns


def run_op(tree, workload, inputs, k: int, patterns: list):
    """Operation ``k``: its outcome, and its ``pattern_to_dict`` output and
    backend outcomes (none from the oracle) to compare between trees."""
    backends = []

    def keep(backend):
        backends.append(backend)
        return backend

    outcome = workload.op(inputs, k, keep)
    if not outcome.ok:
        raise SystemExit(f"{workload.name} operation {k} fails its check: {outcome.notes}")
    (backend,) = backends
    output = tree["relcd.rcd"].pattern_to_dict(patterns.pop())
    return outcome, (output, dict(getattr(backend, "outcomes", {})))


def cache_counts(tree) -> tuple[int, int]:
    return tree["relcd.agg"].lift.cache_info()[:2]


def time_structure(tree) -> Counter:
    """Time the cache misses of the tree's per-schema builders in the
    returned counter, by name: each miss's seconds less those of the
    builders it called (so a lift that builds its node table counts that
    table's time under ``node_table`` only)."""
    seconds: Counter = Counter()
    nested: list[float] = []  # per open call, the seconds of builders it called

    def timed(fn, name):
        def call(*args):
            misses = fn.cache_info().misses
            nested.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent = time.perf_counter() - start
                inner = nested.pop()
                if nested:
                    nested[-1] += spent
                if fn.cache_info().misses > misses:
                    seconds[name] += spent - inner

        call.cache_info = fn.cache_info  # cache_counts reads it
        return call

    for module, name in STRUCTURE:
        setattr(tree[module], name, timed(getattr(tree[module], name), name))
    return seconds


def count_walks(tree) -> list[int]:
    """Count calls of the tree's ``Agg.reach`` in the returned cell."""
    agg = tree["relcd.agg"].Agg
    kernel = agg.reach
    walks = [0]

    def counted(self, *args):
        walks[0] += 1
        return kernel(self, *args)

    agg.reach = counted
    return walks


def traced_peaks(ops) -> list[float]:
    """The peak MB ``tracemalloc`` traces within each operation, run once."""
    peaks = []
    for op in ops:
        tracemalloc.start()
        try:
            op()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the base tree's src directory")
    parser.add_argument("new", type=Path, help="the new tree's src directory")
    parser.add_argument("--passes", type=int, default=4)
    parser.add_argument("--workload", choices=sorted(LEARNS), default="oracle-grid")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    trees = [load_tree(args.base, "relcd_base"), load_tree(args.new, "relcd_new")]
    workloads = [
        load_workloads(tree, f"workloads_{label}").WORKLOADS[args.workload]
        for tree, label in zip(trees, ("base", "new"))
    ]
    with tempfile.TemporaryDirectory() as workdir:
        return run_passes(args, trees, workloads, Path(workdir))


def run_passes(args, trees, workloads, workdir: Path) -> int:
    inputs = [w.setup(0, workdir / label) for w, label in zip(workloads, ("base", "new"))]
    drawn = [drawn_inputs(*side) for side in zip(trees, workloads, inputs)]
    for j, (base, new) in enumerate(zip(*drawn)):
        if base != new:
            print(f"item {j}: the trees draw different inputs", file=sys.stderr)
            return 1
    patterns = [keep_patterns(tree, LEARNS[args.workload]) for tree in trees]
    oracle = args.workload == "oracle-grid"
    walks = [count_walks(tree) for tree in trees]
    structure = [time_structure(tree) for tree in trees]
    items = workloads[0].unit_ops
    ratios = []
    outcomes = []  # each item's outcomes, from the first pass
    for p in range(args.passes):
        seconds = [0.0, 0.0]
        before = [cache_counts(tree) for tree in trees]
        walks_before = [w[0] for w in walks]
        for built in structure:
            built.clear()
        for k in range(items):
            order = (0, 1) if (k + p) % 2 == 0 else (1, 0)
            outputs = [None, None]
            for t in order:
                outcome, outputs[t] = run_op(
                    trees[t], workloads[t], inputs[t], k, patterns[t]
                )
                seconds[t] += outcome.seconds
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
            f"ratio {ratios[-1]:.3f}"
        )
        for label, tree, start, walked, start_walks, built in zip(
            ("base", "new"), trees, before, walks, walks_before, structure
        ):
            counts = [f"{walked[0] - start_walks} walks"] if oracle else []
            hits, misses = (a - b for a, b in zip(cache_counts(tree), start))
            counts.append(f"lift cache {hits} hits, {misses} misses")
            counts.append(
                f"structure {built.total():.3f} s (" + ", ".join(
                    f"{name} {built[name]:.3f}" for name in ("node_table", "lift", "learn_plan")
                ) + ")"
            )
            line += f"; {label} " + ", ".join(counts)
        print(line, flush=True)
    print(
        f"identical pattern_to_dict outputs on {items} {args.workload}"
        f" items x {args.passes} passes"
    )
    print(f"identical inputs on {len(drawn[0])} {args.workload} items")
    print(f"median ratio (base / new): {statistics.median(ratios):.3f}")
    if not oracle:
        print(f"identical RegressionCI outcomes per vote: {outcomes}")
        for label, *side, kept in zip(("base", "new"), trees, workloads, inputs, patterns):
            peaks = traced_peaks(partial(run_op, *side, k, kept) for k in range(items))
            print(
                f"{label}: tracemalloc peak per vote, median "
                f"{statistics.median(peaks):.1f} MB, max {max(peaks):.1f} MB"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
