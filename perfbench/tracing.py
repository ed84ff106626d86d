"""In-memory span tracer for the traced benchmark run.

The tracer replaces a function by a timing wrapper at the module global
that the program's own call site looks up (``rcd.phase1`` for the call in
``rcd_learn``, ``ci.terminal_set`` for the call in ``RegressionCI``), so no
file under ``src/`` changes. A CI backend is traced through a proxy object.

Every wrapped call is a frame on a stack. Closing a frame adds its duration
to its parent's child time (self time is duration minus child time) and
its call, plus every call below it, to the parent's inclusive counts.
Frames of layer boundaries are also kept as spans (name, start, end,
parent span, operation id); high-volume leaves such as single CI queries
are only aggregated, so the span list stays small.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter
from pathlib import Path

from relcd import ci, harness, rcd, skeleton


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        # name -> {"calls", "total", "self", "raised", "below": Counter}
        self.stats: dict[str, dict] = {}
        self.totals: Counter = Counter()
        self.absent: set[str] = set()
        self.op = -1  # operation id stamped on spans; -1 is set-up
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._backends: list = []

    # -- frames -----------------------------------------------------------

    def wrap(self, fn, name: str, *, span: bool = False, on_result=None):
        """``fn`` timed as frame ``name``; ``on_result`` sees its return value."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent_span = stack[-1][4] if stack else -1
            if span:
                self.spans.append((name, 0.0, 0.0, parent_span, self.op))
                parent_span = len(self.spans) - 1
            # name, start, child time, counts below, nearest span, is a span
            frame = [name, time.perf_counter(), 0.0, None, parent_span, span]
            stack.append(frame)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                self._close(frame, raised)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _close(self, frame, raised: bool) -> None:
        end = time.perf_counter()
        name, start, child, below, span_index, is_span = frame
        self._stack.pop()
        duration = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = {
                "calls": 0, "total": 0.0, "self": 0.0, "raised": 0, "below": Counter()
            }
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - child
        entry["raised"] += raised
        if below:
            entry["below"].update(below)
        if is_span:
            self.spans[span_index] = (name, start, end, *self.spans[span_index][3:])
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            counts = parent[3]
            if counts is None:
                counts = parent[3] = Counter()
            counts[name] += 1
            if below:
                counts.update(below)

    def bump(self, key: str, n: int = 1) -> None:
        """Count ``n`` events in the enclosing frames and in the run totals."""
        self.totals[key] += n
        if self._stack:
            frame = self._stack[-1]
            if frame[3] is None:
                frame[3] = Counter()
            frame[3][key] += n

    # -- installation -----------------------------------------------------

    def install(self, owner, attr: str, name: str, **kwargs) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.add(f"{name} ({getattr(owner, '__name__', owner)}.{attr})")
            return
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name, **kwargs))

    def install_program(self) -> None:
        """Wrap the program's public functions where the program calls them."""
        bump = self.bump

        def lifted(agg_set):
            bump("agg.nodes", sum(len(a.nodes) for a in agg_set.aggs.values()))
            bump("agg.edges", sum(len(a.edge_pairs) for a in agg_set.aggs.values()))

        def ground_edges(gg):
            bump(
                "skeleton.ground_edges",
                sum(len(group) for groups in gg.parents.values() for group in groups.values()),
            )

        spans = [
            (harness, "generate_case", "harness.generate_case"),
            (rcd, "majority_vote", "rcd.majority_vote"),
            (rcd, "rcd_learn", "rcd.rcd_learn"),
            (rcd, "phase1", "rcd.phase1"),
            (rcd, "collider_detection", "rcd.collider_detection"),
            (rcd, "bivariate_orientation", "rcd.bivariate_orientation"),
            (rcd, "meek_rules", "rcd.meek_rules"),
            (ci, "build_agg", "ci.oracle.build_agg"),
            (skeleton, "random_skeleton", "skeleton.random_skeleton"),
            (skeleton, "sample_data", "skeleton.sample_data"),
            (skeleton, "save_skeleton", "skeleton.save_skeleton"),
            (skeleton, "load_skeleton", "skeleton.load_skeleton"),
        ]
        for owner, attr, name in spans:
            self.install(owner, attr, name, span=True)
        self.install(rcd, "build_all", "agg.build_all", span=True, on_result=lifted)
        self.install(skeleton, "ground_graph", "skeleton.ground_graph", span=True,
                     on_result=ground_edges)
        self.install(rcd, "orient", "agg.orient",
                     on_result=lambda changed: changed and bump("orientations"))
        self.install(rcd, "unshielded_triples", "agg.unshielded_triples",
                     on_result=lambda triples: bump("triples", len(triples)))
        self.install(rcd, "find_sepset", "ci.find_sepset",
                     on_result=lambda sep: sep is not None and bump("sepset_found"))
        # both call sites of terminal_set: column building and grounding
        self.install(ci, "terminal_set", "skeleton.terminal_set")
        self.install(skeleton, "terminal_set", "skeleton.terminal_set")
        self.install(getattr(ci, "RegressionCI", None), "_test", "ci.regression.test")
        self.install(getattr(ci, "RegressionCI", None), "_column", "ci.regression.column")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def backend(self, inner):
        self._backends.append(inner)
        return _TracedBackend(inner, self.wrap(inner.independent, "ci.independent"))

    def start_op(self, op: int) -> None:
        """Stamp later spans with ``op``; count the memo misses of finished ones.

        Both backends memoize every verdict they compute, so the memo's size
        is the number of queries that missed it.
        """
        for backend in self._backends:
            memo = getattr(backend, "_memo", None)
            if memo is None:
                self.absent.add("ci.memo_hit_ratio (backend memo)")
            else:
                self.totals["memo_misses"] += len(memo)
        self._backends.clear()
        self.op = op

    # -- reporting --------------------------------------------------------

    def _stat(self, name: str, key: str):
        entry = self.stats.get(name)
        return entry[key] if entry else 0

    def _below(self, name: str, key: str) -> int:
        entry = self.stats.get(name)
        return entry["below"][key] if entry else 0

    def layer_metrics(self) -> dict[str, float]:
        s, below = self._stat, self._below
        queries = s("ci.independent", "calls")
        self.start_op(-1)
        misses = self.totals["memo_misses"]
        sepsets = s("ci.find_sepset", "calls")
        firsts, laters = self._vote_runs()
        out = {
            "harness.generate_case.s": s("harness.generate_case", "total"),
            "rcd.phase1.s": s("rcd.phase1", "total"),
            "rcd.phase1.ci_queries": below("rcd.phase1", "ci.independent"),
            "agg.build_all.s": s("agg.build_all", "total"),
            "agg.nodes": self.totals["agg.nodes"],
            "agg.edges": self.totals["agg.edges"],
            "rcd.collider_detection.s": s("rcd.collider_detection", "total"),
            "rcd.collider_detection.ci_queries": below("rcd.collider_detection", "ci.independent"),
            "rcd.bivariate_orientation.s": s("rcd.bivariate_orientation", "total"),
            "rcd.bivariate_orientation.ci_queries":
                below("rcd.bivariate_orientation", "ci.independent"),
            "rcd.triples_scanned": self.totals["triples"],
            "rcd.meek_rules.s": s("rcd.meek_rules", "total"),
            "rcd.meek_rules.orientations": below("rcd.meek_rules", "orientations"),
            "agg.orient.s": s("agg.orient", "total"),
            "agg.orient.calls": s("agg.orient", "calls"),
            "ci.oracle.build_agg.s": s("ci.oracle.build_agg", "total"),
            "ci.find_sepset.calls": sepsets,
            "ci.find_sepset.found_ratio":
                self.totals["sepset_found"] / sepsets if sepsets else 0.0,
            "ci.independent.s": s("ci.independent", "total"),
            "ci.independent.calls": queries,
            "ci.memo_hit_ratio": 1.0 - misses / queries if queries else 0.0,
            "ci.regression.solve.s": s("ci.regression.test", "self"),
            "ci.regression.failed": s("ci.regression.test", "raised"),
            "ci.regression.zero_variance": self.totals["zero_variance"],
            "rcd.vote.first_run_s": statistics.median(firsts) if firsts else 0.0,
            "rcd.vote.later_run_s.p50": statistics.median(laters) if laters else 0.0,
            "skeleton.terminal_set.calls": s("skeleton.terminal_set", "calls"),
            "skeleton.terminal_set.s": s("skeleton.terminal_set", "total"),
            "skeleton.random_skeleton.s": s("skeleton.random_skeleton", "total"),
            "skeleton.ground_graph.s": s("skeleton.ground_graph", "total"),
            "skeleton.ground_edges": self.totals["skeleton.ground_edges"],
            "skeleton.sample_data.s": s("skeleton.sample_data", "total"),
            "skeleton.save_skeleton.s": s("skeleton.save_skeleton", "total"),
            "skeleton.load_skeleton.s": s("skeleton.load_skeleton", "total"),
        }
        return out

    def _vote_runs(self) -> tuple[list[float], list[float]]:
        """Durations of each vote's first learn and of its later learns."""
        firsts, laters = [], []
        seen: set[int] = set()
        for name, start, end, parent, _op in self.spans:
            if name != "rcd.rcd_learn" or parent < 0 or self.spans[parent][0] != "rcd.majority_vote":
                continue
            (laters if parent in seen else firsts).append(end - start)
            seen.add(parent)
        return firsts, laters

    def self_time_table(self) -> list[tuple[str, int, float, float]]:
        rows = [(n, e["calls"], e["total"], e["self"]) for n, e in self.stats.items()]
        return sorted(rows, key=lambda r: -r[3])

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "absent": sorted(self.absent),
            "self_time": [
                {"name": n, "calls": c, "total_s": t, "self_s": st}
                for n, c, t, st in self.self_time_table()
            ],
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc) + "\n")


class _TracedBackend:
    """A CI backend whose ``independent`` calls are timed and counted."""

    def __init__(self, inner, independent):
        self._inner = inner
        self.independent = independent

    def __getattr__(self, name):
        return getattr(self._inner, name)
