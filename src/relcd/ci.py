"""Conditional-independence backends behind one query interface.

Two interchangeable backends answer queries between relational variables of
a shared perspective: an exact graphical oracle over the fully directed
lifted graphs of a known model, and a regression test on skeleton data that
averages each variable over its terminal sets. A separating-set search sits
on top; it counts its tests per label in a ``collections.Counter``.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import stats as scipy_stats

from .agg import DirectedSnapshot, build_agg
from .model import (
    RelationalModel,
    RelationalVariable,
    canonical_pair,
    variable_key,
)
from .skeleton import Skeleton, terminal_set


@dataclass(frozen=True)
class CIQuery:
    perspective: str
    x: RelationalVariable
    y: RelationalVariable
    cond: frozenset[RelationalVariable] = frozenset()

    def __post_init__(self):
        if self.x == self.y:
            raise ValueError("query variables must differ")
        if self.x in self.cond or self.y in self.cond:
            raise ValueError("conditioning set must exclude the query variables")
        for v in (self.x, self.y, *self.cond):
            if v.perspective != self.perspective:
                raise ValueError(
                    f"{v} is not a {self.perspective}-perspective variable"
                )


class SepsetStore:
    """First recorded separating set per unordered variable pair."""

    def __init__(self):
        self._sets: dict[frozenset, frozenset] = {}

    def record(
        self,
        x: RelationalVariable,
        y: RelationalVariable,
        sepset: frozenset,
    ) -> None:
        self._sets.setdefault(frozenset((x, y)), frozenset(sepset))

    def get(
        self, x: RelationalVariable, y: RelationalVariable
    ) -> frozenset | None:
        return self._sets.get(frozenset((x, y)))

    def __len__(self):
        return len(self._sets)


class OracleCI:
    """Exact relational d-separation over the true model's lifted graphs.

    One fully directed graph per perspective is built lazily at the oracle
    hop threshold and cached; verdicts are memoized.
    """

    def __init__(self, model: RelationalModel, hops: int = 8):
        self.model = model
        self.hops = hops
        self.calls = 0
        self._snapshots: dict[str, DirectedSnapshot] = {}
        self._memo: dict[tuple, bool] = {}

    def _snapshot(self, perspective: str) -> DirectedSnapshot:
        snap = self._snapshots.get(perspective)
        if snap is None:
            registry = {
                canonical_pair(d): d for d in self.model.dependencies
            }
            agg = build_agg(
                self.model.dependencies,
                self.model.schema,
                perspective,
                self.hops,
                registry,
            )
            snap = DirectedSnapshot(agg)
            self._snapshots[perspective] = snap
        return snap

    def independent(self, query: CIQuery) -> bool:
        self.calls += 1
        snap = self._snapshot(query.perspective)
        try:
            xi = snap.index[query.x]
            yi = snap.index[query.y]
            zi = frozenset(snap.index[c] for c in query.cond)
        except KeyError as exc:
            raise ValueError(
                f"variable outside oracle node set at {self.hops} hops: {exc}"
            ) from exc
        key = (query.perspective, min(xi, yi), max(xi, yi), zi)
        verdict = self._memo.get(key)
        if verdict is None:
            verdict = snap.d_separated(xi, yi, zi)
            self._memo[key] = verdict
        return verdict


class RegressionCI:
    """Linear-regression test on skeleton data with average aggregation.

    One row per perspective instance; each variable column is the mean of
    its terminal-set values, and rows touching an empty terminal set are
    dropped. Dependence requires the regressor of interest to be both
    significant at ``alpha`` and above the standardized effect threshold.
    """

    def __init__(
        self,
        skeleton: Skeleton,
        alpha: float = 0.05,
        effect_threshold: float = 0.01,
    ):
        if not skeleton.values:
            raise ValueError("skeleton carries no attribute values")
        self.skeleton = skeleton
        self.alpha = alpha
        self.effect_threshold = effect_threshold
        self.calls = 0
        self._columns: dict[RelationalVariable, tuple[np.ndarray, np.ndarray]] = {}
        self._memo: dict[tuple, bool] = {}

    def _column(self, var: RelationalVariable) -> tuple[np.ndarray, np.ndarray]:
        cached = self._columns.get(var)
        if cached is not None:
            return cached
        skel = self.skeleton
        cls = var.path.last
        rows = skel.instances_of(var.perspective)
        col = np.zeros(len(rows))
        ok = np.zeros(len(rows), dtype=bool)
        for i, inst in enumerate(rows):
            reached = terminal_set(skel, var.path, inst)
            if reached:
                # fsum is exact, so the set's iteration order cannot matter
                col[i] = math.fsum(
                    skel.values[(cls, r, var.attribute)] for r in reached
                ) / len(reached)
                ok[i] = True
        self._columns[var] = (col, ok)
        return col, ok

    def independent(self, query: CIQuery) -> bool:
        self.calls += 1
        key = (query.x, query.y, query.cond)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        verdict = self._test(query)
        self._memo[key] = verdict
        return verdict

    def _test(self, query: CIQuery) -> bool:
        cond = sorted(query.cond, key=variable_key)
        cols, masks = zip(
            *(self._column(v) for v in (query.x, query.y, *cond))
        )
        mask = np.logical_and.reduce(masks)
        n = int(mask.sum())
        p = 1 + len(cond)
        if n < p + 2:
            raise ValueError(
                f"only {n} usable rows for {p} regressors in {query.perspective} query"
            )
        data = [c[mask] for c in cols]
        for v, c in zip((query.x, query.y, *cond), data):
            if float(np.std(c)) == 0.0:
                warnings.warn(
                    f"zero-variance column {v}; reporting independence",
                    stacklevel=2,
                )
                return True
        xcol, ycol = data[0], data[1]
        design = np.column_stack([np.ones(n), xcol, *data[2:]])
        beta, _, _, _ = np.linalg.lstsq(design, ycol, rcond=None)
        resid = ycol - design @ beta
        dof = n - design.shape[1]
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.pinv(design.T @ design)
        se = float(np.sqrt(max(cov[1, 1], 0.0)))
        if se == 0.0:
            pval = 0.0
        else:
            pval = 2.0 * float(scipy_stats.t.sf(abs(beta[1]) / se, dof))
        std_coef = float(beta[1]) * float(np.std(xcol)) / float(np.std(ycol))
        dependent = pval < self.alpha and abs(std_coef) >= self.effect_threshold
        return not dependent


def find_sepset(
    ci_backend,
    x: RelationalVariable,
    y: RelationalVariable,
    candidate_pool,
    max_depth: int,
    *,
    store: SepsetStore | None = None,
    stats: Counter | None = None,
    label: str = "sepset",
    rng: np.random.Generator | None = None,
) -> frozenset | None:
    """First separating set among pool subsets of size 0..max_depth.

    Candidates are enumerated in canonical order (or a per-run permutation
    when ``rng`` is given); a found set is recorded in the store.
    """
    if x.perspective != y.perspective:
        raise ValueError("variables must share a perspective")
    pool = sorted(set(candidate_pool) - {x, y}, key=variable_key)
    if rng is not None:
        rng.shuffle(pool)
    for size in range(min(max_depth, len(pool)) + 1):
        for combo in combinations(pool, size):
            cond = frozenset(combo)
            if stats is not None:
                stats[label] += 1
            if ci_backend.independent(CIQuery(x.perspective, x, y, cond)):
                if store is not None:
                    store.record(x, y, cond)
                return cond
    return None
