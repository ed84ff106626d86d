"""Conditional-independence backends behind one query interface.

Every backend answers ``independent(x, y, cond=frozenset())``: are the
relational variables x and y independent given the set ``cond``? The
query's perspective is ``x.perspective``. A backend checks the query
(``check_query``) when it computes a verdict, so a memoized verdict is not
checked again. The oracle checks by node id: a variable it finds in the
perspective's graph belongs to that perspective, so only a repeated id
(x equal to y, or x or y in ``cond``) is left to refuse.

The exact oracle asks the fully directed lifted graphs of a known model
(``oriented_agg``) for d-separation; the regression test averages each
variable over its terminal sets in skeleton data, one relational path at a
time (``skeleton.terminal_sets``). ``find_sepset`` is the separating-set search
of both learner phases; it counts its tests per label in a ``Counter``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np
from scipy import sparse, special

from .agg import Agg, build_agg
from .model import (
    RelationalModel,
    RelationalVariable,
    canonical_pair,
    variable_key,
)
from .paths import RelationalPath, is_valid
from .skeleton import Skeleton, terminal_sets


def check_query(
    perspective: str,
    x: RelationalVariable,
    y: RelationalVariable,
    cond: frozenset[RelationalVariable] = frozenset(),
) -> None:
    """Raise ``ValueError`` unless (x, y | cond) is a query of one perspective."""
    if x == y:
        raise ValueError("query variables must differ")
    if x in cond or y in cond:
        raise ValueError("conditioning set must exclude the query variables")
    for v in (x, y, *cond):
        if v.path.items[0] != perspective:
            raise ValueError(f"{v} is not a {perspective}-perspective variable")


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


def oriented_agg(model: RelationalModel, perspective: str, hops: int) -> Agg:
    """One perspective's lifted graph of a model, directed as the model is."""
    agg = build_agg(model.dependencies, model.schema, perspective, hops)
    for d in model.dependencies:
        agg.direct(canonical_pair(d), d)
    return agg


class OracleCI:
    """Exact relational d-separation over the true model's lifted graphs.

    One fully directed graph per perspective is built lazily at the oracle
    hop threshold and cached; verdicts are memoized.
    """

    def __init__(self, model: RelationalModel, hops: int = 8):
        if hops < 0:
            raise ValueError("hops must be >= 0")
        self.model = model
        self.hops = hops
        self._aggs: dict[str, Agg] = {}
        self._memo: dict[tuple, bool] = {}

    def _agg(self, perspective: str) -> Agg:
        agg = self._aggs.get(perspective)
        if agg is None:
            agg = self._aggs[perspective] = oriented_agg(
                self.model, perspective, self.hops
            )
        return agg

    def independent(
        self,
        x: RelationalVariable,
        y: RelationalVariable,
        cond: frozenset[RelationalVariable] = frozenset(),
    ) -> bool:
        perspective = x.perspective
        agg = self._agg(perspective)
        index = agg.index
        try:
            xi, yi = index[x], index[y]
            zi = frozenset([index[c] for c in cond])
        except KeyError as exc:
            check_query(perspective, x, y, cond)
            raise ValueError(self._unknown(exc.args[0])) from None
        key = (perspective, min(xi, yi), max(xi, yi), zi)
        verdict = self._memo.get(key)
        if verdict is None:
            # every indexed variable belongs to the perspective, so only the
            # overlap checks remain, and ids decide them
            if xi == yi or xi in zi or yi in zi:
                check_query(perspective, x, y, cond)
            verdict = self._memo[key] = agg.d_separated(xi, yi, zi)
        return verdict

    def _unknown(self, v: RelationalVariable) -> str:
        schema = self.model.schema  # a schema fault first, then the hop bound
        try:
            if not is_valid(v.path, schema):
                return f"{v}: path is not valid under the schema"
        except ValueError as exc:  # an unknown item class
            return f"{v}: {exc}"
        if v.attribute not in schema.attributes_of(v.path.last):
            return f"{v}: {v.path.last!r} has no attribute {v.attribute!r}"
        return f"variable outside oracle node set at {self.hops} hops: {v}"


class RegressionCI:
    """Linear-regression test on skeleton data with average aggregation.

    One row per perspective instance; each variable column is the mean of
    its terminal-set values, and rows touching an empty terminal set are
    dropped. Terminal sets come from ``terminal_sets`` once per relational
    path and are shared by every attribute on that path. Dependence
    requires the regressor of interest to be both significant at ``alpha``
    and above the standardized effect threshold. A query with too few
    usable rows, or with a constant column, is reported independent and
    counted in ``outcomes`` (``too_few_rows``, ``zero_variance``).
    """

    def __init__(
        self,
        skeleton: Skeleton,
        alpha: float = 0.05,
        effect_threshold: float = 0.01,
    ):
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if not effect_threshold >= 0:
            raise ValueError("effect_threshold must be >= 0")
        if not skeleton.values:
            raise ValueError("skeleton carries no attribute values")
        for node in skeleton.nodes():
            if node not in skeleton.values:
                raise ValueError(f"skeleton has no value for {node}")
        self.skeleton = skeleton
        self.alpha = alpha
        self.effect_threshold = effect_threshold
        self.outcomes: Counter = Counter()
        self._columns: dict[RelationalVariable, tuple[np.ndarray, np.ndarray]] = {}
        self._reach: dict[RelationalPath, sparse.csr_array] = {}
        self._values: dict[tuple[str, str], np.ndarray] = {}
        self._memo: dict[tuple, bool] = {}

    def _column(self, var: RelationalVariable) -> tuple[np.ndarray, np.ndarray]:
        cached = self._columns.get(var)
        if cached is not None:
            return cached
        reach = self._reach.get(var.path)
        if reach is None:
            reach = self._reach[var.path] = terminal_sets(self.skeleton, var.path)
        cls = var.path.last
        values = self._values.get((cls, var.attribute))
        if values is None:
            values = self._values[(cls, var.attribute)] = np.array(
                [
                    self.skeleton.values[(cls, inst, var.attribute)]
                    for inst in self.skeleton.instances_of(cls)
                ]
            )
        picked = values[reach.indices]
        starts = reach.indptr[:-1]
        counts = np.diff(reach.indptr)
        col = np.zeros(len(counts))
        # fsum is exact, so the mean cannot depend on summation order. One
        # IEEE add is correctly rounded too, so rows of one or two members
        # match it; adding 0.0 turns -0.0 into the 0.0 fsum returns.
        one = np.flatnonzero(counts == 1)
        col[one] = picked[starts[one]] + 0.0
        two = np.flatnonzero(counts == 2)
        col[two] = (picked[starts[two]] + picked[starts[two] + 1] + 0.0) / 2
        flat = picked.tolist()
        bounds = reach.indptr.tolist()
        for i in np.flatnonzero(counts > 2).tolist():
            lo, hi = bounds[i], bounds[i + 1]
            col[i] = math.fsum(flat[lo:hi]) / (hi - lo)
        ok = counts > 0
        self._columns[var] = (col, ok)
        return col, ok

    def independent(
        self,
        x: RelationalVariable,
        y: RelationalVariable,
        cond: frozenset[RelationalVariable] = frozenset(),
    ) -> bool:
        key = (x, y, cond)
        verdict = self._memo.get(key)
        if verdict is None:
            check_query(x.perspective, x, y, cond)
            verdict = self._memo[key] = self._test(x, y, cond)
        return verdict

    def _test(self, x, y, cond) -> bool:
        cond = sorted(cond, key=variable_key)
        cols, masks = zip(*(self._column(v) for v in (x, y, *cond)))
        mask = np.logical_and.reduce(masks)
        n = int(mask.sum())
        if n < len(cond) + 3:
            self.outcomes["too_few_rows"] += 1
            return True
        data = [c[mask] for c in cols]
        if any(float(np.std(c)) == 0.0 for c in data):
            self.outcomes["zero_variance"] += 1
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
            # the Student-t survival function, without importing scipy.stats
            pval = 2.0 * float(special.stdtr(dof, -abs(beta[1]) / se))
        std_coef = float(beta[1]) * float(np.std(xcol)) / float(np.std(ycol))
        dependent = pval < self.alpha and abs(std_coef) >= self.effect_threshold
        return not dependent


def find_sepset(
    ci_backend,
    x: RelationalVariable,
    y: RelationalVariable,
    candidate_pool,
    sizes: range,
    *,
    store: SepsetStore,
    stats: Counter | None,
    label: str,
    rng: np.random.Generator | None,
) -> frozenset | None:
    """First separating set among pool subsets whose size lies in ``sizes``.

    Subsets are tried by size, each size in canonical order (or in a per-run
    permutation of the pool when ``rng`` is given); a found set is recorded
    in the store. Sizes beyond the pool are skipped, and a search with no
    size left returns None before it draws from ``rng``.
    """
    pool = sorted(set(candidate_pool) - {x, y}, key=variable_key)
    sizes = [size for size in sizes if size <= len(pool)]
    if not sizes:
        return None
    if rng is not None:
        rng.shuffle(pool)
    for size in sizes:
        for combo in combinations(pool, size):
            cond = frozenset(combo)
            if stats is not None:
                stats[label] += 1
            if ci_backend.independent(x, y, cond):
                store.record(x, y, cond)
                return cond
    return None
