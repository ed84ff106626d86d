"""Conditional-independence backends behind one query interface, by node id.

Every backend answers ``independent(table, x, y, z=0)``: are the variables
with ids x and y in the node table ``table`` (``agg.NodeTable``, one
perspective's variables in ``variable_key`` order) independent given those
whose ids are set in the bitmask z? The learner asks only this way, with the
tables ``node_table`` interns at twice its hop threshold: phase I, the lifted
graphs (an ``Agg`` is a table), ``find_sepset`` and an oracle at the same
hops share their ids (an oracle at other hops translates them). ``ask(backend,
x, y, cond)`` is the one entry point by variable (``relcd dsep``, tests): it
checks the query (``check_query``) and asks by the ids of a table of its own
variables. A table holds only its perspective's variables, so a backend
checks a query only when it repeats an id (x equal to y, or x or y in z):
the regression test on a memo miss, the oracle before it reads its memo.

The exact oracle asks the fully directed lifted graphs of a known model
(``oriented_agg``) for d-separation; they lift the canonical pairs the
model carries (``RelationalModel.pairs``), share the learner's cached
lifting and direct bits of their own. It memoizes Bayes-ball walks, not
verdicts: a walk from y given Z answers (x, y | Z) for every x it reached,
and for every x at all once it ran out. The regression test takes the partial
correlation of x and y given Z on skeleton data, each variable averaged over
its terminal sets through one ``skeleton.TerminalSets`` walker per backend,
so relational paths that share a prefix share its sparse hops.
``find_sepset`` is the separating-set search of both learner phases, over a
pool given as an id mask; it counts its tests per label in a ``Counter`` and
records nothing (the learner keeps one dict of separating sets).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np
from scipy import special

from .agg import Agg, NodeTable, bits, build_agg
from .model import RelationalModel, RelationalVariable
from .paths import is_valid
from .skeleton import Skeleton, TerminalSets, terminal_means


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


def oriented_agg(model: RelationalModel, perspective: str, hops: int) -> Agg:
    """One perspective's lifted graph of a model, directed as the model is."""
    pairs = model.pairs  # validated and canonicalized once, by the model
    agg = build_agg(pairs, model.schema, perspective, hops)
    for pair, d in pairs.items():
        agg.direct(pair, d)
    return agg


class OracleCI:
    """Exact relational d-separation over the true model's lifted graphs.

    One fully directed graph per perspective is built lazily at the oracle
    hop threshold and kept. The memo holds walks on its ids: under
    (perspective, source, Z), the ids ``Agg.reach`` reached from the source
    given Z, and whether that walk ran out (is complete). A query (x, y | Z)
    is dependent if a walk from y reached x or one from x reached y, and
    independent if a complete walk from either missed the other; otherwise
    the oracle walks from y and stores that walk over any partial one.
    Both verdicts are exact. The ids of another table than the graph's (an
    oracle at other hops than the learner's) are translated through the
    graph's index on each query.

    ``exact`` tells the learner that no verdict is wrong, so it orients
    from the unshielded triples with a base endpoint only (``rcd``'s
    ``_triple_pass``), which learn what every triple learns at the default
    depth. A backend without it, such as ``RegressionCI``, is asked of every
    triple: on data the restriction changes the learned pattern.
    """

    exact = True

    def __init__(self, model: RelationalModel, hops: int = 8):
        if hops < 0:
            raise ValueError("hops must be >= 0")
        self.model = model
        self.hops = hops
        self._aggs: dict[str, Agg] = {}
        # (perspective, source, z) -> (reached, complete): a walk's result
        self._memo: dict[tuple, tuple[int, bool]] = {}

    def _agg(self, perspective: str) -> Agg:
        agg = self._aggs.get(perspective)
        if agg is None:
            agg = self._aggs[perspective] = oriented_agg(
                self.model, perspective, self.hops
            )
        return agg

    def independent(self, table: NodeTable, x: int, y: int, z: int = 0) -> bool:
        perspective = table.perspective
        agg = self._aggs.get(perspective) or self._agg(perspective)
        if table.nodes is not agg.nodes:
            nodes = [table.nodes[i] for i in (x, y, *bits(z))]
            mapped = [agg.index.get(v) for v in nodes]
            if None in mapped:
                check_query(perspective, nodes[0], nodes[1], frozenset(nodes[2:]))
                raise ValueError(self._unknown(nodes[mapped.index(None)]))
            x, y, z = mapped[0], mapped[1], sum(1 << i for i in mapped[2:])
        # before the memo: a walk excludes Z, so it would call x in Z independent
        if x == y or (z >> x | z >> y) & 1:
            cond = frozenset(agg.nodes[i] for i in bits(z))
            check_query(perspective, agg.nodes[x], agg.nodes[y], cond)
        memo = self._memo
        walk = memo.get((perspective, y, z))
        if walk is not None:
            if walk[0] >> x & 1:
                return False
            if walk[1]:
                return True
        walk = memo.get((perspective, x, z))
        if walk is not None:
            if walk[0] >> y & 1:
                return False
            if walk[1]:
                return True
        reached = agg.reach(y, z, x)
        separated = not reached >> x & 1
        memo[(perspective, y, z)] = (reached, separated)
        return separated

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


def check_regression_parameters(alpha: float, effect_threshold: float) -> None:
    """Raise ``ValueError`` unless ``RegressionCI`` accepts both parameters."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if not effect_threshold >= 0:
        raise ValueError("effect_threshold must be >= 0")


class RegressionCI:
    """Partial-correlation test on skeleton data with average aggregation.

    One row per perspective instance; each variable column is the mean of
    its terminal-set values (``skeleton.terminal_means``, which the sampler
    aggregates with too), and rows touching an empty terminal set are
    dropped. An attribute whose values are all equal gives that value
    exactly on every row with members, so its columns are found constant.
    Every node needs a finite value. Terminal sets come from one
    ``TerminalSets`` walker that lives as long as the backend, so each
    distinct path prefix costs one sparse hop, and a path's terminal sets
    serve every attribute on it.
    x and y are dependent given Z when their partial correlation, that of
    their residuals on the centred Z, passes a t-test at ``alpha`` with a
    standardized effect of at least ``effect_threshold``. A query with too
    few usable rows, a constant column (all its usable values equal), or an
    x or y that Z determines is read independent and counted in ``outcomes``.
    """

    def __init__(
        self,
        skeleton: Skeleton,
        alpha: float = 0.05,
        effect_threshold: float = 0.01,
    ):
        check_regression_parameters(alpha, effect_threshold)
        if not skeleton.values:
            raise ValueError("skeleton carries no attribute values")
        for node in skeleton.nodes():
            value = skeleton.values.get(node)
            if value is None:
                raise ValueError(f"skeleton has no value for {node}")
            if not math.isfinite(value):
                raise ValueError(f"skeleton value for {node} is not finite: {value!r}")
        self.skeleton = skeleton
        self.alpha = alpha
        self.effect_threshold = effect_threshold
        self.outcomes: Counter = Counter()
        self._columns: dict[RelationalVariable, tuple[np.ndarray, np.ndarray]] = {}
        self._reach = TerminalSets(skeleton)
        self._values: dict[tuple[str, str], np.ndarray] = {}
        self._memo: dict[tuple, bool] = {}

    def _column(self, var: RelationalVariable) -> tuple[np.ndarray, np.ndarray]:
        cached = self._columns.get(var)
        if cached is not None:
            return cached
        cls = var.path.last
        values = self._values.get((cls, var.attribute))
        if values is None:
            values = self._values[(cls, var.attribute)] = np.array(
                [
                    self.skeleton.values[(cls, inst, var.attribute)]
                    for inst in self.skeleton.instances_of(cls)
                ]
            )
        col, ok = terminal_means(self._reach(var.path), values)
        if values.size and values.min() == values.max():
            # fsum/len of k copies of c need not be c, so a constant attribute
            # would average to a column of rounding noise; + 0.0 reads -0.0
            # as 0.0, as fsum does
            col = np.where(ok, values[0] + 0.0, 0.0)
        self._columns[var] = col, ok
        return col, ok

    def independent(self, table: NodeTable, x: int, y: int, z: int = 0) -> bool:
        nodes = table.nodes
        # variables in query order, the conditioning set in variable_key order
        key = (nodes[x], nodes[y], tuple([nodes[i] for i in bits(z)]))
        verdict = self._memo.get(key)
        if verdict is None:
            if x == y or (z >> x | z >> y) & 1:
                check_query(table.perspective, key[0], key[1], frozenset(key[2]))
            pval, effect = self._test(*key)
            verdict = pval >= self.alpha or abs(effect) < self.effect_threshold
            self._memo[key] = verdict
        return verdict

    def _test(self, x, y, cond) -> tuple[float, float]:
        cols, masks = zip(*(self._column(v) for v in (x, y, *cond)))
        data = np.compress(np.logical_and.reduce(masks), cols, axis=1)
        k, n = data.shape
        if n <= k:
            self.outcomes["too_few_rows"] += 1
            return 1.0, 0.0
        if (data.min(axis=1) == data.max(axis=1)).any():
            self.outcomes["zero_variance"] += 1
            return 1.0, 0.0
        data -= data.mean(axis=1, keepdims=True)
        xy, z = data[:2], data[2:]
        resid = xy - np.linalg.lstsq(z.T, xy.T, rcond=None)[0].T @ z
        (sxx, sxy), (_, syy) = resid @ resid.T
        vx, vy = np.einsum("ij,ij->i", xy, xy)
        tol = n * np.finfo(float).eps  # Z leaves x or y only rounding error
        if sxx <= tol * vx or syy <= tol * vy:
            self.outcomes["collinear"] += 1
            return 1.0, 0.0
        r2 = sxy * sxy / (sxx * syy)
        t2 = (n - k) * r2 / (1.0 - r2) if r2 < 1.0 else math.inf
        # the Student-t survival function, without importing scipy.stats
        pval = 2.0 * float(special.stdtr(n - k, -math.sqrt(t2)))
        return pval, float(sxy / sxx * math.sqrt(vx / vy))


def ask(
    ci_backend,
    x: RelationalVariable,
    y: RelationalVariable,
    cond: frozenset[RelationalVariable] = frozenset(),
) -> bool:
    """Check a query by variable, then ask it by the ids of its own table."""
    check_query(x.perspective, x, y, cond)
    table = NodeTable.of(x.perspective, (x, y, *cond))
    index = table.index
    z = sum(1 << index[v] for v in cond)
    return ci_backend.independent(table, index[x], index[y], z)


def find_sepset(
    ci_backend,
    table: NodeTable,
    x: int,
    y: int,
    pool: int,
    sizes: range,
    *,
    stats: Counter | None,
    label: str,
    rng: np.random.Generator | None,
) -> int | None:
    """First separating set among pool subsets whose size lies in ``sizes``.

    ``x`` and ``y`` are ids of ``table``; the pool, like every set here, is
    an id bitmask, and its bits of x and y are ignored. Subsets are tried by
    size, each size in canonical (id) order, or in a per-run permutation of
    the pool when ``rng`` is given. The search records nothing; the caller
    keeps what it finds. Sizes beyond the pool are skipped, and a search
    with no size left returns None before it draws from ``rng``.
    """
    masks = [1 << i for i in bits(pool & ~(1 << x | 1 << y))]
    sizes = [size for size in sizes if size <= len(masks)]
    if not sizes:
        return None
    if rng is not None:
        rng.shuffle(masks)
    for size in sizes:
        for combo in combinations(masks, size):
            z = sum(combo)
            if stats is not None:
                stats[label] += 1
            if ci_backend.independent(table, x, y, z):
                return z
    return None
