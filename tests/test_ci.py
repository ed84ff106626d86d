import itertools
import math
import os
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relcd
from relcd.agg import Agg, NodeTable, bits, build_all, node_table
from relcd.ci import (
    OracleCI,
    RegressionCI,
    ask,
    check_query,
    find_sepset,
)
from relcd.errors import Infeasible
from relcd.harness import generate_case
from relcd.model import RelationalVariable, random_model
from relcd.paths import enumerate_paths
from relcd.rcd import LearnConfig, bivariate_orientation, collider_detection, phase1
from relcd.schema import AttributeClass, random_schema, schema_to_json
from relcd.skeleton import ground_graph, random_skeleton, sample_data, save_skeleton
from tests.conftest import CountingCI, propositional_model, single_entity_schema, var
from tests.reference import digraph, lifted_digraph, regression_slope_test, terminal_set


POP = var(["ACTOR"], "Popularity")
COSTAR_POP = var(["ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR"], "Popularity")
SUCCESS_VIA_ACTOR = var(["ACTOR", "STARS-IN", "MOVIE"], "Success")
POP_VIA_MOVIE = var(["MOVIE", "STARS-IN", "ACTOR"], "Popularity")
SUCCESS = var(["MOVIE"], "Success")
OTHER_SUCCESS = var(["MOVIE", "STARS-IN", "ACTOR", "STARS-IN", "MOVIE"], "Success")
OTHER_ACTOR_SUCCESS = var(
    ["ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR", "STARS-IN", "MOVIE"], "Success"
)


INVALID_QUERIES = [
    ((POP, POP), "query variables must differ"),
    (
        (POP, COSTAR_POP, frozenset((POP,))),
        "conditioning set must exclude the query variables",
    ),
    ((SUCCESS, POP), r"\[ACTOR\].Popularity is not a MOVIE-perspective variable"),
    (
        (SUCCESS, POP_VIA_MOVIE, frozenset((POP,))),
        r"\[ACTOR\].Popularity is not a MOVIE-perspective variable",
    ),
]


def test_query_validation(movie_truth, movie_data):
    for backend in (OracleCI(movie_truth, hops=8), RegressionCI(movie_data)):
        ask(backend, POP, COSTAR_POP)  # a valid query fills the memo
        for query, message in INVALID_QUERIES:
            for _ in range(2):  # a refused query leaves no memo entry
                with pytest.raises(ValueError, match=message):
                    ask(backend, *query)
    for query, message in INVALID_QUERIES:
        with pytest.raises(ValueError, match=message):
            check_query(query[0].perspective, *query)


def test_oracle_movie_examples(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    assert ask(backend, POP, COSTAR_POP)
    assert not ask(backend, POP_VIA_MOVIE, SUCCESS)
    assert ask(backend, SUCCESS, OTHER_SUCCESS, frozenset((POP_VIA_MOVIE,)))


def test_oracle_conditioning_opens_collider(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    assert not ask(backend, 
        POP, COSTAR_POP, frozenset((SUCCESS_VIA_ACTOR,))
    )


def test_oracle_rejects_out_of_range_variable(movie_truth):
    backend = OracleCI(movie_truth, hops=2)
    with pytest.raises(ValueError, match="outside"):
        ask(backend, POP, COSTAR_POP)


def test_oracle_rejects_negative_hops(movie_truth):
    with pytest.raises(ValueError, match="hops must be >= 0"):
        OracleCI(movie_truth, hops=-1)


def test_oracle_counts_calls(movie_truth):
    oracle = OracleCI(movie_truth, hops=8)
    backend = CountingCI(oracle)
    assert ask(backend, POP, COSTAR_POP)
    assert ask(backend, COSTAR_POP, POP)
    assert backend.calls == 2
    # the first query's walk ran out, so it answers the reversed query
    assert len(oracle._memo) == 1


def test_oracle_canonicalizes_each_dependency_once(monkeypatch):
    # the model carries its pairs, so an oracle that lifts every perspective
    # canonicalizes each dependency once, not once per perspective
    seq = np.random.SeedSequence(entropy=0, spawn_key=(4, 15, 0))
    schema, truth = generate_case(4, 15, 4, seq)
    calls = []
    canonical_pair = relcd.model.canonical_pair

    def counted(dep):
        calls.append(dep)
        return canonical_pair(dep)

    for module in (relcd.model, relcd.agg, relcd.ci, relcd.rcd, relcd.harness):
        if hasattr(module, "canonical_pair"):
            monkeypatch.setattr(module, "canonical_pair", counted)
    oracle = OracleCI(truth, hops=8)
    perspectives = sorted(schema.item_classes)
    for perspective in perspectives:
        table = node_table(schema, perspective, 8)
        oracle.independent(table, 0, len(table.nodes) - 1)
    assert len(oracle._aggs) == len(perspectives) == 7
    assert calls == list(truth.dependencies)


def test_oracle_translates_other_tables(movie_truth):
    oracle = OracleCI(movie_truth, hops=8)
    own = node_table(movie_truth.schema, "ACTOR", 8)
    smaller = node_table(movie_truth.schema, "ACTOR", 4)
    for table in (own, smaller, own):
        i = table.index
        assert oracle.independent(table, i[POP], i[COSTAR_POP])
        assert not oracle.independent(
            table, i[COSTAR_POP], i[POP], 1 << i[SUCCESS_VIA_ACTOR]
        )
    assert not ask(oracle, POP, COSTAR_POP, frozenset((SUCCESS_VIA_ACTOR,)))
    # one memo entry per walk, whichever table asked
    assert len(oracle._memo) == 2


@pytest.mark.parametrize("own", [True, False])
def test_cached_walk_never_answers_an_invalid_query(movie_truth, own):
    # a complete walk from OTHER_SUCCESS given POP_VIA_MOVIE misses every id
    # in that Z and the walk's own source, so only the query check, run
    # before the memo, can refuse these queries; by the oracle's own ids and
    # through a table it translates
    oracle = OracleCI(movie_truth, hops=8)
    table = node_table(movie_truth.schema, "MOVIE", 8 if own else 4)
    i = table.index
    z = 1 << i[POP_VIA_MOVIE]
    assert oracle.independent(table, i[SUCCESS], i[OTHER_SUCCESS], z)
    mine = oracle._agg("MOVIE").index
    reached, complete = oracle._memo[("MOVIE", mine[OTHER_SUCCESS], 1 << mine[POP_VIA_MOVIE])]
    assert complete and not reached >> mine[SUCCESS] & 1
    invalid = [
        (i[POP_VIA_MOVIE], i[OTHER_SUCCESS], "conditioning set must exclude"),
        (i[OTHER_SUCCESS], i[POP_VIA_MOVIE], "conditioning set must exclude"),
        (i[OTHER_SUCCESS], i[OTHER_SUCCESS], "query variables must differ"),
    ]
    for x, y, message in invalid:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                oracle.independent(table, x, y, z)
    assert len(oracle._memo) == 1


def test_regression_never_answers_an_invalid_query(movie_data):
    # by node id, so that only the backend's own check, run before the memo,
    # can refuse a query that repeats an id
    backend = RegressionCI(movie_data)
    table = node_table(movie_data.schema, "ACTOR", 4)
    i = table.index
    backend.independent(table, i[POP], i[COSTAR_POP])  # fills the memo
    invalid = [
        (i[POP], i[POP], 0, "query variables must differ"),
        (i[POP], i[COSTAR_POP], 1 << i[POP], "conditioning set must exclude"),
        (i[POP], i[COSTAR_POP], 1 << i[COSTAR_POP], "conditioning set must exclude"),
    ]
    for x, y, z, message in invalid:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                backend.independent(table, x, y, z)
    assert len(backend._memo) == 1


@pytest.mark.parametrize("seed", range(6))
def test_oracle_walk_memo_answers_like_networkx(seed, monkeypatch):
    # every disjoint (x, y, Z) with |Z| <= 2, both ways round, twice, in a
    # shuffled order, so that partial walks, complete walks and misses all
    # answer; a walk runs exactly on a miss
    walks = []
    reach = Agg.reach

    def counted(agg, *args):
        walks.append(args)
        return reach(agg, *args)

    monkeypatch.setattr(Agg, "reach", counted)
    schema = random_schema(seed, 2)
    model = random_model(schema, 4, seed=seed, restarts=20)
    oracle = OracleCI(model, hops=3)
    answered = Counter()
    for perspective in sorted(schema.item_classes):
        agg = oracle._agg(perspective)
        if len(agg.nodes) > 11:
            continue
        g = lifted_digraph(agg)
        ids = range(len(agg.nodes))
        queries = [
            (x, y, z)
            for x, y in itertools.permutations(ids, 2)
            for size in range(3)
            for z in itertools.combinations([i for i in ids if i not in (x, y)], size)
        ]
        queries *= 2
        random.Random(seed).shuffle(queries)
        for x, y, z in queries:
            mask = sum(1 << i for i in z)
            entries = [
                (oracle._memo.get((perspective, a, mask)), b) for a, b in ((y, x), (x, y))
            ]
            if any(e and e[0] >> b & 1 and not e[1] for e, b in entries):
                kind = "partial"
            elif any(e and e[1] for e, _ in entries):
                kind = "complete"
            else:
                kind = "miss"
            walked = len(walks)
            mine = oracle.independent(agg, x, y, mask)
            assert mine == nx.is_d_separator(g, {x}, {y}, set(z)), (x, y, z)
            assert len(walks) - walked == (kind == "miss"), (x, y, z, kind)
            answered[kind] += 1
    assert answered["partial"] and answered["complete"] and answered["miss"]


@given(seed=st.integers(0, 2000))
@settings(max_examples=20, deadline=None)
def test_oracle_symmetry(seed):
    schema = random_schema(seed, 2)
    try:
        model = random_model(schema, 3, seed=seed, restarts=20)
    except Infeasible:
        return
    backend = OracleCI(model, hops=6)
    snap_vars = sorted(backend._agg(schema.entities[0].name).index, key=str)
    if len(snap_vars) < 3:
        return
    x, y, z = snap_vars[0], snap_vars[1], snap_vars[2]
    if x.attribute_class == y.attribute_class and x == y:
        return
    cond = frozenset((z,)) - {x, y}
    assert ask(backend, x, y, cond) == ask(backend, y, x, cond)


@given(seed=st.integers(0, 2000))
@settings(max_examples=20, deadline=None)
def test_oracle_matches_class_graph_on_single_entity(seed):
    schema = random_schema(seed, 1)
    attrs = schema.entities[0].attributes
    if len(attrs) < 2:
        return
    try:
        model = random_model(schema, min(3, len(attrs)), seed=seed, restarts=20)
    except Infeasible:
        return
    backend = OracleCI(model, hops=8)
    entity = schema.entities[0].name
    g = digraph(
        [AttributeClass(entity, a) for a in attrs],
        ((d.cause.attribute_class, d.effect.attribute_class) for d in model.dependencies),
    )
    a, b = attrs[0], attrs[1]
    others = frozenset(var([entity], c) for c in attrs[2:3])
    mine = ask(backend, var([entity], a), var([entity], b), others)
    theirs = nx.is_d_separator(
        g,
        {AttributeClass(entity, a)},
        {AttributeClass(entity, b)},
        {AttributeClass(entity, v.attribute) for v in others},
    )
    assert mine == theirs


def test_regression_detects_direct_dependency(movie_truth, movie_schema):
    # the direct pair reads as dependent for the vast majority of seeds
    hits = 0
    for seed in range(20):
        skel = random_skeleton(movie_schema, {"ACTOR": 1200, "MOVIE": 1200}, 3.0, seed=seed)
        values = sample_data(ground_graph(movie_truth, skel), seed=seed + 100)
        backend = RegressionCI(skel.with_values(values))
        if not ask(backend, POP_VIA_MOVIE, SUCCESS):
            hits += 1
    assert hits >= 19


def test_regression_null_size(movie_schema):
    from relcd.model import RelationalModel

    null = RelationalModel(movie_schema, ())
    accepted = 0
    for seed in range(20):
        skel = random_skeleton(movie_schema, {"ACTOR": 1200, "MOVIE": 1200}, 3.0, seed=seed)
        values = sample_data(ground_graph(null, skel), seed=seed + 500)
        backend = RegressionCI(skel.with_values(values))
        if ask(backend, POP_VIA_MOVIE, SUCCESS):
            accepted += 1
    assert accepted >= 16  # roughly 1 - alpha of seeds


ZERO_VARIANCE = [
    # (id, entity sizes, link density, seeds, constant values, query)
    (
        "all-zero", {"ACTOR": 50, "MOVIE": 50}, 2.0, (3,),
        {"ACTOR": 0.0, "MOVIE": 0.0}, (POP_VIA_MOVIE, SUCCESS),
    ),
    # constants whose np.mean over n copies is off by an ulp, so np.std is not 0
    *(
        (f"{role}-{c}-n{n}", {"ACTOR": n, "MOVIE": n}, 2.0, (3,), {"ACTOR": c}, query)
        for c in (0.1, 0.7345, -1.3)
        for n in (50, 200, 1000)
        for role, query in (
            ("x", (POP, SUCCESS_VIA_ACTOR)),
            ("y", (SUCCESS_VIA_ACTOR, POP)),
            ("z", (SUCCESS_VIA_ACTOR, COSTAR_POP, frozenset((POP,)))),
        )
    ),
    # one movie: every starring actor reads its success
    *(
        (f"one-movie-{order}", {"ACTOR": 300, "MOVIE": 1}, 1.0, range(40), {}, query)
        for order, query in (
            ("x", (SUCCESS_VIA_ACTOR, POP)),
            ("y", (POP, SUCCESS_VIA_ACTOR)),
        )
    ),
]


def test_regression_zero_variance_column(movie_schema):
    from relcd.model import RelationalModel

    null = RelationalModel(movie_schema, ())
    for case, sizes, density, seeds, constants, query in ZERO_VARIANCE:
        for seed in seeds:
            skel = random_skeleton(movie_schema, sizes, density, seed=seed)
            values = sample_data(ground_graph(null, skel), seed=seed)
            for node in values:
                values[node] = constants.get(node[0], values[node])
            backend = RegressionCI(skel.with_values(values))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert ask(backend, *query), (case, seed)
            assert backend.outcomes == {"zero_variance": 1}, (case, seed)


def test_regression_constant_attribute_over_terminal_sets(movie_schema):
    # every movie succeeds 0.1, but fsum/len of k copies of 0.1 is not 0.1
    # for k = 3, 6, 12, ...: an actor's mean over its movies must still be
    # 0.1 exactly, so every query on it is counted, not tested
    from relcd.model import RelationalModel

    null = RelationalModel(movie_schema, ())
    queries = [
        (POP, SUCCESS_VIA_ACTOR),
        (SUCCESS_VIA_ACTOR, POP),
        (SUCCESS_VIA_ACTOR, COSTAR_POP, frozenset((POP,))),
        (POP, COSTAR_POP, frozenset((SUCCESS_VIA_ACTOR,))),
    ]
    for seed in range(10):
        skel = random_skeleton(movie_schema, {"ACTOR": 300, "MOVIE": 300}, 2.0, seed=seed)
        values = sample_data(ground_graph(null, skel), seed=seed)
        for node in values:
            if node[0] == "MOVIE":
                values[node] = 0.1
        backend = RegressionCI(skel.with_values(values))
        for query in queries:
            assert ask(backend, *query), (seed, query)
        assert backend.outcomes == {"zero_variance": len(queries)}, seed


def degenerate_columns(n):
    """Constructed columns [x, y, *Z] whose design matrix [1, x, *Z] or
    residuals are singular, each with the outcome it must count."""
    rng = np.random.default_rng(n)
    x, z, e = rng.normal(size=(3, n))
    y = x + 0.5 * e
    return [
        ("x-in-Z", [x, y, x], "collinear"),
        ("x-affine-in-Z", [x, y, z, 3.0 * x - 2.0], "collinear"),
        ("y-in-Z", [x, y, y], "collinear"),
        ("duplicated-Z", [x, y, z, z], None),
        ("affine-Z", [x, y, z, 2.0 * z + 1.0], None),
        ("y=2x+1", [x, 2.0 * x + 1.0], None),
        ("y=x+z-given-z", [x, x + z, z], None),
    ]


@pytest.mark.parametrize("n", [50, 200, 1000])
def test_regression_degenerate_designs(movie_data, n):
    # a Z that determines x or y reads independent (p-value 1, effect 0);
    # every other case agrees with the slope test, and none raises or warns
    variables = (POP, COSTAR_POP, SUCCESS_VIA_ACTOR, OTHER_ACTOR_SUCCESS)
    for case, columns, outcome in degenerate_columns(n):
        backend = RegressionCI(movie_data)
        for v, col in zip(variables, columns):
            backend._columns[v] = col, np.ones(n, dtype=bool)
        x, y, *cond = variables[: len(columns)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = ask(backend, x, y, frozenset(cond))
            assert backend.outcomes == ({outcome: 1} if outcome else {}), case
            pval, effect = backend._test(x, y, cond)
        if outcome:
            assert verdict and (pval, effect) == (1.0, 0.0), case
            continue
        want_p, want_effect = regression_slope_test(np.column_stack(columns))
        assert math.isclose(pval, want_p, rel_tol=1e-9), case
        assert math.isclose(effect, want_effect, rel_tol=1e-9), case
        want = want_p >= backend.alpha or abs(want_effect) < backend.effect_threshold
        assert verdict == want, case


def test_regression_insufficient_rows(movie_schema, movie_truth):
    skel = random_skeleton(movie_schema, {"ACTOR": 2, "MOVIE": 2}, 1.0, seed=0)
    values = sample_data(ground_graph(movie_truth, skel), seed=1)
    backend = RegressionCI(skel.with_values(values))
    assert ask(backend, POP_VIA_MOVIE, SUCCESS)
    assert backend.outcomes == {"too_few_rows": 1}


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_regression_column_matches_fsum_reference(seed):
    schema = random_schema(seed, 3)
    sizes = {e.name: 4 + (seed + k) % 5 for k, e in enumerate(schema.entities)}
    skel = random_skeleton(schema, sizes, 1.0, seed=seed)
    rng = np.random.default_rng(seed)
    # magnitudes far apart make a plain sum differ from fsum in the last bits
    values = {
        node: float(rng.normal() * 10.0 ** rng.integers(-12, 13)) for node in skel.nodes()
    }
    # fsum of signed zeros is 0.0, where a plain sum keeps -0.0
    for node in skel.nodes()[::5]:
        values[node] = -0.0
    backend = RegressionCI(skel.with_values(values))
    for cls in schema.item_classes:
        for p in enumerate_paths(schema, cls, 4):
            for attr in schema.attributes_of(p.last):
                col, ok = backend._column(RelationalVariable(p, attr))
                reached = [terminal_set(skel, p, inst) for inst in skel.instances_of(cls)]
                want = np.array(
                    [
                        math.fsum(values[(p.last, r, attr)] for r in rs) / len(rs)
                        if rs
                        else 0.0
                        for rs in reached
                    ]
                )
                assert col.tobytes() == want.tobytes()
                assert ok.tolist() == [bool(rs) for rs in reached]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("order", ["longest_first", "shuffled"])
def test_terminal_sets_and_columns_do_not_depend_on_asking_order(movie_schema, seed, order):
    # movie paths such as [ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR] revisit classes
    schema = movie_schema if seed == 0 else random_schema(seed, 3)
    sizes = {e.name: 4 + (seed + k) % 5 for k, e in enumerate(schema.entities)}
    skel = random_skeleton(schema, sizes, 2.0 if seed == 0 else 1.0, seed=seed)
    rng = np.random.default_rng(seed)
    values = {
        node: float(rng.normal() * 10.0 ** rng.integers(-12, 13)) for node in skel.nodes()
    }
    backend = RegressionCI(skel.with_values(values))
    paths = [p for cls in schema.item_classes for p in enumerate_paths(schema, cls, 4)]
    if order == "longest_first":
        paths.sort(key=lambda p: -len(p.items))
    else:
        random.Random(seed).shuffle(paths)
    for p in paths:
        reached = [terminal_set(skel, p, inst) for inst in skel.instances_of(p.perspective)]
        reach = backend._reach(p)
        targets = skel.instances_of(p.last)
        for i, rs in enumerate(reached):
            row = reach.indices[reach.indptr[i] : reach.indptr[i + 1]]
            assert sorted(targets[j] for j in row) == sorted(rs)
        for attr in schema.attributes_of(p.last):
            col, ok = backend._column(RelationalVariable(p, attr))
            want = np.array(
                [
                    math.fsum(values[(p.last, r, attr)] for r in rs) / len(rs) if rs else 0.0
                    for rs in reached
                ]
            )
            assert col.tobytes() == want.tobytes()
            assert ok.tolist() == [bool(rs) for rs in reached]


def test_regression_requires_values(movie_schema):
    skel = random_skeleton(movie_schema, {"ACTOR": 10, "MOVIE": 10}, 2.0, seed=0)
    with pytest.raises(ValueError, match="values"):
        RegressionCI(skel)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"alpha": 1.5},
        {"alpha": float("nan")},
        {"effect_threshold": -1.0},
        {"effect_threshold": float("nan")},
    ],
    ids=["alpha0", "alpha1", "alpha1.5", "alpha-nan", "effect-neg", "effect-nan"],
)
def test_regression_rejects_bad_parameters(movie_data, kwargs):
    with pytest.raises(ValueError, match="alpha|effect_threshold"):
        RegressionCI(movie_data, **kwargs)


def test_regression_accepts_zero_effect_threshold(movie_data):
    assert RegressionCI(movie_data, effect_threshold=0.0).effect_threshold == 0.0


def test_regression_requires_every_value(movie_data):
    node = ("ACTOR", movie_data.instances["ACTOR"][0], "Popularity")
    partial = movie_data.with_values(
        {k: v for k, v in movie_data.values.items() if k != node}
    )
    with pytest.raises(ValueError, match="no value for"):
        RegressionCI(partial)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_regression_rejects_non_finite_values(movie_schema, movie_truth, bad):
    # such a column used to fail in the middle of a learn (SVD did not converge)
    skel = random_skeleton(movie_schema, {"ACTOR": 30, "MOVIE": 30}, 2.0, seed=0)
    values = sample_data(ground_graph(movie_truth, skel), seed=1)
    first = ("ACTOR", skel.instances["ACTOR"][3], "Popularity")
    values[first] = bad
    values[("MOVIE", skel.instances["MOVIE"][0], "Success")] = bad
    with pytest.raises(ValueError, match=re.escape(f"{first} is not finite")):
        RegressionCI(skel.with_values(values))


def test_regression_invariant_to_rescaling(movie_data):
    base = RegressionCI(movie_data)
    scaled = RegressionCI(
        movie_data.with_values({k: v * 10.0 for k, v in movie_data.values.items()})
    )
    queries = [
        (POP_VIA_MOVIE, SUCCESS),
        (POP, COSTAR_POP),
        (POP, COSTAR_POP, frozenset((SUCCESS_VIA_ACTOR,))),
    ]
    for q in queries:
        assert ask(base, *q) == ask(scaled, *q)


def test_regression_invariant_to_row_order(movie_schema, movie_truth):
    from relcd.skeleton import Skeleton

    skel = random_skeleton(movie_schema, {"ACTOR": 300, "MOVIE": 300}, 3.0, seed=5)
    values = sample_data(ground_graph(movie_truth, skel), seed=6)
    renamed_actor = {a: f"z{i:04d}" for i, a in enumerate(reversed(skel.instances["ACTOR"]))}
    shuffled = Skeleton(
        movie_schema,
        instances={
            "ACTOR": tuple(renamed_actor[a] for a in skel.instances["ACTOR"]),
            "MOVIE": skel.instances["MOVIE"],
        },
        links={
            "STARS-IN": tuple(
                (link, renamed_actor[a], m) for link, a, m in skel.links["STARS-IN"]
            )
        },
        values={
            (cls, renamed_actor.get(inst, inst) if cls == "ACTOR" else inst, attr): v
            for (cls, inst, attr), v in values.items()
        },
    )
    q = (POP_VIA_MOVIE, SUCCESS)
    assert ask(RegressionCI(skel.with_values(values)), *q) == ask(
        RegressionCI(shuffled), *q
    )


COLUMN_BYTES = """
import sys
from pathlib import Path
from relcd.ci import RegressionCI
from relcd.model import parse_variable
from relcd.schema import schema_from_json
from relcd.skeleton import load_skeleton
d = Path(sys.argv[1])
schema = schema_from_json((d / "schema.json").read_text())
backend = RegressionCI(load_skeleton(schema, d / "manifest.json"))
for text in sys.argv[2:]:
    col, ok = backend._column(parse_variable(text))
    sys.stdout.write(col.tobytes().hex() + ok.tobytes().hex() + "\\n")
"""


def test_regression_columns_independent_of_hash_seed(tmp_path, movie_truth):
    # terminal sets are sets of instance ids, iterated in hash order
    skel = random_skeleton(movie_truth.schema, {"ACTOR": 60, "MOVIE": 60}, 3.0, seed=2)
    values = sample_data(ground_graph(movie_truth, skel), seed=3)
    save_skeleton(skel.with_values(values), tmp_path)
    (tmp_path / "schema.json").write_text(schema_to_json(movie_truth.schema))
    src = str(Path(relcd.__file__).resolve().parent.parent)
    variables = [str(POP_VIA_MOVIE), str(COSTAR_POP), str(OTHER_SUCCESS)]

    def columns(hash_seed):
        env = {
            **os.environ,
            "PYTHONHASHSEED": str(hash_seed),
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        return subprocess.run(
            [sys.executable, "-c", COLUMN_BYTES, str(tmp_path), *variables],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    first = columns(0)
    assert len(first.splitlines()) == len(variables)
    assert columns(1) == first


def test_regression_memo_keeps_query_order(movie_data):
    backend = RegressionCI(movie_data)
    cond = frozenset((SUCCESS_VIA_ACTOR,))
    forward = ask(backend, POP, COSTAR_POP, cond)
    backward = ask(backend, COSTAR_POP, POP, cond)
    # keyed by variable, so the learner's table shares the entry of ask's
    table = node_table(movie_data.schema, "ACTOR", 8)
    i = table.index
    query = (table, i[POP], i[COSTAR_POP], 1 << i[SUCCESS_VIA_ACTOR])
    assert backend.independent(*query) == forward
    assert len(backend._memo) == 2
    assert forward == ask(RegressionCI(movie_data), POP, COSTAR_POP, cond)
    assert backward == ask(RegressionCI(movie_data), COSTAR_POP, POP, cond)


def test_regression_facade(movie_data):
    assert ask(RegressionCI(movie_data), POP, COSTAR_POP) is True


def test_find_sepset_movie(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    table = node_table(movie_truth.schema, "ACTOR", 8)
    pop, costar_pop, success = (
        table.index[v] for v in (POP, COSTAR_POP, SUCCESS_VIA_ACTOR)
    )
    stats = Counter()
    sep = find_sepset(
        backend,
        table,
        pop,
        costar_pop,
        1 << success,
        range(4),
        stats=stats,
        label="probe",
        rng=None,
    )
    assert sep == 0  # the empty set
    assert stats["probe"] == 1


def _search(backend, x, y, pool, sizes, stats=None, rng=None):
    """``find_sepset`` over the variables of a query; the set as variables."""
    table = NodeTable.of(x.perspective, (x, y, *pool))
    index = table.index
    sep = find_sepset(
        backend, table, index[x], index[y], sum(1 << index[v] for v in pool), sizes,
        stats=stats, label="probe", rng=rng,
    )
    return None if sep is None else frozenset(table.nodes[i] for i in bits(sep))


def test_find_sepset_none_for_direct_dependency(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    assert _search(backend, POP_VIA_MOVIE, SUCCESS, [OTHER_SUCCESS], range(4)) is None


def test_find_sepset_empty_pool(movie_truth):
    backend = OracleCI(movie_truth, hops=8)
    stats = Counter()
    sep = _search(backend, POP, COSTAR_POP, [], range(1), stats=stats)
    assert sep == frozenset()
    assert stats.total() == 1


def test_stats_match_backend_invocations(movie_truth):
    backend = CountingCI(OracleCI(movie_truth, hops=8))
    stats = Counter()
    _search(backend, POP_VIA_MOVIE, SUCCESS, [OTHER_SUCCESS], range(3), stats=stats)
    assert stats.total() == backend.calls == 2


def test_find_sepset_tries_only_the_given_sizes(movie_truth):
    backend = CountingCI(OracleCI(movie_truth, hops=8))
    far_pop = var(
        ["MOVIE", "STARS-IN", "ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR"],
        "Popularity",
    )
    pool = [OTHER_SUCCESS, far_pop]
    # one size, as phase I asks: only single members of the pool are tried
    stats = Counter()
    assert _search(backend, POP_VIA_MOVIE, SUCCESS, pool, range(1, 2), stats) is None
    assert stats.total() == backend.calls == 2
    # a size beyond the pool skips the search before it draws from the rng
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert _search(backend, POP_VIA_MOVIE, SUCCESS, pool, range(3, 4), rng=rng) is None
    assert rng.bit_generator.state == state
    assert backend.calls == 2
    _search(backend, POP_VIA_MOVIE, SUCCESS, pool, range(2, 3), rng=rng)
    assert rng.bit_generator.state != state


class _WriteOnce(dict):
    def __setitem__(self, key, value):
        assert key not in self, f"{key} written twice"
        super().__setitem__(key, value)


def test_sepset_store_keeps_first():
    # the learner's separating sets: one dict, (perspective, low id, high id)
    # -> an id mask, or None once phase II searched the pair in vain; phase
    # II adds to phase I's record and never rewrites a key (grid case
    # (4, 15, 0) at seed 0)
    seq = np.random.SeedSequence(entropy=0, spawn_key=(4, 15, 0))
    config = LearnConfig()
    schema, truth = generate_case(4, 15, config.hop_threshold, seq)
    backend = OracleCI(truth, hops=8)
    pds, first = phase1(schema, backend, config)
    sepsets = _WriteOnce(first)
    agg_set = build_all(pds, schema, 2 * config.hop_threshold)
    collider_detection(agg_set, sepsets, backend, config)
    bivariate_orientation(agg_set, sepsets, backend, config)
    assert None not in first.values()
    assert len(sepsets) > len(first)
    assert None in sepsets.values()
    for (_, x, y), sep in sepsets.items():
        assert x < y
        if sep is not None:
            assert not (sep >> x | sep >> y) & 1
    assert all(sepsets[key] == sep for key, sep in first.items())
