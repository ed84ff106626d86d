import hashlib
import json
import math
from collections import Counter
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcd import rcd
from relcd.agg import NodeTable, build_all, lift, node_table, orient
from relcd.ci import OracleCI, RegressionCI
from relcd.errors import Infeasible
from relcd.harness import generate_case
from relcd.model import (
    RelationalModel,
    canonical_pair,
    potential_dependencies,
    random_model,
    reverse_dependency,
)
from relcd.rcd import (
    LearnConfig,
    bivariate_orientation,
    collider_detection,
    learn_plan,
    majority_vote,
    meek_rules,
    pattern_to_dict,
    phase1,
    rcd_learn,
)
from relcd.schema import Cardinality, random_schema
from relcd.skeleton import ground_graph, random_skeleton, sample_data
from tests.conftest import (
    CountingCI,
    as_variables,
    dep,
    propositional_model,
    single_entity_schema,
    var,
)
from tests.reference import regression_slope_test


def learn(truth, **config_kwargs):
    return rcd_learn(
        truth.schema, OracleCI(truth, hops=8), LearnConfig(**config_kwargs)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(depth=-1)
    with pytest.raises(ValueError):
        LearnConfig(rbo_order="sideways")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        LearnConfig(seed=-1)


def test_phase1_movie_keeps_true_pair(movie_truth):
    pds, sepsets = phase1(
        movie_truth.schema, OracleCI(movie_truth, 8), LearnConfig()
    )
    assert {str(d) for d in pds} == {
        "[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE].Success",
        "[ACTOR, STARS-IN, MOVIE].Success -> [ACTOR].Popularity",
    }
    assert len(sepsets) == 0


def test_phase1_empty_model_removes_everything(movie_schema):
    null = RelationalModel(movie_schema, ())
    pds, _ = phase1(movie_schema, OracleCI(null, 8), LearnConfig())
    assert pds == []


def test_phase1_three_chain():
    schema = single_entity_schema("X", "Y", "Z")
    truth = propositional_model(schema, [("X", "Y"), ("Y", "Z")])
    pds, sepsets = phase1(schema, OracleCI(truth, 8), LearnConfig())
    pairs = {canonical_pair(d) for d in pds}
    assert len(pds) == 4 and len(pairs) == 2
    x, y, z = (node_table(schema, "E1", 8).index[var(["E1"], a)] for a in "XYZ")
    # one record per unordered pair: X -> Z and Z -> X share it
    assert sepsets == {("E1", min(x, z), max(x, z)): 1 << y}


def test_collider_detection_propositional():
    schema = single_entity_schema("X", "Y", "Z")
    truth = propositional_model(schema, [("X", "Z"), ("Y", "Z")])
    backend = OracleCI(truth, 8)
    config = LearnConfig()
    pds, sepsets = phase1(schema, backend, config)
    agg_set = build_all(pds, schema, 8)
    collider_detection(agg_set, sepsets, backend, config)
    oriented = {str(d) for d in agg_set.registry.values() if d is not None}
    assert oriented == {"[E1].X -> [E1].Z", "[E1].Y -> [E1].Z"}


def test_collider_detection_respects_recorded_sepset():
    schema = single_entity_schema("X", "Y", "Z")
    truth = propositional_model(schema, [("X", "Y"), ("Y", "Z")])
    backend = OracleCI(truth, 8)
    config = LearnConfig()
    pds, sepsets = phase1(schema, backend, config)
    agg_set = build_all(pds, schema, 8)
    collider_detection(agg_set, sepsets, backend, config)
    # middle of the chain is in the recorded separating set: no orientation
    assert all(d is None for d in agg_set.registry.values())


def test_rbo_collider_case(movie_truth):
    backend = OracleCI(movie_truth, 8)
    config = LearnConfig()
    pds, sepsets = phase1(movie_truth.schema, backend, config)
    agg_set = build_all(pds, movie_truth.schema, 8)
    bivariate_orientation(agg_set, sepsets, backend, config)
    oriented = {str(d) for d in agg_set.registry.values() if d is not None}
    assert oriented == {"[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE].Success"}
    assert set(agg_set.attribution.values()) == {"RBO"}


def test_rbo_common_cause_case(movie_schema):
    reversed_truth = RelationalModel(
        movie_schema,
        (dep(["ACTOR", "STARS-IN", "MOVIE"], "Success", "ACTOR", "Popularity"),),
    )
    backend = OracleCI(reversed_truth, 8)
    config = LearnConfig()
    pds, sepsets = phase1(movie_schema, backend, config)
    agg_set = build_all(pds, movie_schema, 8)
    bivariate_orientation(agg_set, sepsets, backend, config)
    oriented = {str(d) for d in agg_set.registry.values() if d is not None}
    assert oriented == {"[ACTOR, STARS-IN, MOVIE].Success -> [ACTOR].Popularity"}


def test_rbo_inapplicable_for_one_one_cardinality(one_one_schema):
    truth = RelationalModel(
        one_one_schema,
        (dep(["PASSPORT", "HOLDS", "PERSON"], "Age", "PASSPORT", "Stamps"),),
    )
    pattern = learn(truth)
    # no MANY path anywhere: the dependency stays undirected
    assert pattern.directed == ()
    assert len(pattern.undirected) == 1


def test_meek_knc():
    schema = single_entity_schema("X", "Y", "Z")
    truth = propositional_model(schema, [("X", "Y"), ("Y", "Z")])
    pds = [d for m in truth.dependencies for d in (m, reverse_dependency(m))]
    agg_set = build_all(pds, schema, 8)
    orient(agg_set, dep(["E1"], "X", "E1", "Y"), rule="given")
    meek_rules(agg_set)
    oriented = {str(d) for d in agg_set.registry.values() if d is not None}
    assert "[E1].Y -> [E1].Z" in oriented


def test_meek_ca():
    schema = single_entity_schema("X", "Y", "Z")
    truth = propositional_model(schema, [("X", "Y"), ("Y", "Z"), ("X", "Z")])
    pds = [d for m in truth.dependencies for d in (m, reverse_dependency(m))]
    agg_set = build_all(pds, schema, 8)
    orient(agg_set, dep(["E1"], "X", "E1", "Y"), rule="given")
    orient(agg_set, dep(["E1"], "Y", "E1", "Z"), rule="given")
    meek_rules(agg_set)
    assert agg_set.registry[canonical_pair(dep(["E1"], "X", "E1", "Z"))] == dep(
        ["E1"], "X", "E1", "Z"
    )


def test_meek_mr3():
    schema = single_entity_schema("X", "Y", "Z", "W")
    edges = [("X", "Y"), ("X", "Z"), ("X", "W"), ("Z", "Y"), ("W", "Y")]
    truth = propositional_model(schema, edges)
    pds = [d for m in truth.dependencies for d in (m, reverse_dependency(m))]
    agg_set = build_all(pds, schema, 8)
    orient(agg_set, dep(["E1"], "Z", "E1", "Y"), rule="given")
    orient(agg_set, dep(["E1"], "W", "E1", "Y"), rule="given")
    meek_rules(agg_set)
    assert agg_set.registry[canonical_pair(dep(["E1"], "X", "E1", "Y"))] == dep(
        ["E1"], "X", "E1", "Y"
    )


def _meek_after(edges, given):
    """The registry and rules after propagating from the ``given`` arrows."""
    schema = single_entity_schema(*sorted({a for edge in edges for a in edge}))
    truth = propositional_model(schema, edges)
    pds = [d for m in truth.dependencies for d in (m, reverse_dependency(m))]
    agg_set = build_all(pds, schema, 8)
    for cause, effect in given:
        orient(agg_set, dep(["E1"], cause, "E1", effect), rule="given")
    meek_rules(agg_set)
    return agg_set.registry, agg_set.attribution


def _pair(a, b):
    return canonical_pair(dep(["E1"], a, "E1", b))


def test_meek_knc_needs_a_parent_not_adjacent_to_z():
    # x -> y - z with x - z: y's only parent is adjacent to z
    registry, attribution = _meek_after(
        [("X", "Y"), ("Y", "Z"), ("X", "Z")], [("X", "Y")]
    )
    assert registry[_pair("Y", "Z")] is None
    assert registry[_pair("X", "Z")] is None
    assert set(attribution.values()) == {"given"}


def test_meek_mr3_needs_non_adjacent_parents():
    # the MR3 shape with z - w: the two parents of y are adjacent
    edges = [("X", "Y"), ("X", "Z"), ("X", "W"), ("Z", "Y"), ("W", "Y"), ("Z", "W")]
    registry, attribution = _meek_after(edges, [("Z", "Y"), ("W", "Y")])
    assert registry[_pair("X", "Y")] is None
    assert set(attribution.values()) == {"given"}


def test_meek_mr3_finds_a_later_non_adjacent_parent_pair():
    # parents A < B < C of Y (by id): A is adjacent to B and to C, and only
    # B and C are non-adjacent
    edges = [("X", "Y"), ("A", "B"), ("A", "C")]
    edges += [(p, "Y") for p in "ABC"] + [("X", p) for p in "ABC"]
    registry, attribution = _meek_after(edges, [(p, "Y") for p in "ABC"])
    assert registry[_pair("X", "Y")] == dep(["E1"], "X", "E1", "Y")
    assert attribution[_pair("X", "Y")] == "MR3"


class RecordingCI:
    """A CI backend that records the queries it passes to ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = []

    def independent(self, table, x, y, z=0):
        self.queries.append(as_variables(table, x, y, z))
        return self.inner.independent(table, x, y, z)


def test_collider_detection_searches_one_endpoints_neighbors():
    # PC's pools: each conditioning set lies within adj(x) or within adj(z),
    # never across the two (grid case (3, 15, 0) at seed 0)
    seq = np.random.SeedSequence(entropy=0, spawn_key=(3, 15, 0))
    config = LearnConfig()
    schema, truth = generate_case(3, 15, config.hop_threshold, seq)
    backend = RecordingCI(OracleCI(truth, hops=8))
    pds, sepsets = phase1(schema, backend, config)
    agg_set = build_all(pds, schema, 2 * config.hop_threshold)
    backend.queries.clear()
    collider_detection(agg_set, sepsets, backend, config)
    assert backend.queries
    sides = set()
    for x, z, cond in backend.queries:
        agg = agg_set.aggs[x.perspective]
        ids = sum(1 << agg.index[v] for v in cond)
        in_x = not ids & ~agg.adjacency[agg.index[x]]
        in_z = not ids & ~agg.adjacency[agg.index[z]]
        assert in_x or in_z, (x, z, cond)
        sides.add((in_x, in_z))
    # the search falls back to z's neighbors when x's hold no separating set
    assert (False, True) in sides


def _record_searches(monkeypatch) -> list[list[tuple]]:
    """Wrap the learner's subset search; one list of searches per learn."""
    runs: list[list[tuple]] = []
    learn, search = rcd.rcd_learn, rcd.find_sepset

    def recording_learn(*args, **kwargs):
        runs.append([])
        return learn(*args, **kwargs)

    def recording_search(ci_backend, table, x, y, pool, sizes, *, label, **kwargs):
        sep = search(ci_backend, table, x, y, pool, sizes, label=label, **kwargs)
        runs[-1].append((label, table, x, y, pool, sep))
        return sep

    monkeypatch.setattr(rcd, "rcd_learn", recording_learn)
    monkeypatch.setattr(rcd, "find_sepset", recording_search)
    return runs


def _phase2_searches(run) -> dict[tuple, list[tuple]]:
    """Phase II's searches of one learn by (perspective, x, z), checked.

    A pair is searched among x's neighbours, then, only if that finds
    nothing, among z's; never once more, and never if phase I separated it.
    """
    recorded = {
        (table.perspective, min(x, y), max(x, y))
        for label, table, x, y, _, sep in run
        if label == "phase1" and sep is not None
    }
    searches: dict[tuple, list[tuple]] = {}
    for label, table, x, z, pool, sep in run:
        if label != "phase1":
            key = (table.perspective, x, z)
            assert x < z and key not in recorded, key
            searches.setdefault(key, []).append((table, pool, sep))
    for (_, x, z), found in searches.items():
        table = found[0][0]
        assert [pool for _, pool, _ in found] == [
            table.adjacency[x], table.adjacency[z]
        ][: len(found)]
        assert all(sep is None for _, _, sep in found[:-1])
    return searches


class EveryTripleCI(CountingCI):
    """An exact oracle that does not declare ``exact``: the learner then
    orients from every unshielded triple, the path the data backend takes."""


@pytest.mark.parametrize("rbo_order", ["rbo_after_cd", "rbo_first", "rbo_last"])
def test_phase2_searches_each_pair_at_most_once_per_endpoint(monkeypatch, rbo_order):
    # grid case (3, 15, 0) at seed 0, on every triple: some pairs have no
    # separating set, and some of those close more than one unshielded triple
    seq = np.random.SeedSequence(entropy=0, spawn_key=(3, 15, 0))
    config = LearnConfig(rbo_order=rbo_order)
    schema, truth = generate_case(3, 15, config.hop_threshold, seq)
    runs = _record_searches(monkeypatch)
    rcd.rcd_learn(schema, EveryTripleCI(OracleCI(truth, hops=8)), config)
    searches = _phase2_searches(runs[0])
    assert {len(found) for found in searches.values()} == {1, 2}
    assert any(found[-1][2] is None for found in searches.values())


@pytest.mark.parametrize("rbo_order", ["rbo_after_cd", "rbo_first", "rbo_last"])
def test_exact_backend_searches_only_pairs_with_a_base_endpoint(monkeypatch, rbo_order):
    # the same case on the exact oracle: each pair is still searched at most
    # once per endpoint, and only from triples whose x is a base variable
    seq = np.random.SeedSequence(entropy=0, spawn_key=(3, 15, 0))
    config = LearnConfig(rbo_order=rbo_order)
    schema, truth = generate_case(3, 15, config.hop_threshold, seq)
    runs = _record_searches(monkeypatch)
    rcd.rcd_learn(schema, OracleCI(truth, hops=8), config)
    searches = _phase2_searches(runs[0])
    assert searches
    for perspective, x, _ in searches:
        table = node_table(schema, perspective, 2 * config.hop_threshold)
        assert len(table.nodes[x].path.items) == 1


def test_phase2_searches_each_pair_at_most_once_per_endpoint_in_a_vote(monkeypatch):
    # randomized orders draw the pools' permutations from each run's rng
    seq = np.random.SeedSequence(entropy=0, spawn_key=(3, 5, 0))
    schema, truth = generate_case(3, 5, 4, seq)
    skel = random_skeleton(schema, {e.name: 60 for e in schema.entities}, 1.0, seed=1)
    data = skel.with_values(sample_data(ground_graph(truth, skel), seed=2))
    runs = _record_searches(monkeypatch)
    rcd.majority_vote(schema, RegressionCI(data), LearnConfig(), runs=3)
    assert len(runs) == 3
    for run in runs:
        searches = _phase2_searches(run)
        assert {len(found) for found in searches.values()} == {1, 2}
        assert any(found[-1][2] is None for found in searches.values())


def test_rcd_learn_movie(movie_truth):
    pattern = learn(movie_truth)
    assert [str(d) for d in pattern.directed] == [
        "[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE].Success"
    ]
    assert pattern.undirected == ()
    assert pattern.conflicts == ()


def test_rcd_learn_empty(movie_schema):
    pattern = learn(RelationalModel(movie_schema, ()))
    assert pattern.directed == () and pattern.undirected == ()


def test_rcd_learn_three_chain_stays_undirected():
    schema = single_entity_schema("X", "Y", "Z")
    truth = propositional_model(schema, [("X", "Y"), ("Y", "Z")])
    pattern = learn(truth)
    assert pattern.directed == ()
    # canonical pairs, sorted by text
    assert pattern.undirected == tuple(
        sorted((canonical_pair(d) for d in truth.dependencies), key=str)
    )


def test_rule_accounting_sums_to_directed():
    for seed in range(8):
        schema = random_schema(seed, 3)
        try:
            truth = random_model(schema, 6, seed=seed, restarts=30)
        except Infeasible:
            continue
        pattern = learn(truth)
        assert sum(pattern.rule_counts.values()) == len(pattern.directed)


@given(seed=st.integers(0, 800), deps=st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_oracle_learning_sound_and_exact(seed, deps):
    schema = random_schema(seed, 1 + seed % 3)
    try:
        truth = random_model(schema, deps, seed=seed, restarts=30)
    except Infeasible:
        return
    pattern = learn(truth)
    truth_pairs = {canonical_pair(d) for d in truth.dependencies}
    assert pattern.pairs() == truth_pairs
    for directed in pattern.directed:
        assert directed in truth.dependencies
    # the directed part of the pattern never forms a class-level cycle,
    # which the model constructor rejects
    RelationalModel(schema, pattern.directed)
    assert pattern.conflicts == ()


def test_majority_vote_oracle_equals_single_run(movie_truth):
    backend = CountingCI(OracleCI(movie_truth, 8))
    single = rcd_learn(movie_truth.schema, backend, LearnConfig())
    calls_before = backend.calls
    vote = majority_vote(
        movie_truth.schema, backend, LearnConfig(seed=4), runs=5
    )
    assert vote.directed == single.directed
    assert vote.undirected == single.undirected
    # the vote's counts merge every run's
    assert vote.stats.total() == backend.calls - calls_before


class FlakyOnFirstRun:
    """Calls one marginal pair independent once, then dependent forever.

    The first learner run therefore drops the pair; later runs keep it.
    """

    def __init__(self, inner, flaky_pair):
        self.inner = inner
        self.flaky_pair = flaky_pair
        self.flaky_hits = 0
        self.calls = 0

    def independent(self, table, x, y, z=0):
        self.calls += 1
        a, b, cond = as_variables(table, x, y, z)
        if {a, b} == self.flaky_pair and not cond:
            self.flaky_hits += 1
            return self.flaky_hits == 1
        return self.inner.independent(table, x, y, z)


def test_majority_vote_threshold_semantics():
    schema = single_entity_schema("X", "Y", "Z")
    truth = propositional_model(schema, [("X", "Y"), ("Y", "Z")])
    flaky = frozenset((var(["E1"], "X"), var(["E1"], "Y")))
    stable = frozenset((var(["E1"], "Y"), var(["E1"], "Z")))

    def run_vote(threshold):
        backend = FlakyOnFirstRun(OracleCI(truth, 8), flaky)
        vote = majority_vote(
            schema, backend, LearnConfig(seed=0), runs=2, threshold=threshold
        )
        return {frozenset((p.cause, p.effect)) for p in vote.pairs()}

    # present in one of two runs: dropped at threshold 1.0, kept at 0.5
    assert run_vote(1.0) == {stable}
    assert run_vote(0.5) == {stable, flaky}


def test_majority_vote_credits_the_winning_directions_rule(monkeypatch):
    # 7 runs orient X -> Y by four rules, 3 orient Y -> X by RBO: the vote
    # directs X -> Y, and credits the rule most of those 7 runs named
    schema = single_entity_schema("X", "Y")
    forward = dep(["E1"], "X", "E1", "Y")
    pair = canonical_pair(forward)
    backward = reverse_dependency(forward)
    runs = [(forward, rule) for rule in ("CD", "CD", "KNC", "KNC", "CA", "CA", "MR3")]
    runs += [(backward, "RBO")] * 3
    patterns = iter(
        rcd.LearnedPattern(schema, {pair: d}, Counter(), {pair: rule}, ())
        for d, rule in runs
    )
    monkeypatch.setattr(rcd, "rcd_learn", lambda *args: next(patterns))
    vote = majority_vote(schema, None, LearnConfig(), runs=len(runs))
    assert vote.orientation == {pair: forward}
    # CA, CD and KNC tie at 2 runs; ties go to the first name
    assert vote.attribution == {pair: "CA"}


@pytest.mark.parametrize(
    ("kwargs", "error"),
    [({"runs": 0}, "runs must be >= 1"), ({"threshold": 0}, r"threshold must lie in \(0, 1\]")],
    ids=["runs0", "threshold0"],
)
def test_majority_vote_rejects_bad_parameters(movie_truth, kwargs, error):
    backend = OracleCI(movie_truth, 8)
    with pytest.raises(ValueError, match=error):
        majority_vote(movie_truth.schema, backend, LearnConfig(), **kwargs)


def test_pattern_to_dict_shape(movie_truth):
    doc = pattern_to_dict(learn(movie_truth))
    assert doc["dependencies"][0]["status"] == "directed"
    assert doc["dependencies"][0]["rule"] in {"CD", "RBO"}
    assert "rule_counts" in doc["stats"]


def test_order_randomization_is_deterministic_per_seed(movie_truth):
    backend = OracleCI(movie_truth, 8)
    a = rcd_learn(
        movie_truth.schema, backend, LearnConfig(seed=9, order_randomization=True)
    )
    b = rcd_learn(
        movie_truth.schema, backend, LearnConfig(seed=9, order_randomization=True)
    )
    assert a.directed == b.directed and a.undirected == b.undirected


@pytest.mark.parametrize(
    "entities,deps,trial",
    [(e, d, t) for e, d in ((3, 10), (3, 15), (4, 10), (4, 15)) for t in range(3)],
)
def test_phase1_survivors_are_sorted_closed_and_order_free(entities, deps, trial):
    # phase I keeps its state in rows of ids, in text order, each naming its
    # reverse's row; under the exact oracle the survivors are the adjacencies
    # of the true model, whatever order the rows are visited in
    seq = np.random.SeedSequence(entropy=0, spawn_key=(entities, deps, trial))
    config = LearnConfig()
    schema, truth = generate_case(entities, deps, config.hop_threshold, seq)
    backend = OracleCI(truth, hops=8)
    canonical, _ = phase1(schema, backend, config)
    assert [str(d) for d in canonical] == sorted(str(d) for d in canonical)
    assert {reverse_dependency(d) for d in canonical} == set(canonical)
    for seed in range(3):
        shuffled, _ = phase1(schema, backend, config, rng=np.random.default_rng(seed))
        assert shuffled == canonical


def test_learn_plan_is_shared_and_read_only():
    # a vote's runs share one plan; pruning works on a copy of its masks
    seq = np.random.SeedSequence(entropy=0, spawn_key=(3, 10, 0))
    config = LearnConfig()
    schema, truth = generate_case(3, 10, config.hop_threshold, seq)
    plan = learn_plan(schema, config.hop_threshold)
    causes = dict(plan.causes)
    first = phase1(schema, OracleCI(truth, hops=8), config)
    majority_vote(schema, OracleCI(truth, hops=8), config, runs=3)
    assert learn_plan(schema, config.hop_threshold) is plan
    assert dict(plan.causes) == causes
    with pytest.raises(TypeError):
        plan.causes[next(iter(causes))] = 0
    assert phase1(schema, OracleCI(truth, hops=8), config) == first
    assert plan.dependencies == tuple(potential_dependencies(schema, config.hop_threshold))


def test_phase1_asks_by_the_tables_node_table_holds():
    # the plan holds no table: once node_table's cache drops a table, phase
    # I asks by the one node_table makes anew, whose nodes the oracle's
    # graph shares, so no query pays for id translation
    seq = np.random.SeedSequence(entropy=0, spawn_key=(3, 10, 0))
    schema, truth = generate_case(3, 10, LearnConfig().hop_threshold, seq)
    phase1(schema, OracleCI(truth, hops=8), LearnConfig())
    node_table.cache_clear()
    lift.cache_clear()
    asked = []

    class Recording(CountingCI):
        def independent(self, table, x, y, z=0):
            asked.append(table)
            return super().independent(table, x, y, z)

    backend = Recording(OracleCI(truth, hops=8))
    phase1(schema, backend, LearnConfig())
    assert asked and all(type(t) is NodeTable for t in asked)
    assert all(t is node_table(schema, t.perspective, 8) for t in asked)
    oracle = backend.inner
    assert all(t.nodes is oracle._agg(t.perspective).nodes for t in asked)


# pattern_to_dict of oracle learns on the benchmark grid's first draws, as
# (entities, deps, trial): the CI tests per label, then the first 16 hex
# digits of the SHA-256 of the whole dict (dependencies, rules, conflicts)
GOLDEN_PATTERNS = [
    ((3, 10, 0), {"phase1": 503, "phase2_cd": 225, "phase2_rbo": 20}, "926465009922ca61"),
    ((3, 10, 1), {"phase1": 407, "phase2_cd": 59, "phase2_rbo": 8}, "bcf1341c4058178a"),
    ((3, 15, 0), {"phase1": 3049, "phase2_cd": 775, "phase2_rbo": 60}, "63b7b94760ac920e"),
    ((3, 15, 1), {"phase1": 1078, "phase2_cd": 136, "phase2_rbo": 30}, "768a7643193fea58"),
    ((4, 10, 0), {"phase1": 154, "phase2_cd": 24, "phase2_rbo": 4}, "3be07e3930a406ff"),
    ((4, 10, 1), {"phase1": 315, "phase2_cd": 29, "phase2_rbo": 4}, "1eb1595726e3dd26"),
    ((4, 15, 0), {"phase1": 521, "phase2_cd": 109, "phase2_rbo": 4}, "9845510897aaa7dd"),
    ((4, 15, 1), {"phase1": 947, "phase2_cd": 229, "phase2_rbo": 22}, "7350a51f05ee5bd9"),
]


@pytest.mark.parametrize(
    "case,ci_tests,digest",
    GOLDEN_PATTERNS,
    ids=["-".join(map(str, case)) for case, _, _ in GOLDEN_PATTERNS],
)
def test_oracle_patterns_and_ci_counts_are_pinned(case, ci_tests, digest):
    # same draws as harness.run_trials at seed 0 (and perfbench's oracle-grid)
    entities, deps, trial = case
    seq = np.random.SeedSequence(entropy=0, spawn_key=(entities, deps, trial))
    config = LearnConfig()
    schema, truth = generate_case(entities, deps, config.hop_threshold, seq)
    doc = pattern_to_dict(rcd_learn(schema, OracleCI(truth, hops=8), config))
    assert doc["stats"]["ci_tests"] == ci_tests
    text = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == digest


# The same learns with the oracle at other hops than the learner lifts at
# (2 * hop_threshold = 8), so that it translates the learner's node ids into
# its own graph's: CI tests per label and digest as above, or the error that
# names the first variable outside its node set. Pinned from the learner
# that asked the oracle by variable.
OTHER_HOPS = [
    ((3, 10, 0), 2, "variable outside oracle node set at 2 hops: [E1, R1, E2, R1, E1].X1"),
    ((3, 10, 0), 6,
     "variable outside oracle node set at 6 hops: [E1, R1, E2, R1, E1, R1, E2, R1].X10"),
    ((3, 10, 0), 10, ({"phase1": 503, "phase2_cd": 225, "phase2_rbo": 20}, "926465009922ca61")),
    ((3, 10, 0), 12, ({"phase1": 503, "phase2_cd": 277, "phase2_rbo": 20}, "54f4b2c72d15bedc")),
    ((3, 10, 1), 2, "variable outside oracle node set at 2 hops: [E1, R1, E2, R1].X5"),
    ((3, 10, 1), 6, ({"phase1": 407, "phase2_cd": 59, "phase2_rbo": 8}, "bcf1341c4058178a")),
    ((3, 10, 1), 10, ({"phase1": 407, "phase2_cd": 59, "phase2_rbo": 8}, "bcf1341c4058178a")),
    ((3, 10, 1), 12, ({"phase1": 407, "phase2_cd": 59, "phase2_rbo": 8}, "bcf1341c4058178a")),
    ((4, 10, 1), 2, "variable outside oracle node set at 2 hops: [E1, R1, E2, R1].X7"),
    ((4, 10, 1), 6,
     "variable outside oracle node set at 6 hops: [E2, R1, E1, R1, E2, R1, E1, R3].X10"),
    ((4, 10, 1), 10, ({"phase1": 315, "phase2_cd": 46, "phase2_rbo": 4}, "dbcc59ce75335463")),
    ((4, 10, 1), 12, ({"phase1": 315, "phase2_cd": 46, "phase2_rbo": 4}, "dbcc59ce75335463")),
    ((4, 15, 1), 2, "variable outside oracle node set at 2 hops: [E1, R2, E3, R2, E1].X1"),
    ((4, 15, 1), 6,
     "variable outside oracle node set at 6 hops: [E3, R3, E4, R3, E3, R2, E1, R1].X10"),
    ((4, 15, 1), 10, ({"phase1": 947, "phase2_cd": 229, "phase2_rbo": 22}, "7350a51f05ee5bd9")),
    ((4, 15, 1), 12, ({"phase1": 947, "phase2_cd": 229, "phase2_rbo": 22}, "7350a51f05ee5bd9")),
]


@pytest.mark.parametrize(
    "case,hops,expected",
    OTHER_HOPS,
    ids=[f"{'-'.join(map(str, case))}-h{hops}" for case, hops, _ in OTHER_HOPS],
)
def test_oracle_at_other_hops_is_pinned(case, hops, expected):
    entities, deps, trial = case
    seq = np.random.SeedSequence(entropy=0, spawn_key=(entities, deps, trial))
    config = LearnConfig()
    schema, truth = generate_case(entities, deps, config.hop_threshold, seq)
    backend = OracleCI(truth, hops=hops)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            rcd_learn(schema, backend, config)
        assert str(exc.value) == expected
        return
    doc = pattern_to_dict(rcd_learn(schema, backend, config))
    ci_tests, digest = expected
    assert doc["stats"]["ci_tests"] == ci_tests
    text = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == digest


# Behind EveryTripleCI the learner orients from every unshielded triple; on
# OracleCI itself, which is exact, only from those with a base endpoint. Both
# must learn the same pattern, with fewer collider queries on the exact path:
# the pinned grid cases under every RBO order, OTHER_HOPS's learns at oracle
# hops 10 and 12, and a slice of the grid at hop thresholds 2 and 3, as
# (entities, deps, trial, hop threshold, oracle hops, RBO order)
EQUIVALENCE = (
    [
        (*case, 4, 8, order)
        for case, _, _ in GOLDEN_PATTERNS
        for order in ("rbo_after_cd", "rbo_first", "rbo_last")
    ]
    + [
        (*case, 4, hops, "rbo_after_cd")
        for case, hops, expected in OTHER_HOPS
        if hops in (10, 12) and not isinstance(expected, str)
    ]
    + [
        (entities, deps, trial, hop_threshold, 8, "rbo_after_cd")
        for hop_threshold in (2, 3)
        for entities, deps in ((3, 10), (3, 15), (4, 10), (4, 15))
        for trial in range(3)
    ]
)


@pytest.mark.parametrize(
    "case", EQUIVALENCE, ids=["-".join(map(str, case)) for case in EQUIVALENCE]
)
def test_exact_backend_learns_what_every_triple_learns(case):
    entities, deps, trial, hop_threshold, hops, rbo_order = case
    seq = np.random.SeedSequence(entropy=0, spawn_key=(entities, deps, trial))
    config = LearnConfig(hop_threshold=hop_threshold, rbo_order=rbo_order)
    schema, truth = generate_case(entities, deps, hop_threshold, seq)
    oracle = OracleCI(truth, hops=hops)
    exact = pattern_to_dict(rcd_learn(schema, oracle, config))
    full = pattern_to_dict(rcd_learn(schema, EveryTripleCI(oracle), config))
    assert exact["dependencies"] == full["dependencies"]
    assert exact["conflicts"] == full["conflicts"]
    cd = [doc["stats"]["ci_tests"]["phase2_cd"] for doc in (exact, full)]
    assert cd[0] < cd[1]


def pinned_vote_backend():
    """data-vote's model: the first draw of generate_case(3, 5, 4) at entropy
    0 whose relationships are all MANY/MANY; 200 instances an entity at link
    density 2, seed 1 for skeleton and values. Its schema and a fresh
    backend on its data."""
    for k in count():
        seq = np.random.SeedSequence(entropy=0, spawn_key=(k,))
        schema, truth = generate_case(3, 5, 4, seq)
        if all(Cardinality.ONE not in rel.cards for rel in schema.relationships):
            break
    skel = random_skeleton(schema, dict.fromkeys(schema.entity_names, 200), 2.0, seed=1)
    return schema, RegressionCI(skel.with_values(sample_data(ground_graph(truth, skel), seed=1)))


def test_regression_vote_is_pinned():
    # vote seed 1. Its runs refuse orientations, so the pin covers the
    # shuffled pools and triples too.
    schema, backend = pinned_vote_backend()
    pattern = majority_vote(schema, backend, LearnConfig(seed=1), runs=5)
    doc = pattern_to_dict(pattern)
    assert doc["stats"]["ci_tests"] == {"phase1": 628, "phase2_cd": 67}
    assert backend.outcomes == {}
    assert len(doc["conflicts"]) == 18 and len(doc["dependencies"]) == 7
    text = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == "6c00e729814d4271"


def test_regression_matches_slope_test_on_pinned_vote():
    # the partial correlation against the lstsq + pinv slope test it replaced,
    # on every distinct query of the pinned vote
    schema, backend = pinned_vote_backend()
    majority_vote(schema, backend, LearnConfig(seed=1), runs=5)
    alpha, threshold = backend.alpha, backend.effect_threshold
    near_alpha = near_threshold = math.inf  # the reference values nearest each
    for (x, y, cond), verdict in backend._memo.items():
        cols, masks = zip(*(backend._column(v) for v in (x, y, *cond)))
        want_p, want_effect = regression_slope_test(
            np.column_stack(cols)[np.logical_and.reduce(masks)]
        )
        pval, effect = backend._test(x, y, cond)
        assert math.isclose(pval, want_p, rel_tol=1e-9), (x, y, cond)
        assert math.isclose(effect, want_effect, rel_tol=1e-9), (x, y, cond)
        assert verdict == (want_p >= alpha or abs(want_effect) < threshold)
        near_alpha = min(near_alpha, want_p, key=lambda p: abs(p - alpha))
        near_threshold = min(
            near_threshold, abs(want_effect), key=lambda e: abs(e - threshold)
        )
    assert backend.outcomes == {}
    assert len(backend._memo) == 252
    print(
        f"{len(backend._memo)} queries agree; nearest alpha ({alpha}): p = "
        f"{near_alpha:.6g}; nearest effect_threshold ({threshold}): |effect| = "
        f"{near_threshold:.6g}"
    )
