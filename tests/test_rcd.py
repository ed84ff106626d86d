import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcd.agg import build_all, orient
from relcd.ci import CIQuery, OracleCI, SepsetStore
from relcd.errors import Infeasible
from relcd.model import (
    RelationalModel,
    canonical_pair,
    class_dependency_graph,
    random_model,
    reverse_dependency,
)
from relcd.rcd import (
    LearnConfig,
    bivariate_orientation,
    collider_detection,
    majority_vote,
    meek_rules,
    pattern_to_dict,
    phase1,
    rcd_learn,
)
from relcd.schema import random_schema
from tests.conftest import dep, propositional_model, single_entity_schema, var

import networkx as nx


def learn(truth, **config_kwargs):
    return rcd_learn(
        truth.schema, OracleCI(truth, hops=8), LearnConfig(**config_kwargs)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(depth=-1)
    with pytest.raises(ValueError):
        LearnConfig(rbo_order="sideways")


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
    assert sepsets.get(var(["E1"], "X"), var(["E1"], "Z")) == frozenset(
        (var(["E1"], "Y"),)
    )


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
    assert len(pattern.undirected) == 2


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
    # the directed part of the pattern never forms a class-level cycle
    g = class_dependency_graph(RelationalModel(schema, pattern.directed))
    assert nx.is_directed_acyclic_graph(g)
    assert pattern.conflicts == ()


def test_majority_vote_oracle_equals_single_run(movie_truth):
    backend = OracleCI(movie_truth, 8)
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

    def independent(self, query):
        self.calls += 1
        if {query.x, query.y} == self.flaky_pair and not query.cond:
            self.flaky_hits += 1
            return self.flaky_hits == 1
        return self.inner.independent(query)


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
