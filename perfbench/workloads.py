"""The benchmark's two workloads: inputs, timed operations, checks.

A workload's ``setup(seed, workdir)`` makes its inputs; its
``op(inputs, k, backend)`` runs operation ``k`` (a pure function of the
inputs and ``k``) and returns an ``Outcome``. Only the calls into the
program are timed; scoring, output checks and digests run after the clock
stops. ``backend`` wraps each CI backend the operation creates: the
identity when untraced, a counting proxy when traced.

Both do the same work at every seed: a panel drawn at entropy 0, which the
seed only puts in order. The cost of one oracle learn or one vote varies so
widely between inputs that panels drawn from the seed spread learn_s.p50
and items_per_s by 0.26-0.29 of their median across ten seeds at 30 s
runs, more than any metric's bound may be.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

from relcd import harness, rcd, skeleton
from relcd.ci import OracleCI, RegressionCI
from relcd.schema import Cardinality

HOP_THRESHOLD = rcd.LearnConfig().hop_threshold
DENSITY = 2.0


@dataclass
class Outcome:
    seconds: float
    items: int
    ok: bool  # the output passed the workload's check
    digest: str  # learned dependencies of this operation
    score: harness.TrialMetrics
    notes: list[str] = field(default_factory=list)


def derive(seed: int, *key: int) -> int:
    """A program seed derived from the run seed and a per-input key."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def pattern_digest(pattern) -> str:
    return json.dumps(rcd.pattern_to_dict(pattern)["dependencies"], sort_keys=True)


def data_case():
    """data-vote's schema and model: 3 entities, 5 dependencies.

    The first ``generate_case`` draw at entropy 0 whose relationships are
    all MANY/MANY, the only kind that can hold twice as many links as
    instances (link density 2).
    """
    for k in count():
        seq = np.random.SeedSequence(entropy=0, spawn_key=(k,))
        schema, truth = harness.generate_case(3, 5, HOP_THRESHOLD, seq)
        if all(Cardinality.ONE not in rel.cards for rel in schema.relationships):
            return schema, truth


def shuffled(items: list, seed: int) -> list:
    """``items`` in the order the run seed gives them."""
    order = np.random.default_rng(derive(seed, 0)).permutation(len(items))
    return [items[i] for i in order]


class OracleGrid:
    """Oracle learns on random schemas over entities {3,4} x deps {10,15}.

    The panel is the grid ``harness.run_trials`` draws at entropy 0 (50
    cases per cell); the run seed sets the order in which it is learned.
    """

    name = "oracle-grid"
    unit_ops = 200  # one pass over the panel; p90 has 20 samples beyond it
    cells = ((3, 10), (3, 15), (4, 10), (4, 15))

    def setup(self, seed: int, workdir: Path):
        panel = [
            harness.generate_case(
                e, d, HOP_THRESHOLD,
                np.random.SeedSequence(entropy=0, spawn_key=(e, d, t)),
            )
            for t in range(self.unit_ops // len(self.cells))
            for e, d in self.cells
        ]
        return shuffled(panel, seed)

    def op(self, cases, k: int, backend) -> Outcome:
        schema, truth = cases[k % len(cases)]
        start = time.perf_counter()
        pattern = rcd.rcd_learn(
            schema, backend(OracleCI(truth, hops=8)), rcd.LearnConfig()
        )
        seconds = time.perf_counter() - start
        score = harness.score(pattern, truth)
        # criterion-2 soundness: the exact oracle never adds or misorients
        sound = (
            score.skeleton_precision == 1.0
            and score.skeleton_recall == 1.0
            and score.oriented_precision == 1.0
        )
        notes = [] if sound else [f"op {k} unsound: {score}"]
        return Outcome(seconds, 1, sound, pattern_digest(pattern), score, notes)


class DataVote:
    """Majority votes with the regression backend on CSV-loaded skeletons.

    Skeletons, values and vote seeds are drawn at entropy 0, two votes per
    skeleton; the run seed sets the order of the votes. Every skeleton must
    read back from CSV bit for bit, or every vote on it fails its check.
    """

    name = "data-vote"
    unit_ops = 6  # one pass: two votes on each skeleton
    skeletons = 3
    size = 1000
    runs = 10

    def setup(self, seed: int, workdir: Path):
        schema, truth = data_case()
        sizes = dict.fromkeys(schema.entity_names, self.size)
        loaded = []
        for j in range(self.skeletons):
            skel = skeleton.random_skeleton(schema, sizes, DENSITY, seed=derive(0, 1, j))
            gg = skeleton.ground_graph(truth, skel)
            written = skel.with_values(skeleton.sample_data(gg, seed=derive(0, 2, j)))
            manifest = skeleton.save_skeleton(written, workdir / f"skeleton{j}")
            read = skeleton.load_skeleton(schema, manifest)
            same = (
                read.instances == written.instances
                and read.links == written.links
                and read.values == written.values
            )
            loaded.append((read, same))
        votes = [(*loaded[j % self.skeletons], derive(0, 3, j)) for j in range(self.unit_ops)]
        return schema, truth, shuffled(votes, seed)

    def op(self, inputs, k: int, backend) -> Outcome:
        schema, truth, votes = inputs
        data, round_trip, vote_seed = votes[k % len(votes)]
        start = time.perf_counter()
        pattern = rcd.majority_vote(
            schema, backend(RegressionCI(data)), rcd.LearnConfig(seed=vote_seed),
            runs=self.runs,
        )
        seconds = time.perf_counter() - start
        score = harness.score(pattern, truth)
        notes = [] if round_trip else [f"op {k}: CSV round trip changed the skeleton"]
        return Outcome(
            seconds, self.runs, round_trip, pattern_digest(pattern), score, notes
        )


WORKLOADS = {w.name: w for w in (OracleGrid(), DataVote())}
