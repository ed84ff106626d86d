"""Walk through the actor/movie example end to end.

Builds the two lifted graphs for the single-dependency model, shows the
collider and common-cause views, and runs the learner against both the
exact oracle and regression tests on synthetic data.
"""

from relcd import (
    LearnConfig,
    OracleCI,
    RegressionCI,
    ground_graph,
    majority_vote,
    oriented_agg,
    random_skeleton,
    rcd_learn,
    sample_data,
)
from relcd.agg import agg_to_dot
from relcd.model import RelationalModel, parse_dependency
from relcd.schema import Cardinality, EntityClass, RelationshipClass, Schema


def movie_domain():
    schema = Schema(
        entities=(
            EntityClass("ACTOR", ("Popularity",)),
            EntityClass("MOVIE", ("Success",)),
        ),
        relationships=(
            RelationshipClass(
                "STARS-IN", ("ACTOR", "MOVIE"), (Cardinality.MANY, Cardinality.MANY)
            ),
        ),
    )
    truth = RelationalModel(
        schema,
        (parse_dependency("[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE].Success"),),
    )
    return schema, truth


def main():
    schema, truth = movie_domain()
    for perspective in ("ACTOR", "MOVIE"):
        print(f"--- lifted graph, {perspective} perspective ---")
        print(agg_to_dot(oriented_agg(truth, perspective, 4)))

    oracle_pattern = rcd_learn(schema, OracleCI(truth, hops=8), LearnConfig())
    print("oracle learn:", [str(d) for d in oracle_pattern.directed])

    skeleton = random_skeleton(schema, {"ACTOR": 5000, "MOVIE": 5000}, 3.0, seed=1)
    values = sample_data(ground_graph(truth, skeleton), seed=2)
    backend = RegressionCI(skeleton.with_values(values))
    vote = majority_vote(schema, backend, LearnConfig(seed=0), runs=100)
    print("data learn (100-run vote):", [str(d) for d in vote.directed])


if __name__ == "__main__":
    main()
