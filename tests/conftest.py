import pytest

from relcd.agg import bits
from relcd.model import (
    RelationalDependency,
    RelationalModel,
    RelationalVariable,
)
from relcd.paths import RelationalPath
from relcd.schema import Cardinality, EntityClass, RelationshipClass, Schema
from relcd.skeleton import ground_graph, random_skeleton, sample_data


class CountingCI:
    """A CI backend that counts the queries it passes to ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def independent(self, table, x, y, z=0):
        self.calls += 1
        return self.inner.independent(table, x, y, z)


def as_variables(table, x, y, z):
    """An id query of ``table`` as its variables: (x, y, cond)."""
    nodes = table.nodes
    return nodes[x], nodes[y], frozenset(nodes[i] for i in bits(z))


def var(path_items, attribute):
    return RelationalVariable(RelationalPath(tuple(path_items)), attribute)


def dep(cause_items, cause_attr, effect_cls, effect_attr):
    return RelationalDependency(
        var(cause_items, cause_attr), var([effect_cls], effect_attr)
    )


@pytest.fixture(scope="session")
def movie_schema():
    return Schema(
        entities=(
            EntityClass("ACTOR", ("Popularity",)),
            EntityClass("MOVIE", ("Success",)),
        ),
        relationships=(
            RelationshipClass(
                "STARS-IN",
                ("ACTOR", "MOVIE"),
                (Cardinality.MANY, Cardinality.MANY),
            ),
        ),
    )


@pytest.fixture(scope="session")
def movie_truth(movie_schema):
    # actor popularity causes movie success
    return RelationalModel(
        movie_schema,
        (dep(["MOVIE", "STARS-IN", "ACTOR"], "Popularity", "MOVIE", "Success"),),
    )


@pytest.fixture(scope="session")
def movie_data(movie_truth):
    skel = random_skeleton(
        movie_truth.schema, {"ACTOR": 5000, "MOVIE": 5000}, 3.0, seed=17
    )
    values = sample_data(ground_graph(movie_truth, skel), seed=18)
    return skel.with_values(values)


@pytest.fixture(scope="session")
def employer_schema():
    # an employee works for at most one company; a company employs many
    return Schema(
        entities=(
            EntityClass("EMPLOYEE", ("Skill",)),
            EntityClass("COMPANY", ("Revenue",)),
        ),
        relationships=(
            RelationshipClass(
                "WORKS-FOR",
                ("EMPLOYEE", "COMPANY"),
                (Cardinality.ONE, Cardinality.MANY),
            ),
        ),
    )


@pytest.fixture(scope="session")
def one_one_schema():
    return Schema(
        entities=(
            EntityClass("PERSON", ("Age",)),
            EntityClass("PASSPORT", ("Stamps",)),
        ),
        relationships=(
            RelationshipClass(
                "HOLDS",
                ("PERSON", "PASSPORT"),
                (Cardinality.ONE, Cardinality.ONE),
            ),
        ),
    )


def single_entity_schema(*attrs):
    return Schema((EntityClass("E1", tuple(attrs)),))


def propositional_model(schema, edges):
    entity = schema.entities[0].name
    return RelationalModel(
        schema, tuple(dep([entity], a, entity, b) for a, b in edges)
    )
