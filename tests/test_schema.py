import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcd.schema import (
    Cardinality,
    EntityClass,
    RelationshipClass,
    Schema,
    random_schema,
    schema_from_json,
    schema_to_json,
    validate_schema,
)


def test_movie_schema_valid(movie_schema):
    report = validate_schema(movie_schema)
    assert report.ok
    assert report.errors == ()


def test_self_relationship_rejected():
    schema = Schema(
        entities=(EntityClass("ACTOR", ("Popularity",)),),
        relationships=(
            RelationshipClass(
                "KNOWS", ("ACTOR", "ACTOR"), (Cardinality.MANY, Cardinality.MANY)
            ),
        ),
    )
    report = validate_schema(schema)
    assert not report.ok
    assert any("distinct" in e for e in report.errors)


def test_empty_schema_vacuously_valid():
    assert validate_schema(Schema(entities=())).ok


def test_duplicate_names_reported():
    schema = Schema(
        entities=(EntityClass("A", ("X",)), EntityClass("A", ("Y",))),
    )
    report = validate_schema(schema)
    assert not report.ok
    assert any("duplicate item class" in e for e in report.errors)


def test_unknown_participant_reported():
    schema = Schema(
        entities=(EntityClass("A", ("X",)),),
        relationships=(
            RelationshipClass("R", ("A", "B"), (Cardinality.ONE, Cardinality.ONE)),
        ),
    )
    assert not validate_schema(schema).ok


def test_duplicate_attribute_reported():
    schema = Schema(entities=(EntityClass("A", ("X", "X")),))
    assert not validate_schema(schema).ok


@pytest.mark.parametrize(
    ("schema", "error"),
    [
        (Schema(entities=(EntityClass("1A", ("X",)),)), "invalid item class name '1A'"),
        (
            Schema(entities=(EntityClass("A", ("X y",)),)),
            "invalid attribute name 'X y' on 'A'",
        ),
        (
            Schema(
                entities=(EntityClass("A", ("X",)), EntityClass("B", ("Y",))),
                relationships=(RelationshipClass("R", ("A", "B"), (Cardinality.ONE,)),),
            ),
            "'R': cardinality required for both participants",
        ),
        (
            Schema(
                entities=tuple(EntityClass(e, ("X",)) for e in "ABC"),
                relationships=(
                    RelationshipClass("R", ("A", "B", "C"), (Cardinality.ONE,) * 3),
                ),
            ),
            "'R': exactly two participants required",
        ),
    ],
    ids=["class-name", "attribute-name", "one-cardinality", "three-participants"],
)
def test_validate_schema_names_each_fault(schema, error):
    assert validate_schema(schema).errors == (error,)


@pytest.mark.parametrize("method", ["card", "other"])
def test_relationship_refuses_a_non_participant(movie_schema, method):
    stars_in = movie_schema.item_classes["STARS-IN"]
    with pytest.raises(ValueError, match="'STUDIO' does not participate in 'STARS-IN'"):
        getattr(stars_in, method)("STUDIO")


@given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_schema_well_formed(seed, k):
    schema = random_schema(seed, k)
    assert validate_schema(schema).ok
    assert len(schema.entities) == k
    assert len(schema.relationships) == k - 1
    for item in (*schema.entities, *schema.relationships):
        assert len(item.attributes) >= 1
    # the entity-relationship structure is a connected tree
    g = nx.Graph()
    g.add_nodes_from(e.name for e in schema.entities)
    for rel in schema.relationships:
        g.add_node(rel.name)
        g.add_edge(rel.name, rel.participants[0])
        g.add_edge(rel.name, rel.participants[1])
    assert nx.is_connected(g)
    assert nx.is_tree(g)


def test_random_schema_deterministic():
    assert random_schema(42, 3) == random_schema(42, 3)
    assert random_schema(42, 3) != random_schema(43, 3)


def test_random_schema_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        random_schema(-1, 2)


def test_random_schema_rejects_bad_count():
    with pytest.raises(ValueError):
        random_schema(0, 0)


@pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf"), 1e9, 1e300])
def test_random_schema_rejects_bad_attr_rate(monkeypatch, rate):
    def no_draws(seed):
        raise AssertionError("a rejected rate must draw nothing")

    monkeypatch.setattr("relcd.schema.np.random.default_rng", no_draws)
    message = r"attr_rate must be finite and in \[0, 100\]"
    with pytest.raises(ValueError, match=message):
        random_schema(0, 2, attr_rate=rate)


def test_random_schema_accepts_the_largest_attr_rate():
    schema = random_schema(0, 1, attr_rate=100.0)
    assert len(schema.entities[0].attributes) > 1


def test_random_schema_zero_attr_rate_gives_one_attribute_each():
    schema = random_schema(5, 3, attr_rate=0.0)
    for item in schema.item_classes.values():
        assert len(item.attributes) == 1


def test_schema_json_round_trip(movie_schema):
    text = schema_to_json(movie_schema)
    assert schema_from_json(text) == movie_schema
    doc = json.loads(text)
    rel = doc["relationships"][0]
    assert rel["card"] == {"ACTOR": "MANY", "MOVIE": "MANY"}


def test_schema_json_rejects_invalid():
    doc = {
        "entities": [{"name": "A", "attributes": ["X"]}],
        "relationships": [
            {
                "name": "R",
                "participants": ["A", "A"],
                "card": {"A": "ONE"},
                "attributes": [],
            }
        ],
    }
    with pytest.raises(ValueError):
        schema_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    ("doc", "error"),
    [
        (
            {
                "entities": [{"name": "A"}, {"name": "B"}, {"name": "C"}],
                "relationships": [
                    {"name": "R", "participants": ["A", "B", "C"], "card": {}}
                ],
            },
            "relationship 'R': exactly two participants required",
        ),
        ({"entities": [{"attributes": ["X"]}]}, "malformed schema document: 'name'"),
    ],
    ids=["three-participants", "no-name"],
)
def test_schema_json_names_a_malformed_document(doc, error):
    with pytest.raises(ValueError, match=error):
        schema_from_json(json.dumps(doc))
