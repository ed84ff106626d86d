"""Relational schemas: entity, relationship, and attribute classes.

A schema describes the item classes of a domain (entities and binary
relationships between them), the continuous attributes each class carries,
and per-participant cardinality constraints. Schemas are immutable after
construction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")


class Cardinality(Enum):
    """Participation bound of one entity instance in a relationship class."""

    ONE = "ONE"
    MANY = "MANY"

    def __str__(self):
        return self.value


@dataclass(frozen=True, order=True)
class AttributeClass:
    """A named attribute qualified by the item class that owns it.

    All attribute domains are continuous reals.
    """

    owner: str
    name: str

    def __str__(self):
        return f"{self.owner}.{self.name}"


@dataclass(frozen=True)
class EntityClass:
    name: str
    attributes: tuple[str, ...] = ()


@dataclass(frozen=True)
class RelationshipClass:
    """A binary relationship between two distinct entity classes.

    ``cards[i]`` bounds how many link instances one instance of
    ``participants[i]`` may take part in: MANY means unbounded, ONE means
    at most a single link.
    """

    name: str
    participants: tuple[str, str]
    cards: tuple[Cardinality, Cardinality]
    attributes: tuple[str, ...] = ()

    def card(self, entity: str) -> Cardinality:
        if entity == self.participants[0]:
            return self.cards[0]
        if entity == self.participants[1]:
            return self.cards[1]
        raise ValueError(f"{entity!r} does not participate in {self.name!r}")

    def other(self, entity: str) -> str:
        if entity == self.participants[0]:
            return self.participants[1]
        if entity == self.participants[1]:
            return self.participants[0]
        raise ValueError(f"{entity!r} does not participate in {self.name!r}")


@dataclass(frozen=True)
class Schema:
    entities: tuple[EntityClass, ...]
    relationships: tuple[RelationshipClass, ...] = ()

    @cached_property
    def item_classes(self) -> dict[str, EntityClass | RelationshipClass]:
        out: dict[str, EntityClass | RelationshipClass] = {}
        for item in (*self.entities, *self.relationships):
            out[item.name] = item
        return out

    @cached_property
    def entity_names(self) -> frozenset[str]:
        return frozenset(e.name for e in self.entities)

    @cached_property
    def relationship_names(self) -> frozenset[str]:
        return frozenset(r.name for r in self.relationships)

    def is_entity(self, name: str) -> bool:
        return name in self.entity_names

    def is_relationship(self, name: str) -> bool:
        return name in self.relationship_names

    def attributes_of(self, name: str) -> tuple[str, ...]:
        return self.item_classes[name].attributes


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...] = ()


def validate_schema(schema: Schema) -> ValidationReport:
    """Check every schema invariant, returning all violations found."""
    errors: list[str] = []
    seen: set[str] = set()
    for item in (*schema.entities, *schema.relationships):
        if not NAME_RE.match(item.name):
            errors.append(f"invalid item class name {item.name!r}")
        if item.name in seen:
            errors.append(f"duplicate item class name {item.name!r}")
        seen.add(item.name)
        attr_seen: set[str] = set()
        for a in item.attributes:
            if not NAME_RE.match(a):
                errors.append(f"invalid attribute name {a!r} on {item.name!r}")
            if a in attr_seen:
                errors.append(f"duplicate attribute {a!r} on {item.name!r}")
            attr_seen.add(a)
    entity_names = {e.name for e in schema.entities}
    for rel in schema.relationships:
        if len(rel.participants) != 2:
            errors.append(f"{rel.name!r}: exactly two participants required")
            continue
        e1, e2 = rel.participants
        if e1 == e2:
            errors.append(f"{rel.name!r}: participants distinct")
        for e in (e1, e2):
            if e not in entity_names:
                errors.append(f"{rel.name!r}: unknown participant {e!r}")
        if len(rel.cards) != 2:
            errors.append(f"{rel.name!r}: cardinality required for both participants")
    return ValidationReport(ok=not errors, errors=tuple(errors))


def random_schema(seed: int, num_entities: int, attr_rate: float = 1.0) -> Schema:
    """Generate a random schema with a tree-shaped entity-relationship layout.

    ``num_entities`` entity classes are connected by ``num_entities - 1``
    binary relationship classes (each new entity attaches to a uniformly
    chosen earlier one). Participant cardinalities are uniform over
    {ONE, MANY} and every item class draws Pois(attr_rate) + 1 attributes;
    the rate is capped at 100 so that a class holds a bounded name list.
    """
    if num_entities < 1:
        raise ValueError("num_entities must be >= 1")
    if not 0 <= attr_rate <= 100:
        raise ValueError("attr_rate must be finite and in [0, 100]")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    entity_names = [f"E{i + 1}" for i in range(num_entities)]
    rel_specs: list[tuple[str, str, str, Cardinality, Cardinality]] = []
    for i in range(1, num_entities):
        partner = entity_names[int(rng.integers(0, i))]
        c1, c2 = rng.choice([Cardinality.ONE.value, Cardinality.MANY.value], size=2)
        rel_specs.append(
            (f"R{i}", partner, entity_names[i], Cardinality(c1), Cardinality(c2))
        )
    # attributes drawn per item class in declaration order, named globally
    counter = 0
    attrs: dict[str, tuple[str, ...]] = {}
    for name in entity_names + [r[0] for r in rel_specs]:
        k = int(rng.poisson(attr_rate)) + 1
        attrs[name] = tuple(f"X{counter + j + 1}" for j in range(k))
        counter += k
    entities = tuple(EntityClass(n, attrs[n]) for n in entity_names)
    relationships = tuple(
        RelationshipClass(n, (e1, e2), (c1, c2), attrs[n])
        for n, e1, e2, c1, c2 in rel_specs
    )
    return Schema(entities=entities, relationships=relationships)


def schema_to_dict(schema: Schema) -> dict:
    return {
        "entities": [
            {"name": e.name, "attributes": list(e.attributes)} for e in schema.entities
        ],
        "relationships": [
            {
                "name": r.name,
                "participants": list(r.participants),
                "card": {
                    r.participants[0]: r.cards[0].value,
                    r.participants[1]: r.cards[1].value,
                },
                "attributes": list(r.attributes),
            }
            for r in schema.relationships
        ],
    }


def schema_from_dict(doc: dict) -> Schema:
    try:
        entities = tuple(
            EntityClass(e["name"], tuple(e.get("attributes", ())))
            for e in doc["entities"]
        )
        relationships = []
        for r in doc.get("relationships", ()):
            participants = tuple(r["participants"])
            if len(participants) != 2:
                raise ValueError(
                    f"relationship {r.get('name')!r}: exactly two participants required"
                )
            cards = tuple(Cardinality(r["card"][p]) for p in participants)
            relationships.append(
                RelationshipClass(
                    r["name"], participants, cards, tuple(r.get("attributes", ()))
                )
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed schema document: {exc}") from exc
    schema = Schema(entities=entities, relationships=tuple(relationships))
    report = validate_schema(schema)
    if not report.ok:
        raise ValueError("invalid schema: " + "; ".join(report.errors))
    return schema


def schema_to_json(schema: Schema) -> str:
    return json.dumps(schema_to_dict(schema), indent=2, sort_keys=True) + "\n"


def schema_from_json(text: str) -> Schema:
    return schema_from_dict(json.loads(text))
