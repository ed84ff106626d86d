"""Relational path algebra.

A relational path is an alternating sequence of entity and relationship
class names tracing a connected walk through a schema. Paths anchor
relational variables: the first item is the perspective, the last item is
the class whose attributes the path can reach.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schema import Cardinality, Schema


@dataclass(frozen=True, order=True)
class RelationalPath:
    items: tuple[str, ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("relational path must be non-empty")

    @property
    def perspective(self) -> str:
        return self.items[0]

    @property
    def last(self) -> str:
        return self.items[-1]

    def __str__(self):
        return "[" + ", ".join(self.items) + "]"


def path(*items: str) -> RelationalPath:
    return RelationalPath(tuple(items))


def parse_path(text: str) -> RelationalPath:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"path must be bracketed: {text!r}")
    items = tuple(part.strip() for part in text[1:-1].split(","))
    if any(not item for item in items):
        raise ValueError(f"malformed path: {text!r}")
    return RelationalPath(items)


def is_valid(p: RelationalPath, schema: Schema) -> bool:
    """Whether ``p`` is a traversable path under the schema.

    Requires alternation between entity and relationship classes,
    participation of each consecutive pair, card(R, E) = MANY whenever a
    relationship class repeats around an entity ([R, E, R]), and distinct
    entity classes around a relationship ([E, R, E']).
    """
    items = p.items
    for name in items:
        if name not in schema.item_classes:
            raise ValueError(f"unknown item class {name!r}")
    start_is_entity = schema.is_entity(items[0])
    for i, name in enumerate(items):
        want_entity = start_is_entity == (i % 2 == 0)
        if schema.is_entity(name) != want_entity:
            return False
    for a, b in zip(items, items[1:]):
        rel = schema.item_classes[b if schema.is_relationship(b) else a]
        ent = a if schema.is_entity(a) else b
        if ent not in rel.participants:
            return False
    for a, b, c in zip(items, items[1:], items[2:]):
        if schema.is_relationship(a):
            # [R, E, R'] : revisiting the same relationship class needs MANY
            if a == c and schema.item_classes[a].card(b) is not Cardinality.MANY:
                return False
        else:
            # [E, R, E'] : a binary relationship cannot return to its source
            if a == c:
                return False
    return True


def reverse(p: RelationalPath) -> RelationalPath:
    return RelationalPath(tuple(reversed(p.items)))


def enumerate_paths(
    schema: Schema, perspective: str, hop_threshold: int
) -> list[RelationalPath]:
    """All valid paths from ``perspective`` with at most ``hop_threshold`` hops.

    Includes the singleton path. Results are sorted by (length, items).
    """
    if perspective not in schema.item_classes:
        raise ValueError(f"unknown item class {perspective!r}")
    if hop_threshold < 0:
        raise ValueError("hop_threshold must be >= 0")
    out: list[tuple[str, ...]] = []
    stack: list[tuple[str, ...]] = [(perspective,)]
    while stack:
        items = stack.pop()
        out.append(items)
        if len(items) > hop_threshold:
            continue
        last = items[-1]
        if schema.is_entity(last):
            for rel in schema.relationships:
                if last not in rel.participants:
                    continue
                if (
                    len(items) >= 2
                    and items[-2] == rel.name
                    and rel.card(last) is not Cardinality.MANY
                ):
                    continue
                stack.append(items + (rel.name,))
        else:
            rel = schema.item_classes[last]
            if len(items) == 1:
                stack.extend(items + (p,) for p in rel.participants)
            else:
                stack.append(items + (rel.other(items[-2]),))
    return sorted(
        (RelationalPath(items) for items in out), key=lambda p: (len(p.items), p.items)
    )


def compositions(a: tuple[str, ...], b: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Pivot compositions of two item tuples, shortest first, not validated.

    For every pivot m >= 1 where the last m items of ``a`` reversed equal
    the first m items of ``b``, a candidate drops those m items from ``a``
    and the first m - 1 items from ``b``. The pivots that match are
    m = 1..r for some r, and each gives a candidate of another length.
    """
    run = 0
    while run < min(len(a), len(b)) and a[-1 - run] == b[run]:
        run += 1
    return [a[: len(a) - m] + b[m - 1 :] for m in range(run, 0, -1)]
