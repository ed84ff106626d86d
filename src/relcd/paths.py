"""Relational path algebra.

A relational path is an alternating sequence of entity and relationship
class names tracing a connected walk through a schema. Paths anchor
relational variables: the first item is the perspective, the last item is
the class whose attributes the path can reach. ``path_tree`` enumerates
the valid paths from a perspective within a hop bound as a tree of
integer path ids, which ``agg.node_table`` keeps and the lifting walks.
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


@dataclass(frozen=True)
class PathTree:
    """The valid paths from one perspective within a hop bound, as ids.

    Path ids follow (length, items) order, so the perspective's own path is
    id 0 and every path's prefix has a lower id. ``items[k]`` holds path k's
    item tuple, ``prefix[k]`` the id of path k without its last item (-1 for
    id 0), and ``step[k]`` maps each item that extends path k to a path of
    the tree to that path's id. Every prefix of a valid path is valid, so a
    tuple of items is a path of the tree exactly when walking ``step`` from
    id 0 along its items never misses.
    """

    items: tuple[tuple[str, ...], ...]
    prefix: tuple[int, ...]
    step: tuple[dict[str, int], ...]

    def walk(self, k: int, items) -> int | None:
        """The id of path k extended by ``items``; None once it leaves the tree."""
        step = self.step
        for item in items:
            k = step[k].get(item)
            if k is None:
                return None
        return k


def path_tree(schema: Schema, perspective: str, hop_threshold: int) -> PathTree:
    """Every valid path from ``perspective`` with at most ``hop_threshold`` hops.

    Grown breadth first: each path is extended, in id order, by its valid
    next items in sorted order, so the ids come out in (length, items)
    order.
    """
    if perspective not in schema.item_classes:
        raise ValueError(f"unknown item class {perspective!r}")
    if hop_threshold < 0:
        raise ValueError("hop_threshold must be >= 0")
    items: list[tuple[str, ...]] = [(perspective,)]
    prefix = [-1]
    step: list[dict[str, int]] = []
    # (last item, the one before it or None) -> the items that may follow
    follow: dict[tuple[str, str | None], list[str]] = {}
    for k, path in enumerate(items):  # items grows while it is read
        extend: dict[str, int] = {}
        step.append(extend)
        if len(path) > hop_threshold:
            continue
        key = (path[-1], path[-2] if len(path) > 1 else None)
        names = follow.get(key)
        if names is None:
            names = follow[key] = _next_items(schema, *key)
        for name in names:
            extend[name] = len(items)
            items.append(path + (name,))
            prefix.append(k)
    return PathTree(tuple(items), tuple(prefix), tuple(step))


def _next_items(schema: Schema, last: str, back: str | None) -> list[str]:
    """The items that may follow a path ending ``back, last``, sorted.

    From an entity: each relationship it takes part in, but the one it came
    from only when its cardinality there is MANY. From a relationship: the
    entity on its other side, or either participant after a singleton path.
    """
    if schema.is_entity(last):
        return sorted(
            rel.name
            for rel in schema.relationships
            if last in rel.participants
            and (rel.name != back or rel.card(last) is Cardinality.MANY)
        )
    rel = schema.item_classes[last]
    return sorted(rel.participants) if back is None else [rel.other(back)]


def enumerate_paths(
    schema: Schema, perspective: str, hop_threshold: int
) -> list[RelationalPath]:
    """All valid paths from ``perspective`` with at most ``hop_threshold`` hops.

    Includes the singleton path. Results are sorted by (length, items).
    """
    tree = path_tree(schema, perspective, hop_threshold)
    return [RelationalPath(items) for items in tree.items]
