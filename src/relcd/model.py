"""Relational variables, canonical dependencies, and relational models.

A relational variable pairs a path with an attribute of the path's final
class. A canonical dependency points from a cause variable to an effect
variable whose path is a singleton; models are acyclic sets of canonical
dependencies over a schema. A dependency and its reverse form one pair,
represented by ``canonical_pair``; a model maps its pairs to its
dependencies once (``RelationalModel.pairs``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import Infeasible
from .paths import RelationalPath, enumerate_paths, is_valid, parse_path, reverse
from .schema import AttributeClass, Schema, schema_from_dict, schema_to_dict


@dataclass(frozen=True, order=True)
class RelationalVariable:
    path: RelationalPath
    attribute: str

    @property
    def perspective(self) -> str:
        return self.path.perspective

    @property
    def attribute_class(self) -> AttributeClass:
        return AttributeClass(self.path.last, self.attribute)

    def __str__(self):
        return f"{self.path}.{self.attribute}"


def variable_key(v: RelationalVariable) -> tuple:
    """Canonical sort key: shorter paths first, then textual order."""
    return (len(v.path.items), v.path.items, v.attribute)


@dataclass(frozen=True, order=True)
class RelationalDependency:
    cause: RelationalVariable
    effect: RelationalVariable

    def __str__(self):
        return f"{self.cause} -> {self.effect}"


def is_canonical(dep: RelationalDependency) -> bool:
    return len(dep.effect.path.items) == 1


def reverse_dependency(dep: RelationalDependency) -> RelationalDependency:
    """The same undirected dependency expressed from the cause's class."""
    if not is_canonical(dep):
        raise ValueError(f"dependency is not canonical: {dep}")
    new_cause = RelationalVariable(reverse(dep.cause.path), dep.effect.attribute)
    new_effect = RelationalVariable(
        RelationalPath((dep.cause.path.last,)), dep.cause.attribute
    )
    return RelationalDependency(new_cause, new_effect)


def canonical_pair(dep: RelationalDependency) -> RelationalDependency:
    """Representative of the unordered {dep, reverse_dependency(dep)} pair."""
    rev = reverse_dependency(dep)
    return dep if str(dep) <= str(rev) else rev


def validate_dependency(dep: RelationalDependency, schema: Schema) -> None:
    if not is_canonical(dep):
        raise ValueError(f"dependency is not canonical: {dep}")
    if not is_valid(dep.cause.path, schema):
        raise ValueError(f"invalid cause path in {dep}")
    if dep.cause.path.perspective != dep.effect.path.perspective:
        raise ValueError(f"cause and effect perspectives differ in {dep}")
    for var in (dep.cause, dep.effect):
        if var.attribute not in schema.attributes_of(var.path.last):
            raise ValueError(
                f"{var.path.last!r} has no attribute {var.attribute!r} in {dep}"
            )
    if dep.cause.attribute_class == dep.effect.attribute_class:
        raise ValueError(f"dependency relates an attribute class to itself: {dep}")


@dataclass(frozen=True)
class RelationalModel:
    schema: Schema
    dependencies: tuple[RelationalDependency, ...]

    def __post_init__(self):
        deps = tuple(sorted(set(self.dependencies), key=str))
        object.__setattr__(self, "dependencies", deps)
        for dep in deps:
            validate_dependency(dep, self.schema)
        edges: dict[AttributeClass, set[AttributeClass]] = {}
        for dep in deps:
            cause, effect = dep.cause.attribute_class, dep.effect.attribute_class
            if _closes_cycle(edges, cause, effect):
                raise ValueError("model has a cyclic class dependency graph")
            edges.setdefault(cause, set()).add(effect)

    @cached_property
    def pairs(self) -> dict[RelationalDependency, RelationalDependency]:
        """Each dependency's canonical pair mapped to it, in text order.

        An acyclic model never holds both directions of a pair.
        """
        return {canonical_pair(d): d for d in self.dependencies}


def potential_dependencies(
    schema: Schema, hop_threshold: int
) -> list[RelationalDependency]:
    """All canonical dependencies with cause paths within the hop threshold.

    Same-attribute-class pairs are excluded (they would make any model
    cyclic), so the result is closed under reverse_dependency. The list is
    in text order. Each dependency's text is built once, from its path's
    text, and is the sort key; each cause variable is made once per (path,
    attribute) and each effect variable once per (item class, attribute),
    so dependencies share them. Nothing is cached: ``rcd.learn_plan`` keeps
    a learner's copy.
    """
    keyed: list[tuple[str, RelationalDependency]] = []
    for item in sorted(schema.item_classes):
        effect_path = RelationalPath((item,))
        effects = [
            (attr, RelationalVariable(effect_path, attr))
            for attr in schema.attributes_of(item)
        ]
        for p in enumerate_paths(schema, item, hop_threshold):
            path_text = str(p)
            for cause_attr in schema.attributes_of(p.last):
                cause = RelationalVariable(p, cause_attr)
                head = f"{path_text}.{cause_attr} -> [{item}]."
                for effect_attr, effect in effects:
                    if p.last == item and cause_attr == effect_attr:
                        continue
                    keyed.append(
                        (head + effect_attr, RelationalDependency(cause, effect))
                    )
    keyed.sort(key=itemgetter(0))
    return [dep for _, dep in keyed]


def _closes_cycle(
    edges: dict[AttributeClass, set[AttributeClass]],
    cause: AttributeClass,
    effect: AttributeClass,
) -> bool:
    # adding cause -> effect closes a cycle iff cause is reachable from effect
    stack = [effect]
    seen = {effect}
    while stack:
        node = stack.pop()
        if node == cause:
            return True
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def random_model(
    schema: Schema,
    num_deps: int,
    hop_threshold: int = 4,
    max_parents: int = 3,
    seed: int = 0,
    restarts: int = 1,
) -> RelationalModel:
    """Sample a model by drawing dependencies uniformly without replacement.

    Draws violating acyclicity or the per-effect parent bound are discarded
    permanently (they can never become legal later), so a pass either
    places ``num_deps`` dependencies or dead-ends; up to ``restarts``
    passes are tried before raising Infeasible.
    """
    if num_deps < 0:
        raise ValueError("num_deps must be >= 0")
    if max_parents < 0:
        raise ValueError("max_parents must be >= 0")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    full_pool = potential_dependencies(schema, hop_threshold)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        pool = list(full_pool)
        chosen: list[RelationalDependency] = []
        edges: dict[AttributeClass, set[AttributeClass]] = {}
        parent_count: dict[AttributeClass, int] = {}
        while len(chosen) < num_deps and pool:
            dep = pool.pop(int(rng.integers(len(pool))))
            cause_ac = dep.cause.attribute_class
            effect_ac = dep.effect.attribute_class
            if parent_count.get(effect_ac, 0) >= max_parents:
                continue
            if _closes_cycle(edges, cause_ac, effect_ac):
                continue
            chosen.append(dep)
            edges.setdefault(cause_ac, set()).add(effect_ac)
            parent_count[effect_ac] = parent_count.get(effect_ac, 0) + 1
        if len(chosen) == num_deps:
            return RelationalModel(schema, tuple(chosen))
    raise Infeasible(f"could only place {len(chosen)} of {num_deps} dependencies")


def parse_variable(text: str) -> RelationalVariable:
    text = text.strip()
    if "]." not in text:
        raise ValueError(f"malformed relational variable: {text!r}")
    path_text, attr = text.rsplit("].", 1)
    return RelationalVariable(parse_path(path_text + "]"), attr.strip())


def parse_dependency(text: str) -> RelationalDependency:
    if "->" not in text:
        raise ValueError(f"malformed dependency: {text!r}")
    cause_text, effect_text = text.split("->", 1)
    return RelationalDependency(
        parse_variable(cause_text), parse_variable(effect_text)
    )


def model_to_dict(model: RelationalModel) -> dict:
    return {
        "schema": schema_to_dict(model.schema),
        "dependencies": [str(d) for d in model.dependencies],
    }


def model_from_dict(doc: dict) -> RelationalModel:
    try:
        schema = schema_from_dict(doc["schema"])
        deps = tuple(parse_dependency(t) for t in doc.get("dependencies", ()))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    return RelationalModel(schema, deps)


def model_to_json(model: RelationalModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"


def model_from_json(text: str) -> RelationalModel:
    return model_from_dict(json.loads(text))
