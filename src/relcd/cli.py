"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 infeasible generation request.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .agg import agg_to_dot, build_agg
from .ci import CIQuery, OracleCI, RegressionCI
from .errors import Infeasible
from .harness import (
    BENCH_COLUMNS,
    PROFILE_COLUMNS,
    TrialConfig,
    bench_to_csv,
    run_bench,
)
from .model import (
    canonical_pair,
    model_from_json,
    model_to_json,
    parse_variable,
    random_model,
)
from .rcd import LearnConfig, majority_vote, pattern_to_dict, rcd_learn
from .schema import random_schema, schema_from_json, schema_to_json
from .skeleton import (
    ground_graph,
    load_skeleton,
    random_skeleton,
    sample_data,
    save_skeleton,
)


def _write(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _read_schema(path: str):
    return schema_from_json(Path(path).read_text())


def _read_model(path: str):
    return model_from_json(Path(path).read_text())


def _json_dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_gen_schema(args) -> None:
    schema = random_schema(args.seed, args.entities, attr_rate=args.attr_rate)
    _write(schema_to_json(schema), args.output)


def cmd_gen_model(args) -> None:
    schema = _read_schema(args.schema)
    model = random_model(
        schema,
        args.deps,
        hop_threshold=args.hop_threshold,
        max_parents=args.max_parents,
        seed=args.seed,
        restarts=args.restarts,
    )
    _write(model_to_json(model), args.output)


def cmd_gen_skeleton(args) -> None:
    schema = _read_schema(args.schema)
    sizes = {}
    for part in args.sizes.split(","):
        name, _, count = part.partition("=")
        name = name.strip()
        if name in sizes:
            raise ValueError(f"size for {name!r} given twice")
        sizes[name] = int(count)
    skeleton = random_skeleton(schema, sizes, link_density=args.density, seed=args.seed)
    if args.model:
        model = _read_model(args.model)
        values = sample_data(ground_graph(model, skeleton), seed=args.seed)
        skeleton = skeleton.with_values(values)
    manifest = save_skeleton(skeleton, args.output)
    sys.stdout.write(f"{manifest}\n")


def cmd_learn(args) -> None:
    schema = _read_schema(args.schema)
    if (args.model is None) == (args.data is None):
        raise ValueError("provide exactly one of --model (oracle) or --data")
    if args.runs < 1:
        raise ValueError("--runs must be >= 1")
    if not 0 < args.vote_threshold <= 1:
        raise ValueError("--vote-threshold must lie in (0, 1]")
    if args.model:
        backend = OracleCI(_read_model(args.model), hops=args.oracle_hops)
    else:
        skeleton = load_skeleton(schema, args.data)
        backend = RegressionCI(
            skeleton, alpha=args.alpha, effect_threshold=args.effect_threshold
        )
    config = LearnConfig(
        hop_threshold=args.hop_threshold,
        depth=args.depth,
        rbo_order=args.rbo_order,
        seed=args.seed,
    )
    if args.runs > 1:
        pattern = majority_vote(
            schema, backend, config, runs=args.runs, threshold=args.vote_threshold
        )
    else:
        pattern = rcd_learn(schema, backend, config)
    if args.format == "dot":
        _write(_pattern_dot(pattern), args.output)
    else:
        _write(_json_dump(pattern_to_dict(pattern)), args.output)


def _pattern_dot(pattern) -> str:
    lines = ["digraph learned {", "  node [shape=box, fontsize=10];"]
    for dep in pattern.directed:
        lines.append(f'  "{dep.cause.attribute_class}" -> "{dep.effect.attribute_class}";')
    for pair, _rev in pattern.undirected:
        lines.append(
            f'  "{pair.cause.attribute_class}" -> "{pair.effect.attribute_class}" [dir=none];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_dsep(args) -> None:
    model = _read_model(args.model)
    backend = OracleCI(model, hops=args.hops)
    given = frozenset(
        parse_variable(v) for v in args.given.split(";") if v.strip()
    )
    query = CIQuery(
        args.perspective, parse_variable(args.x), parse_variable(args.y), given
    )
    verdict = backend.independent(query)
    sys.stdout.write("independent\n" if verdict else "dependent\n")


def cmd_gg_export(args) -> None:
    model = _read_model(args.model)
    skeleton = load_skeleton(model.schema, args.data)
    gg = ground_graph(model, skeleton)
    if args.format == "json":
        doc = {
            "nodes": [".".join(n) for n in sorted(gg.nodes)],
            "edges": [
                [".".join(a), ".".join(b)] for a, b in gg.edges()
            ],
        }
        _write(_json_dump(doc), args.output)
    else:
        lines = ["digraph ground {", "  node [shape=ellipse, fontsize=10];"]
        for a, b in gg.edges():
            lines.append(f'  "{".".join(a)}" -> "{".".join(b)}";')
        lines.append("}")
        _write("\n".join(lines) + "\n", args.output)


def cmd_agg_export(args) -> None:
    model = _read_model(args.model)
    registry = {canonical_pair(d): d for d in model.dependencies}
    agg = build_agg(
        model.dependencies, model.schema, args.perspective, args.hops, registry
    )
    _write(agg_to_dot(agg), args.output)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def cmd_bench(args) -> None:
    _run_grid(args, "rbo_after_cd", BENCH_COLUMNS)


def cmd_profile(args) -> None:
    _run_grid(args, args.mode, PROFILE_COLUMNS)


def _run_grid(args, rbo_order: str, columns: tuple[str, ...]) -> None:
    config = TrialConfig(
        entities=_int_list(args.entities),
        deps=_int_list(args.deps),
        trials=args.trials,
        hop_threshold=args.hop_threshold,
        oracle_hops=args.oracle_hops,
        depth=args.depth,
        seed=args.seed,
    )
    cells, notes = run_bench(config, rbo_order=rbo_order, workers=args.workers)
    _write(bench_to_csv(cells, columns), args.output)
    for note in notes:
        sys.stderr.write(note + "\n")


def _add_grid_arguments(p: argparse.ArgumentParser) -> None:
    """The benchmark grid flags shared by ``bench`` and ``profile``."""
    p.add_argument("--entities", default="1,2,3,4")
    p.add_argument("--deps", default="1,5,10,15")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--hop-threshold", type=int, default=4)
    p.add_argument("--oracle-hops", type=int, default=8)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", "-o", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcd", description="Relational causal discovery toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate schemas, models, skeletons")
    gen_sub = gen.add_subparsers(dest="what", required=True)

    p = gen_sub.add_parser("schema")
    p.add_argument("--entities", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attr-rate", type=float, default=1.0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_gen_schema)

    p = gen_sub.add_parser("model")
    p.add_argument("--schema", required=True)
    p.add_argument("--deps", type=int, required=True)
    p.add_argument("--hop-threshold", type=int, default=4)
    p.add_argument("--max-parents", type=int, default=3)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_gen_model)

    p = gen_sub.add_parser("skeleton")
    p.add_argument("--schema", required=True)
    p.add_argument("--sizes", required=True, help="e.g. E1=30,E2=40")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--model", default=None, help="sample attribute values from this model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", required=True, help="directory for CSV files")
    p.set_defaults(func=cmd_gen_skeleton)

    p = sub.add_parser("learn", help="run the learner")
    p.add_argument("--schema", required=True)
    p.add_argument("--model", default=None, help="oracle backend over this model")
    p.add_argument("--data", default=None, help="skeleton manifest for the regression backend")
    p.add_argument("--hop-threshold", type=int, default=4)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--oracle-hops", type=int, default=8)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--effect-threshold", type=float, default=0.01)
    p.add_argument("--rbo-order", default="rbo_after_cd",
                   choices=["rbo_after_cd", "rbo_first", "rbo_last"])
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--vote-threshold", type=float, default=2 / 3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="json", choices=["json", "dot"])
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("dsep", help="query the exact-independence oracle")
    p.add_argument("--model", required=True)
    p.add_argument("--perspective", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--given", default="")
    p.add_argument("--hops", type=int, default=8)
    p.set_defaults(func=cmd_dsep)

    gg = sub.add_parser("gg", help="ground graph operations")
    gg_sub = gg.add_subparsers(dest="what", required=True)
    p = gg_sub.add_parser("export")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="skeleton manifest")
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_gg_export)

    agg = sub.add_parser("agg", help="lifted graph operations")
    agg_sub = agg.add_subparsers(dest="what", required=True)
    p = agg_sub.add_parser("export")
    p.add_argument("--model", required=True)
    p.add_argument("--perspective", required=True)
    p.add_argument("--hops", type=int, default=8)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_agg_export)

    p = sub.add_parser("bench", help="synthetic oracle benchmark")
    _add_grid_arguments(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("profile", help="rule activation profile")
    p.add_argument("--mode", required=True, choices=["rbo_first", "rbo_last", "rbo_after_cd"])
    _add_grid_arguments(p)
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Infeasible as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
