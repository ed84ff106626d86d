import ast
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import relcd
from relcd.cli import main
from relcd.model import model_from_json, model_to_json, parse_dependency
from relcd.schema import schema_from_json, schema_to_json
from relcd.skeleton import load_skeleton
from tests.conftest import propositional_model, single_entity_schema

ROOT = Path(__file__).resolve().parents[1]


def _python_env():
    """The environment with this checkout's relcd first on the path."""
    src = str(Path(relcd.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture()
def movie_files(tmp_path, movie_schema, movie_truth):
    schema_path = tmp_path / "schema.json"
    model_path = tmp_path / "model.json"
    schema_path.write_text(schema_to_json(movie_schema))
    model_path.write_text(model_to_json(movie_truth))
    return schema_path, model_path


def run(argv):
    return main([str(a) for a in argv])


def test_gen_schema_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "schema", "--entities", 3, "--seed", 7, "-o", out1]) == 0
    assert run(["gen", "schema", "--entities", 3, "--seed", 7, "-o", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    schema = schema_from_json(out1.read_text())
    assert len(schema.entities) == 3


def test_gen_model_and_learn_round_trip(tmp_path, movie_files):
    schema_path, model_path = movie_files
    out = tmp_path / "learned.json"
    code = run(
        ["learn", "--schema", schema_path, "--model", model_path, "-o", out]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dependencies"] == [
        {
            "dependency": "[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE].Success",
            "status": "directed",
            "rule": "RBO",
        }
    ]
    # byte-identical on re-run
    out2 = tmp_path / "learned2.json"
    run(["learn", "--schema", schema_path, "--model", model_path, "-o", out2])
    assert out.read_bytes() == out2.read_bytes()


def test_gen_skeleton_and_data_learn(tmp_path, movie_files, movie_schema):
    schema_path, model_path = movie_files
    skel_dir = tmp_path / "skel"
    code = run(
        [
            "gen", "skeleton",
            "--schema", schema_path,
            "--sizes", "ACTOR=300,MOVIE=300",
            "--density", 3.0,
            "--model", model_path,
            "--seed", 5,
            "-o", skel_dir,
        ]
    )
    assert code == 0
    skeleton = load_skeleton(movie_schema, skel_dir / "manifest.json")
    assert len(skeleton.instances["ACTOR"]) == 300
    assert skeleton.values
    out = tmp_path / "learned.json"
    code = run(
        [
            "learn",
            "--schema", schema_path,
            "--data", skel_dir / "manifest.json",
            "--seed", 3,
            "-o", out,
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["dependencies"]
    # a vote: the same seed gives the same bytes
    votes = [tmp_path / "vote1.json", tmp_path / "vote2.json"]
    for vote in votes:
        argv = ["learn", "--schema", schema_path, "--data", skel_dir / "manifest.json"]
        assert run([*argv, "--runs", 3, "--seed", 3, "-o", vote]) == 0
    assert votes[0].read_bytes() == votes[1].read_bytes()
    assert json.loads(votes[0].read_text())["dependencies"]


def test_learn_requires_one_backend(movie_files):
    schema_path, model_path = movie_files
    assert run(["learn", "--schema", schema_path]) == 2


@pytest.mark.parametrize("runs", [0, -4])
def test_learn_rejects_runs_below_one(movie_files, runs):
    schema_path, model_path = movie_files
    argv = ["learn", "--schema", schema_path, "--model", model_path, "--runs", runs]
    assert run(argv) == 2


@pytest.mark.parametrize(
    ("threshold", "runs"),
    [(1.5, 3), (0, 3), (-0.2, 3), (1.5, 1), (0, 1)],
    ids=["1.5", "0", "-0.2", "1.5-runs1", "0-runs1"],
)
def test_learn_rejects_vote_threshold_outside_unit_interval(
    movie_files, threshold, runs
):
    schema_path, model_path = movie_files
    argv = [
        "learn", "--schema", schema_path, "--model", model_path,
        "--runs", runs, "--vote-threshold", threshold,
    ]
    assert run(argv) == 2


@pytest.mark.parametrize(
    "sizes",
    [
        "ACTOR=5,MOVIE=5,DIRECTOR=4",  # unknown entity class
        "ACTOR=5,MOVIE=5,ACTOR=6",  # repeated entity class
    ],
)
def test_gen_skeleton_rejects_bad_sizes(tmp_path, movie_files, sizes):
    schema_path, _ = movie_files
    argv = ["gen", "skeleton", "--schema", schema_path, "--sizes", sizes, "-o", tmp_path / "s"]
    assert run(argv) == 2
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("density", ["inf", "nan", "0", "-3"])
def test_gen_skeleton_rejects_bad_density(tmp_path, capsys, movie_files, density):
    schema_path, _ = movie_files
    argv = [
        "gen", "skeleton", "--schema", schema_path, "--sizes", "ACTOR=5,MOVIE=5",
        "--density", density, "-o", tmp_path / "s",
    ]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: link_density must be finite and > 0\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    ("sizes", "entry"),
    [("ACTOR", "ACTOR"), ("ACTOR=x,MOVIE=5", "ACTOR=x"), ("ACTOR=5,MOVIE=", "MOVIE=")],
)
def test_gen_skeleton_names_a_malformed_sizes_entry(tmp_path, capsys, movie_files, sizes, entry):
    schema_path, _ = movie_files
    argv = ["gen", "skeleton", "--schema", schema_path, "--sizes", sizes, "-o", tmp_path / "s"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --sizes entry {entry!r} is not NAME=COUNT (an integer)\n"


@pytest.mark.parametrize(
    ("extra", "message"),
    [
        (["--max-parents", -1], "max_parents must be >= 0"),
        (["--restarts", 0], "restarts must be >= 1"),
        (["--restarts", -3], "restarts must be >= 1"),
    ],
    ids=["max-parents-1", "restarts0", "restarts-3"],
)
def test_gen_model_rejects_bad_bounds(tmp_path, capsys, movie_files, extra, message):
    schema_path, _ = movie_files
    out = tmp_path / "generated.json"
    argv = ["gen", "model", "--schema", schema_path, "--deps", 1, *extra, "-o", out]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("rate", ["-1", "nan", "inf", "1e9", "1e300"])
def test_gen_schema_rejects_bad_attr_rate(tmp_path, capsys, rate):
    out = tmp_path / "schema.json"
    argv = ["gen", "schema", "--entities", 2, "--attr-rate", rate, "-o", out]
    assert run(argv) == 2
    message = "error: attr_rate must be finite and in [0, 100]\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("command", ["learn", "dsep"])
def test_negative_oracle_hops_are_named(capsys, movie_files, command):
    schema_path, model_path = movie_files
    if command == "learn":
        argv = [
            "learn", "--schema", schema_path, "--model", model_path,
            "--oracle-hops", -1,
        ]
    else:
        argv = [
            "dsep", "--model", model_path, "--perspective", "ACTOR",
            "--x", "[ACTOR].Popularity", "--y", "[ACTOR, STARS-IN, MOVIE].Success",
            "--hops", -1,
        ]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: hops must be >= 0\n"


def test_dsep_command(capsys, movie_files):
    schema_path, model_path = movie_files
    code = run(
        [
            "dsep",
            "--model", model_path,
            "--perspective", "ACTOR",
            "--x", "[ACTOR].Popularity",
            "--y", "[ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR].Popularity",
            "--given", "",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "independent"
    code = run(
        [
            "dsep",
            "--model", model_path,
            "--perspective", "ACTOR",
            "--x", "[ACTOR].Popularity",
            "--y", "[ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR].Popularity",
            "--given", "[ACTOR, STARS-IN, MOVIE].Success",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "dependent"


@pytest.mark.parametrize(
    "y,hops,message",
    [
        (
            "[ACTOR, ACTS-IN].Popularity",
            8,
            "[ACTOR, ACTS-IN].Popularity: unknown item class 'ACTS-IN'",
        ),
        ("[ACTOR].Nope", 8, "[ACTOR].Nope: 'ACTOR' has no attribute 'Nope'"),
        (
            "[ACTOR, STARS-IN, ACTOR].Popularity",
            8,
            "[ACTOR, STARS-IN, ACTOR].Popularity: path is not valid under the schema",
        ),
        (
            "[ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR].Popularity",
            2,
            "variable outside oracle node set at 2 hops: "
            "[ACTOR, STARS-IN, MOVIE, STARS-IN, ACTOR].Popularity",
        ),
    ],
    ids=["unknown-class", "unknown-attribute", "invalid-path", "beyond-hops"],
)
def test_dsep_names_why_a_variable_is_unknown(capsys, movie_files, y, hops, message):
    _, model_path = movie_files
    argv = [
        "dsep",
        "--model", model_path,
        "--perspective", "ACTOR",
        "--x", "[ACTOR].Popularity",
        "--y", y,
        "--hops", hops,
    ]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "perspective,x,y,given,message",
    [
        (
            "ACTOR",
            "[ACTOR].Popularity",
            "[ACTOR].Popularity",
            "",
            "query variables must differ",
        ),
        (
            "ACTOR",
            "[ACTOR].Popularity",
            "[ACTOR, STARS-IN, MOVIE].Success",
            "[ACTOR, STARS-IN, MOVIE].Success",
            "conditioning set must exclude the query variables",
        ),
        (
            "ACTOR",
            "[MOVIE].Success",
            "[ACTOR].Popularity",
            "",
            "[MOVIE].Success is not a ACTOR-perspective variable",
        ),
        (
            "MOVIE",
            "[MOVIE].Success",
            "[ACTOR].Popularity",
            "",
            "[ACTOR].Popularity is not a MOVIE-perspective variable",
        ),
    ],
    ids=["same-variable", "y-in-given", "x-perspective", "y-perspective"],
)
def test_dsep_rejects_invalid_queries(
    capsys, movie_files, perspective, x, y, given, message
):
    _, model_path = movie_files
    argv = [
        "dsep",
        "--model", model_path,
        "--perspective", perspective,
        "--x", x,
        "--y", y,
        "--given", given,
    ]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_agg_export(tmp_path, movie_files):
    schema_path, model_path = movie_files
    out = tmp_path / "actor.dot"
    code = run(
        [
            "agg", "export",
            "--model", model_path,
            "--perspective", "ACTOR",
            "--hops", 4,
            "-o", out,
        ]
    )
    assert code == 0
    dot = out.read_text()
    assert 'digraph "ACTOR"' in dot
    assert '"[ACTOR].Popularity" -> "[ACTOR, STARS-IN, MOVIE].Success"' in dot


@pytest.mark.parametrize("truth", ["movie", "chain"])
def test_learn_writes_dot(tmp_path, movie_files, truth):
    schema_path, model_path = movie_files
    if truth == "chain":  # X -> Y on one entity class stays undirected
        schema = single_entity_schema("X", "Y")
        schema_path.write_text(schema_to_json(schema))
        model_path.write_text(model_to_json(propositional_model(schema, [("X", "Y")])))
    argv = ["learn", "--schema", schema_path, "--model", model_path]
    dots = [tmp_path / "a.dot", tmp_path / "b.dot"]
    for out in dots:
        assert run([*argv, "--format", "dot", "-o", out]) == 0
    assert dots[0].read_bytes() == dots[1].read_bytes()
    assert run([*argv, "-o", tmp_path / "learned.json"]) == 0
    learned = json.loads((tmp_path / "learned.json").read_text())["dependencies"]
    status = "directed" if truth == "movie" else "undirected"
    assert [d["status"] for d in learned] == [status]
    edges = []
    for d in learned:
        dep = parse_dependency(d["dependency"])
        edge = f'  "{dep.cause.attribute_class}" -> "{dep.effect.attribute_class}"'
        edges.append(edge + (";" if d["status"] == "directed" else " [dir=none];"))
    lines = dots[0].read_text().splitlines()
    assert lines[:2] == ["digraph learned {", "  node [shape=box, fontsize=10];"]
    assert lines[2:] == [*edges, "}"]


def test_agg_export_names_negative_hops(tmp_path, capsys, movie_files):
    schema_path, model_path = movie_files
    out = tmp_path / "actor.dot"
    argv = [
        "agg", "export", "--model", model_path, "--perspective", "ACTOR",
        "--hops", -1, "-o", out,
    ]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: hops must be >= 0\n"
    assert not out.exists()


def test_gg_export(tmp_path, movie_files, movie_schema):
    schema_path, model_path = movie_files
    skel_dir = tmp_path / "skel"
    run(
        [
            "gen", "skeleton",
            "--schema", schema_path,
            "--sizes", "ACTOR=4,MOVIE=5",
            "--seed", 1,
            "-o", skel_dir,
        ]
    )
    out = tmp_path / "gg.json"
    code = run(
        [
            "gg", "export",
            "--model", model_path,
            "--data", skel_dir / "manifest.json",
            "--format", "json",
            "-o", out,
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["nodes"]
    assert all(len(edge) == 2 for edge in doc["edges"])
    # the default format is DOT: one line per ground edge, the same each run
    dots = [tmp_path / "a.dot", tmp_path / "b.dot"]
    for dot in dots:
        argv = ["gg", "export", "--model", model_path, "--data", skel_dir / "manifest.json"]
        assert run([*argv, "-o", dot]) == 0
    assert dots[0].read_bytes() == dots[1].read_bytes()
    lines = dots[0].read_text().splitlines()
    assert lines[:2] == ["digraph ground {", "  node [shape=ellipse, fontsize=10];"]
    assert lines[2:] == [f'  "{a}" -> "{b}";' for a, b in doc["edges"]] + ["}"]


def test_bench_command_deterministic(tmp_path):
    args = [
        "bench",
        "--entities", "2",
        "--deps", "1",
        "--trials", 3,
        "--seed", 5,
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["-o", out1]) == 0
    assert run(args + ["-o", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("entities,deps,trials,skel_p")
    # one trial has no spread to estimate: every standard error reads zero
    single = tmp_path / "single.csv"
    assert run(["bench", "--entities", "2", "--deps", "1", "--trials", 1, "-o", single]) == 0
    (row,) = csv.DictReader(single.read_text().splitlines())
    se = {k: v for k, v in row.items() if k.startswith("se_")}
    assert se == dict.fromkeys(["se_skel_p", "se_skel_r", "se_orient_p", "se_orient_r"], "0.000000")


def test_profile_command(tmp_path):
    out = tmp_path / "profile.csv"
    code = run(
        [
            "profile",
            "--mode", "rbo_first",
            "--entities", "2",
            "--deps", "1",
            "--trials", 3,
            "--seed", 5,
            "-o", out,
        ]
    )
    assert code == 0
    assert out.read_text().startswith("entities,deps,trials,directed_total")


def test_invalid_schema_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"entities": [{"name": "A"}], "relationships": [
        {"name": "R", "participants": ["A", "A"], "card": {"A": "ONE"}}
    ]}))
    assert run(["gen", "model", "--schema", bad, "--deps", 1]) == 2


@pytest.mark.parametrize(
    ("doc", "detail"),
    [({"dependencies": []}, "'schema'"), ([1], "list indices")],
    ids=["no-schema", "not-an-object"],
)
def test_malformed_model_exits_2(tmp_path, capsys, movie_files, doc, detail):
    schema_path, _ = movie_files
    bad = tmp_path / "bad-model.json"
    bad.write_text(json.dumps(doc))
    assert run(["learn", "--schema", schema_path, "--model", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model document: ") and detail in err


@pytest.mark.parametrize(
    "doc", [{}, {"files": ["e1.csv"]}, {"files": {"E1": 1}}],
    ids=["no-files", "files-list", "non-string-name"],
)
def test_malformed_manifest_exits_2(seed7_files, capsys, doc):
    schema_path, skel_dir = seed7_files
    (skel_dir / "manifest.json").write_text(json.dumps(doc))
    assert _learn_data(schema_path, skel_dir) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed manifest ")
    assert "'files' must map class names to file names" in err


@pytest.mark.parametrize("content", [None, "not json"], ids=["missing", "not-json"])
@pytest.mark.parametrize("flag", ["--schema", "--model", "--data"])
def test_unreadable_input_file_is_named(tmp_path, capsys, seed7_files, flag, content):
    schema_path, _ = seed7_files
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    files = {"--schema": schema_path, "--model": tmp_path / "model.json", flag: bad}
    backend = "--data" if flag == "--data" else "--model"
    assert run(["learn", "--schema", files["--schema"], backend, files[backend]]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert ("cannot read" if content is None else "is not valid JSON") in err


def test_learn_rejects_a_model_over_another_schema(tmp_path, capsys, movie_files):
    _, model_path = movie_files
    other = tmp_path / "other.json"
    assert run(["gen", "schema", "--entities", 3, "--seed", 7, "-o", other]) == 0
    assert run(["learn", "--schema", other, "--model", model_path]) == 2
    assert capsys.readouterr().err == (
        f"error: the schema of --model {model_path} differs from --schema {other}\n"
    )


@pytest.mark.parametrize(
    "command",
    [
        ["gen", "schema", "--entities", "2"],
        ["learn", "--schema", "{schema}", "--model", "{model}"],
        ["agg", "export", "--model", "{model}", "--perspective", "ACTOR"],
        ["gen", "skeleton", "--schema", "{schema}", "--sizes", "ACTOR=3,MOVIE=3"],
    ],
    ids=["gen-schema", "learn", "agg-export", "gen-skeleton"],
)
def test_unwritable_output_is_named(tmp_path, capsys, movie_files, command):
    schema_path, model_path = movie_files
    argv = [part.format(schema=schema_path, model=model_path) for part in command]
    # a regular file in a directory's place; a missing directory only fails
    # a file, since gen skeleton makes its output directory's parents
    unwritable = [(schema_path / "out", "Not a directory")]
    if command[1] == "skeleton":
        kind = "directory"
    else:
        kind = "file"
        unwritable.append((tmp_path / "missing" / "out", "No such file or directory"))
    for output, reason in unwritable:
        assert run([*argv, "-o", output]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write --output {kind} {output}: {reason}\n"


def test_infeasible_model_exits_3(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(
        json.dumps({"entities": [{"name": "A", "attributes": ["X"]}]})
    )
    assert run(["gen", "model", "--schema", schema, "--deps", 5]) == 3


@pytest.fixture()
def seed7_files(tmp_path):
    """A 2-entity schema, a model and a valued 20 + 20 skeleton, all seed 7."""
    schema_path = tmp_path / "schema.json"
    model_path = tmp_path / "model.json"
    skel_dir = tmp_path / "skel"
    assert run(["gen", "schema", "--entities", 2, "--seed", 7, "-o", schema_path]) == 0
    gen_model = ["gen", "model", "--schema", schema_path, "--deps", 3, "--seed", 7]
    assert run(gen_model + ["-o", model_path]) == 0
    gen_skeleton = [
        "gen", "skeleton", "--schema", schema_path, "--sizes", "E1=20,E2=20",
        "--model", model_path, "--seed", 7, "-o", skel_dir,
    ]
    assert run(gen_skeleton) == 0
    return schema_path, skel_dir


def _learn_data(schema_path, skel_dir, *extra):
    argv = ["learn", "--schema", schema_path, "--data", skel_dir / "manifest.json"]
    return run(argv + list(extra))


def _edit_line(path, number, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[number] = edit(lines[number])
    path.write_text("".join(lines))


@pytest.mark.parametrize(
    ("fname", "edit"),
    [
        ("e1.csv", lambda line: ",".join(line.split(",")[:2]) + "\n"),
        ("e2.csv", lambda line: "\n" + line),
        ("r1.csv", lambda line: ",".join(line.split(",")[:2]) + "\n"),
        ("e1.csv", lambda line: line.split(",")[0] + ",nan," + line.split(",", 2)[2]),
        ("e2.csv", lambda line: line.split(",")[0] + ",-inf\n"),
    ],
    ids=["short-entity-row", "blank-line", "two-field-link-row", "nan", "inf"],
)
def test_learn_rejects_malformed_skeleton_rows(seed7_files, capsys, fname, edit):
    schema_path, skel_dir = seed7_files
    _edit_line(skel_dir / fname, 2, edit)
    assert _learn_data(schema_path, skel_dir) == 2
    err = capsys.readouterr().err
    assert fname in err and "row 3" in err


def test_learn_rejects_link_file_without_values(seed7_files, capsys):
    schema_path, skel_dir = seed7_files
    links = skel_dir / "r1.csv"
    rows = links.read_text().splitlines()
    links.write_text("".join(",".join(row.split(",")[:3]) + "\n" for row in rows))
    assert _learn_data(schema_path, skel_dir) == 2
    assert "no value for ('R1', 'r10', 'X5')" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ["--alpha", 1.5],
        ["--alpha", 0],
        ["--alpha", 1],
        ["--effect-threshold", -1],
    ],
    ids=["alpha-1.5", "alpha-0", "alpha-1", "effect-threshold--1"],
)
def test_learn_rejects_bad_regression_parameters(seed7_files, extra):
    assert _learn_data(*seed7_files, *extra) == 2


@pytest.mark.parametrize("command", ["bench", "profile"])
@pytest.mark.parametrize(
    "extra",
    [["--trials", 0], ["--trials", -3], ["--workers", 0], ["--workers", -4]],
    ids=["trials0", "trials-3", "workers0", "workers-4"],
)
def test_grid_rejects_counts_below_one(tmp_path, command, extra):
    out = tmp_path / "grid.csv"
    argv = [command, "--entities", "2", "--deps", "1", "--trials", 1, *extra]
    if command == "profile":
        argv += ["--mode", "rbo_first"]
    assert run(argv + ["-o", out]) == 2
    assert not out.exists()


def _grid(command, *extra):
    argv = [command, "--entities", "2", "--deps", "1", "--trials", 1, *extra]
    return argv + ["--mode", "rbo_first"] if command == "profile" else argv


@pytest.mark.parametrize("command", ["bench", "profile"])
@pytest.mark.parametrize(
    ("extra", "message"),
    [
        (["--entities", "1,x"], "--entities entry 'x' is not an integer"),
        (["--entities", ""], "--entities entry '' is not an integer"),
        (["--deps", "1,2.5"], "--deps entry '2.5' is not an integer"),
        (["--entities", "2,0"], "entities must be >= 1"),
        (["--deps", "1,-1"], "deps must be >= 0"),
        (["--entities", "2,3,2"], "entities lists a value twice"),
        (["--deps", "1,1"], "deps lists a value twice"),
        (["--oracle-hops", -1], "hops must be >= 0"),
    ],
    ids=[
        "entities-x", "entities-empty", "deps-float", "entities0", "deps-1",
        "entities-repeat", "deps-repeat", "hops-1",
    ],
)
def test_grid_names_bad_entries(tmp_path, capsys, command, extra, message):
    out = tmp_path / "grid.csv"
    assert run(_grid(command, *extra, "-o", out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["gen-schema", "gen-model", "gen-skeleton", "learn-runs1", "learn-runs3", "bench", "profile"],
)
def test_negative_seed_is_named(tmp_path, capsys, movie_files, command):
    schema_path, model_path = movie_files
    learn = ["learn", "--schema", schema_path, "--model", model_path]
    argv = {
        "gen-schema": ["gen", "schema", "--entities", 2],
        "gen-model": ["gen", "model", "--schema", schema_path, "--deps", 1],
        "gen-skeleton": [
            "gen", "skeleton", "--schema", schema_path, "--sizes", "ACTOR=5,MOVIE=5",
            "--model", model_path,
        ],
        "learn-runs1": learn,
        "learn-runs3": [*learn, "--runs", 3],
        "bench": _grid("bench"),
        "profile": _grid("profile"),
    }[command]
    out = tmp_path / "out"
    assert run([*argv, "--seed", -1, "-o", out]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not out.exists()


ORACLE_BELOW_LEARNER = [
    (["--oracle-hops", 6], "--oracle-hops 6 is below twice --hop-threshold 4: "
     "the learner asks about variables up to 8 hops"),
    (["--hop-threshold", 5], "--oracle-hops 8 is below twice --hop-threshold 5: "
     "the learner asks about variables up to 10 hops"),
]


@pytest.mark.parametrize(("extra", "message"), ORACLE_BELOW_LEARNER, ids=["hops6", "threshold5"])
def test_learn_refuses_oracle_hops_below_the_learners(capsys, movie_files, extra, message):
    schema_path, model_path = movie_files
    argv = ["learn", "--schema", schema_path, "--model", model_path, *extra]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["bench", "profile"])
@pytest.mark.parametrize(("extra", "message"), ORACLE_BELOW_LEARNER, ids=["hops6", "threshold5"])
def test_grid_refuses_oracle_hops_below_the_learners(tmp_path, capsys, command, extra, message):
    out = tmp_path / "grid.csv"
    # 3-entity trials reach variables beyond 6 hops
    assert run(_grid(command, "--entities", "3", *extra, "-o", out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("backend", ["model", "data"])
@pytest.mark.parametrize(
    ("extra", "message"),
    [
        (["--alpha", 5], "alpha must lie in (0, 1)"),
        (["--effect-threshold", -3], "effect_threshold must be >= 0"),
        (["--oracle-hops", -1], "hops must be >= 0"),
    ],
    ids=["alpha5", "effect-threshold-3", "oracle-hops-1"],
)
def test_learn_checks_every_flag_whatever_the_backend(
    tmp_path, capsys, seed7_files, backend, extra, message
):
    schema_path, skel_dir = seed7_files
    source = tmp_path / "model.json" if backend == "model" else skel_dir / "manifest.json"
    out = tmp_path / "learned.json"
    argv = ["learn", "--schema", schema_path, f"--{backend}", source, *extra, "-o", out]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_data_learn_ignores_oracle_hops(seed7_files):
    # --oracle-hops configures only the oracle backend
    assert _learn_data(*seed7_files, "--oracle-hops", 0) == 0


def test_import_leaves_networkx_unloaded():
    code = "import sys, relcd, relcd.cli; sys.exit('networkx' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=_python_env())
    assert done.returncode == 0


def test_relcd_never_imports_networkx():
    # at module level or inside a function: networkx is a test dependency
    for module in sorted(Path(relcd.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(n.split(".")[0] != "networkx" for n in names), module.name


def test_movie_demo_script():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "movie_demo.py")],
        env=_python_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    learned = "['[MOVIE, STARS-IN, ACTOR].Popularity -> [MOVIE].Success']"
    assert done.stdout.splitlines()[-2:] == [
        f"oracle learn: {learned}",
        f"data learn (100-run vote): {learned}",
    ]


@pytest.mark.acceptance
@pytest.mark.parametrize(
    ("workload", "module", "old", "new", "message"),
    [
        # the learns differ: CI-test counts at least
        ("oracle-grid", "rcd.py", "    depth: int = 3\n", "    depth: int = 2\n",
         "item 0: the trees learn different patterns"),
        # the sampled values, so data-vote's inputs, differ
        ("data-vote", "skeleton.py", "COEFF_RANGE = (0.3, 0.7)\n",
         "COEFF_RANGE = (0.3, 0.71)\n", "item 0: the trees draw different inputs"),
    ],
    ids=["oracle-grid", "data-vote"],
)
def test_ab_learns_script(tmp_path, workload, module, old, new, message):
    src = Path(relcd.__file__).resolve().parent.parent

    def ab_learns(base, new_src):
        argv = [
            sys.executable, str(ROOT / "scripts" / "ab_learns.py"), str(base),
            str(new_src), "--passes", "1", "--workload", workload,
        ]
        return subprocess.run(argv, capture_output=True, text=True)

    done = ab_learns(src, src)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("pass 0: base ")
    items = {"oracle-grid": 200, "data-vote": 6}[workload]
    assert f"identical pattern_to_dict outputs on {items} {workload} items x 1 passes" in lines
    assert f"identical inputs on {items} {workload} items" in lines
    changed = tmp_path / "src"
    shutil.copytree(src / "relcd", changed / "relcd", ignore=shutil.ignore_patterns("__pycache__"))
    source = changed / "relcd" / module
    text = source.read_text()
    assert text.count(old) == 1
    source.write_text(text.replace(old, new))
    done = ab_learns(src, changed)
    assert done.returncode == 1
    assert done.stderr == message + "\n"
    assert done.stdout == ""  # before any pass ends
