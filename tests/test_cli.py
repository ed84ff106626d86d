import json

import pytest

from relcd.cli import main
from relcd.model import model_from_json, model_to_json
from relcd.schema import schema_from_json, schema_to_json
from relcd.skeleton import load_skeleton


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


def test_infeasible_model_exits_3(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(
        json.dumps({"entities": [{"name": "A", "attributes": ["X"]}]})
    )
    assert run(["gen", "model", "--schema", schema, "--deps", 5]) == 3
