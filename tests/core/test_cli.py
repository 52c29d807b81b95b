"""Tests for the CLI front-end."""

import json

import pytest

from repro.cli import build_parser, load_manifest, main


def write_manifest(tmp_path, **overrides):
    manifest = {
        "name": "cli-test", "user": "tester",
        "framework": "tensorflow", "model": "resnet50",
        "learners": 1, "gpus_per_learner": 1, "gpu_type": "K80",
        "iterations": 200,
    }
    manifest.update(overrides)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(manifest))
    return str(path)


def test_load_manifest_roundtrip(tmp_path):
    path = write_manifest(tmp_path, learners=2)
    manifest = load_manifest(path)
    assert manifest.name == "cli-test"
    assert manifest.learners == 2


def test_load_manifest_rejects_unknown_fields(tmp_path):
    from repro.errors import ReproError
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "user": "u",
                                "frobnicate": True}))
    with pytest.raises(ReproError):
        load_manifest(path)


def test_validate_command_ok(tmp_path, capsys):
    path = write_manifest(tmp_path)
    assert main(["validate", "--manifest", path]) == 0
    out = capsys.readouterr().out
    assert "manifest OK" in out


def test_validate_command_flags_without_manifest(capsys):
    assert main(["validate", "--name", "flagjob", "--gpus", "2"]) == 0
    assert "2 K80 GPU" in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    "[1, 2]",
    json.dumps({"name": "x", "user": "u", "framework": "tensorflow"}),
    json.dumps({"name": "x", "user": "u", "framework": "tensorflow",
                "model": "resnet50", "learners": "two"}),
    None,  # the path is a directory
], ids=["array", "missing-model", "learners-string", "directory"])
@pytest.mark.parametrize("command", ["validate", "demo"])
def test_malformed_manifest_is_an_error_not_a_traceback(tmp_path, capsys,
                                                        command, content):
    path = tmp_path / "job.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    assert main([command, "--manifest", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_command_bad_manifest(tmp_path, capsys):
    path = write_manifest(tmp_path, iterations=0)
    assert main(["validate", "--manifest", path]) == 2
    assert "error" in capsys.readouterr().err


def test_show_tshirt_sizes(capsys):
    assert main(["show-tshirt-sizes"]) == 0
    out = capsys.readouterr().out
    assert "1xV100" in out and "26" in out


def test_demo_runs_job_to_completion(tmp_path, capsys):
    path = write_manifest(tmp_path, iterations=150)
    code = main(["demo", "--manifest", path, "--nodes", "2", "--logs"])
    out = capsys.readouterr().out
    assert code == 0
    assert "final status: COMPLETED" in out
    assert "PROCESSING" in out


def test_missing_manifest_file_is_reported(capsys):
    assert main(["validate", "--manifest", "/nope/missing.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
