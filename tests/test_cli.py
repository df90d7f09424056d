import csv
import json

import pytest

from oscm.cli import main
from oscm.model import random_two_regular, save_instance


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(random_two_regular(7, seed=3), str(path))
    return str(path)


def test_run_writes_csv_and_trace(instance_path, tmp_path, capsys):
    report = tmp_path / "out.csv"
    code = main(
        ["run", "--algo", "greedy", "--instance", instance_path,
         "--report", str(report), "--trace"]
    )
    assert code == 0
    rows = list(csv.DictReader(open(report)))
    assert len(rows) == 1 and rows[0]["alg"] == "greedy"
    trace = json.load(open(str(report) + ".trace.json"))
    assert len(trace["trace"]["steps"]) == 7
    assert "ratio=" in capsys.readouterr().out


def test_run_json_report(instance_path, tmp_path):
    report = tmp_path / "out.json"
    code = main(
        ["run", "--algo", "barycenter", "--instance", instance_path,
         "--report", str(report), "--format", "json", "--trace"]
    )
    assert code == 0
    payload = json.load(open(report))
    assert payload["alg"] == "barycenter"
    assert "trace" in payload


def test_opt_prints_value_and_witness(instance_path, capsys):
    assert main(["opt", "--instance", instance_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("opt=")
    assert "witness slots=" in out


def test_adversary_thm2(capsys):
    assert main(["adversary", "--name", "thm2", "--rounds", "1", "--algo", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "thm2(n=11)" in out


def test_adversary_fig8(capsys):
    assert main(["adversary", "--name", "fig8", "--n", "8", "--algo", "barycenter"]) == 0
    out = capsys.readouterr().out
    assert "opt=4" in out


def test_audit_clean_greedy(instance_path, capsys):
    assert main(["audit", "--algo", "greedy", "--instance", instance_path]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_bench_csv(tmp_path, capsys):
    report = tmp_path / "bench.csv"
    code = main(
        ["bench", "--algo", "greedy", "--n", "4-6", "--trials", "8",
         "--seed", "1", "--report", str(report)]
    )
    assert code == 0
    assert len(list(csv.DictReader(open(report)))) == 8
    assert "max_ratio=" in capsys.readouterr().out


def test_render_to_file(instance_path, tmp_path):
    out = tmp_path / "x.svg"
    code = main(
        ["render", "--instance", instance_path, "--algo", "greedy", "--svg", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("<svg ")


def test_render_empty_board_stdout(capsys):
    assert main(["render", "--n", "3"]) == 0
    assert "<svg " in capsys.readouterr().out


def test_render_requires_source(capsys):
    assert main(["render"]) == 2


def test_missing_instance_file_is_diagnosed(capsys):
    assert main(["opt", "--instance", "/nonexistent.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_adversary_plays_the_game_once(monkeypatch, capsys):
    import oscm.algorithms
    import oscm.cli
    import oscm.harness

    games = []

    def counting_play(source, algorithm):
        games.append(algorithm.name)
        return oscm.algorithms.play(source, algorithm)

    monkeypatch.setattr(oscm.cli, "play", counting_play)
    monkeypatch.setattr(oscm.harness, "play", counting_play)
    assert main(["adversary", "--name", "thm2", "--rounds", "2", "--algo", "first_fit"]) == 0
    assert games == ["first_fit"]
    assert "thm2(n=" in capsys.readouterr().out


def test_user_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3.5, "requests": []}')
    assert main(["run", "--algo", "greedy", "--instance", str(bad)]) == 2
    assert capsys.readouterr().err == "error: n must be an integer, got 3.5\n"
    assert main(["adversary", "--name", "thm1", "--n", "3", "--algo", "greedy"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "error",
    [
        "oscm.crossings.UnclassifiablePairError",
        "oscm.harness.ReplayMismatchError",
        "oscm.adversaries.ProtocolError",
        "builtins.IndexError",
    ],
)
def test_internal_errors_exit_3(error, monkeypatch, capsys):
    import importlib

    import oscm.cli

    module, name = error.rsplit(".", 1)
    exc_type = getattr(importlib.import_module(module), name)

    def broken_score_trace(*args, **kwargs):
        raise exc_type("counter bug")

    monkeypatch.setattr(oscm.cli, "score_trace", broken_score_trace)
    assert main(["adversary", "--name", "fig8", "--n", "4", "--algo", "greedy"]) == 3
    first, *rest = capsys.readouterr().err.splitlines()
    assert first == f"internal error: {name}: counter bug"
    assert rest[0] == "Traceback (most recent call last):"
