import contextlib
import csv
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from oscm.cli import main
from oscm.model import (
    Instance,
    instance_from_dict,
    random_two_regular,
    save_instance,
    validate_instance,
)
from oscm.offline import brute_force_opt


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
    rows = list(csv.DictReader(report.read_text().splitlines()))
    assert len(rows) == 1 and rows[0]["alg"] == "greedy"
    trace = json.loads((tmp_path / "out.csv.trace.json").read_text())
    assert len(trace["trace"]["steps"]) == 7
    assert "ratio=" in capsys.readouterr().out


def test_run_json_report(instance_path, tmp_path):
    report = tmp_path / "out.json"
    code = main(
        ["run", "--algo", "barycenter", "--instance", instance_path,
         "--report", str(report), "--format", "json", "--trace"]
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["alg"] == "barycenter"
    assert "trace" in payload


def test_opt_prints_value_and_witness(instance_path, capsys):
    assert main(["opt", "--instance", instance_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("opt=")
    assert "witness slots=" in out


@pytest.mark.parametrize(
    "inst",
    [random_two_regular(10, seed) for seed in range(5)]
    + [Instance(n=12, requests=random_two_regular(12, seed=1).requests[:7])],
    ids=[f"two_regular_10_seed{seed}" for seed in range(5)] + ["incomplete_12"],
)
def test_run_scores_instances_above_the_oracle_bound(inst, tmp_path, capsys):
    # Above n=9 `run` scores against the sorted-order upper bound, which
    # equals the optimum the oracle finds when allowed to run this large.
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert main(["run", "--algo", "greedy", "--instance", str(path)]) == 0
    head, *lines = capsys.readouterr().out.splitlines()
    opt = brute_force_opt(inst, max_n=inst.n).opt_crossings
    assert f" opt={opt} " in head
    assert lines[-1] == "  opt basis: sorted-order upper bound"


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
    assert len(list(csv.DictReader(report.read_text().splitlines()))) == 8
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
    assert capsys.readouterr() == ("", "error: render needs --instance or --n\n")


@pytest.mark.parametrize("n", ["0", "-2"])
def test_render_rejects_a_board_size_below_one(n, capsys):
    assert main(["render", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: render needs --n >= 1, got {n}\n"


def test_findings_print_one_line_each(tmp_path, capsys):
    from oscm.algorithms import FIRST_FIT, play
    from oscm.harness import audit_trace
    from oscm.model import Instance, Request

    path = tmp_path / "inst.json"
    inst = Instance(n=5, requests=(Request(3, 4), Request(1, 2), Request(2, 3), Request(1, 5)))
    save_instance(inst, str(path))
    findings = audit_trace(play(inst, FIRST_FIT))
    assert len(findings) > 1
    assert main(["audit", "--algo", "first_fit", "--instance", str(path)]) == 1
    head, *lines = capsys.readouterr().out.split("\n")
    assert head.endswith(f"{len(findings)} finding(s), final crossings=12")
    assert lines == [f"  {finding}" for finding in findings] + [""]
    assert main(["run", "--algo", "first_fit", "--instance", str(path)]) == 0
    head, *lines = capsys.readouterr().out.split("\n")
    assert head.endswith(f"violations={len(findings)}")
    expected = [f"  finding: {finding}" for finding in findings]
    assert lines == expected + ["  opt basis: exact", ""]


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
    bad.write_text('{"n": 3}')
    assert main(["run", "--algo", "greedy", "--instance", str(bad)]) == 2
    assert capsys.readouterr().err == "error: instance is missing 'requests'\n"
    bad.write_text('{"requests": [[1, 2]]}')
    assert main(["run", "--algo", "greedy", "--instance", str(bad)]) == 2
    assert capsys.readouterr().err == "error: instance is missing 'n'\n"
    assert main(["adversary", "--name", "thm1", "--n", "3", "--algo", "greedy"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    save_instance(random_two_regular(10, seed=0), str(bad))
    assert main(["opt", "--instance", str(bad)]) == 2
    assert capsys.readouterr() == ("", "error: n=10 exceeds the exhaustive-search bound 9\n")
    for sizes, error in [
        ("9-4", "--n range '9-4' is empty: its first size exceeds its last"),
        ("-3", "--n takes a size, a list '4,6,8' or a range '4-9', got '-3'"),
        ("4,,6", "--n takes a size, a list '4,6,8' or a range '4-9', got '4,,6'"),
        ("1-4", "--n sizes must be at least 2, got 1 in '1-4'"),
        ("5,0", "--n sizes must be at least 2, got 0 in '5,0'"),
    ]:
        assert main(["bench", "--algo", "greedy", "--n", sizes, "--trials", "2"]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
    # A flag the command would ignore is refused, not dropped.
    save_instance(random_two_regular(4, seed=0), str(bad))
    for argv, error in [
        (["render", "--n", "4", "--algo", "greedy"], "render --algo needs --instance to play"),
        (["render", "--instance", str(bad), "--n", "40"], "render takes --instance or --n, not both"),
        (["adversary", "--name", "thm2", "--n", "99", "--algo", "greedy"],
         "--n does not apply to thm2, whose board size follows --rounds"),
        (["adversary", "--name", "thm1", "--rounds", "7", "--algo", "greedy"],
         "--rounds applies only to thm2, not thm1"),
        (["adversary", "--name", "thm2", "--rounds", "0", "--algo", "greedy"],
         "need rounds >= 1, got 0"),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


# Small JSON documents: integers stay in -3..12, so no board above n=12 is
# built, and instance-shaped objects are drawn often enough to be valid.
json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-3, 12)
    | st.sampled_from(["general", "two_regular", "12"])
)
json_keys = st.sampled_from(["n", "requests", "regularity", "k"]) | st.text(max_size=2)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=12,
)


@st.composite
def instance_documents(draw):
    """An object with an `n` and up to n + 1 requests, mostly vertex pairs
    in 1..n, now and then with one other JSON value among them."""
    n = draw(st.integers(-3, 12))
    pairs = st.lists(st.integers(1, max(n, 2)), min_size=2, max_size=2, unique=True)
    requests = draw(st.lists(pairs, max_size=max(n, 0) + 1))
    if draw(st.integers(0, 3)) == 3:
        requests.insert(draw(st.integers(0, len(requests))), draw(json_documents))
    document = {"n": n, "requests": requests}
    if draw(st.booleans()):
        document["regularity"] = draw(st.sampled_from(["general", "two_regular", "path"]))
    return document


@given(st.one_of(instance_documents(), json_documents))
@settings(max_examples=150, deadline=None)
def test_fuzzed_instances_load_or_are_user_errors(tmp_path_factory, document):
    try:
        inst = instance_from_dict(document)
    except ValueError:
        pass
    else:
        assert validate_instance(inst) == []
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(json.dumps(document))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", "--algo", "greedy", "--instance", str(path)])
    assert code in (0, 2)


# sha256 of the stdout of `oscm adversary` for every spec the benchmark's
# adversary-cli workload runs, and of one `oscm audit` with findings: a
# change to a report, a finding's wording or the findings' order fails here.
ADVERSARY_STDOUT_SHA256 = {
    "thm2 --rounds 4 --algo barycenter": "683c060baa0829e4eb84fdd5aea87a0ce0cff90bca2f47ace47fae5359ffc0ab",
    "thm2 --rounds 4 --algo first_fit": "4bf06a94726d7093887660cb3eda8adb6b6891bbf497271cd1bd8c31d3d06e45",
    "thm2 --rounds 6 --algo barycenter": "d85e259908eb8d350b9954de4b924c1e7b33eee29251839a028a6bd04a86e97c",
    "thm2 --rounds 6 --algo first_fit": "45f4b0485abdf0dbfd2a49f3c3e8859f837097a644121403222ec29edd6bf64f",
    "thm2 --rounds 8 --algo barycenter": "d2f3c4e804f97673e1f53c68de0c78f82cb36d3061a326c35578b9447f8f6385",
    "thm2 --rounds 8 --algo first_fit": "255036cfec65ae5a06542f207653f03e455f861e1c368c768f4b0e1f4a00247d",
    "thm2 --rounds 10 --algo barycenter": "65ebe19a1e3d53fa2da0126596f8f87ecf9ab3282829f9b7fc7aa7308c688387",
    "thm2 --rounds 10 --algo first_fit": "9e958586d0a538c02e416ce387d3dea838f2430613bf875cc99397c450c2e4de",
    "thm1 --n 20 --algo barycenter": "645ca3cfc15718a8830b1cc95b6ff70e6299abc61aee887ffe89129169b48392",
    "thm1 --n 20 --algo first_fit": "c5c63433471dcaaa69f8b9b22d1d87a8d00722dbb56d242b93b978028f42f0f8",
    "thm1 --n 40 --algo barycenter": "68a189549c30f6547dc85b24f3dadf602a47f49b62b5e8ca4ecb8c7458c3205a",
    "thm1 --n 40 --algo first_fit": "77e9ac39988bd4564077d57792985ebc1aa24e26874115bca1956845e8f90837",
    "fig8 --n 20 --algo barycenter": "d7991849167110989ca5d327c23673219b3e5be6bee764c9187494071f46dc13",
    "fig8 --n 20 --algo first_fit": "a9645907a14a54b59cd9c422c3a6a60a964344c95151a01466924d9f5447ef4c",
    "fig8 --n 40 --algo barycenter": "8cbc14f63e78e1103405815489cdf58269de17d13cbf86d511556b9b214e65cc",
    "fig8 --n 40 --algo first_fit": "bcb102b2ee46ab09865f876797dca53d3fd120a0d4199f46febf09871ec97931",
}


def stdout_sha256(capsys) -> str:
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("spec", ADVERSARY_STDOUT_SHA256)
def test_adversary_stdout_is_byte_identical(spec, capsys):
    assert main(["adversary", "--name", *spec.split()]) == 0
    assert stdout_sha256(capsys) == ADVERSARY_STDOUT_SHA256[spec]


def test_audit_stdout_is_byte_identical(tmp_path, monkeypatch, capsys):
    # 170 double-cross findings over the game's steps; a relative path keeps
    # the header line the same wherever the test runs.
    monkeypatch.chdir(tmp_path)
    save_instance(random_two_regular(16, seed=2), "inst.json")
    assert main(["audit", "--algo", "first_fit", "--instance", "inst.json"]) == 1
    assert stdout_sha256(capsys) == (
        "8bc8862a7a03afa594dc76084a57901d59f522fcc814b882c2e1ad44edc673ce"
    )


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
