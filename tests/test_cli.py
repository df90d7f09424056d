import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oscm.cli import main
from oscm.crossings import total_crossings
from oscm.model import (
    Instance,
    instance_from_dict,
    random_two_regular,
    save_instance,
    validate_instance,
)
from oscm.offline import brute_force_opt, sorted_order_value


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


def test_opt_is_exact_above_the_oracle_bound(tmp_path, capsys):
    # `opt` prints the sorted-order value at every size; the exponential
    # oracle, allowed to run this large, finds the same optimum.
    inst = random_two_regular(12, seed=3)
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert main(["opt", "--instance", str(path)]) == 0
    value, witness = capsys.readouterr().out.splitlines()
    opt = brute_force_opt(inst, max_n=12).opt_crossings
    slots = json.loads(witness.removeprefix("witness slots="))
    assert value == f"opt={opt}"
    assert total_crossings(zip(slots, inst.requests)) == opt


@pytest.mark.parametrize(
    "inst",
    [random_two_regular(10, seed) for seed in range(5)]
    + [Instance(n=12, requests=random_two_regular(12, seed=1).requests[:7])],
    ids=[f"two_regular_10_seed{seed}" for seed in range(5)] + ["incomplete_12"],
)
def test_run_scores_instances_above_the_oracle_bound(inst, tmp_path, capsys):
    # `run` scores against the sorted-order value at every size, which
    # equals the optimum the oracle finds when allowed to run this large.
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert main(["run", "--algo", "greedy", "--instance", str(path)]) == 0
    head, *lines = capsys.readouterr().out.splitlines()
    opt = brute_force_opt(inst, max_n=inst.n).opt_crossings
    assert f" opt={opt} " in head
    assert lines[-1] == "  opt basis: exact"


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
    assert report.read_bytes().startswith(
        b"trial,seed,n,alg,source,alg_crossings,opt_crossings,ratio,violations\r\n"
    )
    assert len(list(csv.DictReader(report.read_text().splitlines()))) == 8
    assert "max_ratio=" in capsys.readouterr().out


def test_bench_scores_sizes_above_the_oracle_bound(tmp_path, capsys):
    report = tmp_path / "bench.json"
    argv = ["bench", "--algo", "greedy", "--n", "9-12", "--trials", "4", "--seed", "1"]
    assert main(argv + ["--report", str(report), "--format", "json"]) == 0
    assert capsys.readouterr() == (
        "greedy: trials=4 sizes=9-12 max_ratio=1.2857 mean_ratio=1.1314 violations=0\n",
        "",
    )
    trials = json.loads(report.read_text())["trials"]
    assert any(trial["n"] > 9 for trial in trials)
    for trial in trials:
        inst = random_two_regular(trial["n"], trial["seed"])
        assert trial["opt_crossings"] == sorted_order_value(inst)


def test_bench_exits_3_when_the_oracle_disagrees(monkeypatch, capsys):
    import oscm.harness

    def one_too_high(inst):
        result = brute_force_opt(inst)
        return replace(result, opt_crossings=result.opt_crossings + 1)

    monkeypatch.setattr(oscm.harness, "brute_force_opt", one_too_high)
    assert main(["bench", "--algo", "greedy", "--n", "4-6", "--trials", "2", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    first = captured.err.splitlines()[0]
    assert first.startswith("internal error: RuntimeError: random_two_regular(n=")


def test_bench_json_report(tmp_path):
    report = tmp_path / "bench.json"
    code = main(
        ["bench", "--algo", "first_fit", "--n", "4", "--trials", "3",
         "--report", str(report), "--format", "json"]
    )
    assert code == 0
    assert len(json.loads(report.read_text())["trials"]) == 3


@pytest.mark.parametrize(
    "algo, counts, row_tail, ratio",
    [
        ("first_fit", "alg=4 opt=0 ratio=inf violations=3", ",4,0,inf,3", None),
        ("greedy", "alg=0 opt=0 ratio=1.0000 violations=0", ",0,0,1.000000,0", 1.0),
    ],
)
def test_every_writer_spells_the_ratio_of_a_zero_optimum(algo, counts, row_tail, ratio,
                                                         tmp_path, monkeypatch, capsys):
    # Two disjoint requests have OPT = 0: first_fit crosses them 4 times, an
    # undefined ratio, and greedy not at all, which reads as 1.
    monkeypatch.chdir(tmp_path)
    Path("inf4.json").write_text('{"n": 4, "requests": [[3, 4], [1, 2]]}')
    argv = ["run", "--algo", algo, "--instance", "inf4.json", "--report"]
    assert main(argv + ["r.csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"{algo} vs inf4.json: {counts}"
    assert Path("r.csv").read_text().splitlines()[1] == f"0,,4,{algo},inf4.json{row_tail}"
    assert main(argv + ["r.json", "--format", "json"]) == 0
    payload = json.loads(Path("r.json").read_text())
    assert (payload["ratio"], payload["ratio_defined"]) == (ratio, ratio is not None)


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


def test_render_instance_without_algo_draws_its_empty_board(tmp_path, capsys):
    path = tmp_path / "inst.json"
    save_instance(random_two_regular(4, seed=0), str(path))
    assert main(["render", "--instance", str(path)]) == 0
    from_instance = capsys.readouterr().out
    assert main(["render", "--n", "4"]) == 0
    assert from_instance == capsys.readouterr().out


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


@pytest.mark.parametrize(
    "algo, code, out, err",
    [
        ("greedy", 2, "", "error: vertex 1 has degree 3 > 2\n"),
        ("barycenter", 0, "barycenter on inst.json: 0 finding(s), final crossings=3\n", ""),
        ("first_fit", 0, "first_fit on inst.json: 0 finding(s), final crossings=3\n", ""),
    ],
)
def test_audit_of_a_general_instance_above_degree_two(algo, code, out, err, tmp_path,
                                                      monkeypatch, capsys):
    # Greedy needs arrows, which a vertex of degree 3 leaves undefined; the
    # baselines play on, and the audit skips its arrow audits there.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.json").write_text('{"n": 4, "requests": [[1, 2], [1, 3], [1, 4]]}')
    assert main(["audit", "--algo", algo, "--instance", "inst.json"]) == code
    assert capsys.readouterr() == (out, err)


def read_one_line_and_close(tmp_path, argv):
    """Run `oscm argv` in `tmp_path`, which holds `random_two_regular(60, 1)`
    as inst60.json, close its stdout after one line and return that line,
    the exit code and stderr."""
    save_instance(random_two_regular(60, seed=1), str(tmp_path / "inst60.json"))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "oscm.cli", *argv],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    return header, code, err


def test_a_reader_closing_stdout_early_exits_141_quietly(tmp_path):
    # 10,396 findings, about 950 KB of stdout: far more than a pipe holds,
    # so the audit is still writing when the reader closes its end.
    argv = ["audit", "--algo", "first_fit", "--instance", "inst60.json"]
    header, code, err = read_one_line_and_close(tmp_path, argv)
    assert code == 141
    assert header == "first_fit on inst60.json: 10396 finding(s), final crossings=3454\n"
    assert err == ""


@pytest.mark.parametrize(
    "argv, report, row, side_file",
    [
        (["run", "--algo", "first_fit", "--instance", "inst60.json", "--report", "x.csv"],
         "x.csv", "0,,60,first_fit,inst60.json,3454,1903,1.815029,10396", None),
        (["adversary", "--name", "fig8", "--n", "40", "--algo", "first_fit",
          "--report", "a.csv", "--trace"],
         "a.csv", "0,,40,first_fit,fig8(n=40),3060,20,153.000000,10640", "a.csv.trace.json"),
    ],
    ids=["run", "adversary"],
)
def test_a_reader_closing_stdout_early_still_gets_the_report(argv, report, row, side_file,
                                                             tmp_path):
    # Both games print over 10,000 findings, far more than a pipe holds:
    # the report is written before the printing that the closed pipe stops.
    _, code, err = read_one_line_and_close(tmp_path, argv)
    assert code == 141
    assert err == ""
    with open(tmp_path / report, newline="") as fh:
        assert fh.read().splitlines()[1] == row
    if side_file:
        assert (tmp_path / side_file).is_file()


def test_missing_instance_file_is_diagnosed(capsys):
    assert main(["opt", "--instance", "/nonexistent.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_adversary_plays_the_game_once(monkeypatch, capsys):
    import oscm.algorithms
    import oscm.cli
    import oscm.harness

    games = []

    def counting_play(source, algorithm, on_step=None):
        games.append(algorithm.name)
        return oscm.algorithms.play(source, algorithm, on_step)

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
    bad.write_text('{"n": 2, "requests": [[1, 2], [1, 2]], "regularty": "two_regular"}')
    assert main(["run", "--algo", "greedy", "--instance", str(bad)]) == 2
    assert capsys.readouterr().err == "error: instance has unknown key 'regularty'\n"
    for value, shown in [('"2reg"', "'2reg'"), ("[1]", "[1]"), ("null", "None")]:
        bad.write_text(f'{{"n": 2, "requests": [[1, 2], [1, 2]], "regularity": {value}}}')
        assert main(["run", "--algo", "greedy", "--instance", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: regularity must be 'general' or 'two_regular', got {shown}\n"
        )
    assert main(["adversary", "--name", "thm1", "--n", "3", "--algo", "greedy"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
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
        (["run", "--algo", "greedy", "--instance", str(bad), "--trace"], "--trace needs --report"),
        (["run", "--algo", "greedy", "--instance", str(bad), "--format", "csv"],
         "--format needs --report"),
        (["adversary", "--name", "fig8", "--algo", "greedy", "--trace"], "--trace needs --report"),
        (["adversary", "--name", "thm2", "--algo", "greedy", "--format", "json"],
         "--format needs --report"),
        (["bench", "--algo", "greedy", "--trials", "2", "--format", "json"],
         "--format needs --report"),
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
    "thm2 --rounds 4 --algo barycenter": "5c08516229ab71d06e39a981d0ef8a9036c40c1020f82b086736ac7930be55fc",
    "thm2 --rounds 4 --algo first_fit": "dc2a9afb3825544584fb769d32a03f2be9ff3fff1a518e318d5babeffcef480c",
    "thm2 --rounds 6 --algo barycenter": "65340ae8d17f5d5096864d6e179252ce9876599339a212ceddfc62488fd095b8",
    "thm2 --rounds 6 --algo first_fit": "831c879feda859b76fbaad09d7a240c4a89f203743c3f9ded3da415be605a249",
    "thm2 --rounds 8 --algo barycenter": "6394b0b1666c1245b8650c376c322f3875912c5270765a86c3f22ba6abeb3a36",
    "thm2 --rounds 8 --algo first_fit": "5d1dc10e8f7551bc337000e44388ff1814d3914f83acd37acec365bb3b48f2fb",
    "thm2 --rounds 10 --algo barycenter": "6d37e742045f527f4239f0c05a63cc826cb212eccf8971d9eb6d45dd3cef0770",
    "thm2 --rounds 10 --algo first_fit": "6d043ba7eb515245d48d1194e66cb5b13b33dd2ed9d9a2acc07f4598875d369c",
    "thm1 --n 20 --algo barycenter": "b2c9225a759e94e871e81c027636aa2d1c3b7893179c3841479b9c752d0df413",
    "thm1 --n 20 --algo first_fit": "38b0b71d470054ea20cd527263137c1176cfc21f2b9be1056c25c79881aceef1",
    "thm1 --n 40 --algo barycenter": "d44d38f1ef15c6dc9ed863e24a54b91ff977154245e3c21991130a3597ad18c7",
    "thm1 --n 40 --algo first_fit": "e0998a870010035db22c1e6707c9796f938956eb220cdaa33d1234e869d4b923",
    "fig8 --n 20 --algo barycenter": "ccac267e9106161bf9a2343fba80e7880c55372f2a1a5ea3fc681ea51912096d",
    "fig8 --n 20 --algo first_fit": "d8f4d4f118eb6c5d443764d67c40c75784739aa592d84dcef12467a97dd9e06f",
    "fig8 --n 40 --algo barycenter": "978ca21eff19d777170d3d8e1d9d16130b41e9ad2905e193c08a458798efc479",
    "fig8 --n 40 --algo first_fit": "4e366942daaf25e4cb0722f8cdf3be3a3930cd5ccb61d81011317e46c2d8386a",
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


# sha256 of a `--trace` JSON report: the score, the findings and every
# step's edge-edge and edge-arrow totals. The thm1 game's last step has no
# arrows, so its `edge_arrow_total` is null.
TRACE_REPORT_SHA256 = {
    "run --algo greedy --instance inst12.json --report r.json": (
        "d27f569268477fcb97ed52a9f4ff821fe0719a4bc8754b1b49700138c23df505"
    ),
    "adversary --name thm1 --n 10 --algo barycenter --report t.json": (
        "7e2529d5e82ec4300c5673ecc18aa52ff420407d37cc0185fb112529246b20f2"
    ),
}


@pytest.mark.parametrize("command", TRACE_REPORT_SHA256)
def test_trace_json_report_is_byte_identical(command, tmp_path, monkeypatch, capsys):
    # Relative paths keep the report's source names the same wherever the
    # test runs.
    monkeypatch.chdir(tmp_path)
    save_instance(random_two_regular(12, 1), "inst12.json")
    argv = command.split()
    assert main([*argv, "--format", "json", "--trace"]) == 0
    report = Path(argv[-1]).read_bytes()
    assert hashlib.sha256(report).hexdigest() == TRACE_REPORT_SHA256[command]
    if argv[0] == "adversary":
        assert json.loads(report)["trace"]["steps"][-1]["edge_arrow_total"] is None


@pytest.mark.parametrize(
    "error",
    [
        "oscm.crossings.UnclassifiablePairError",
        "oscm.harness.ReplayMismatchError",
        "oscm.adversaries.ProtocolError",
        "builtins.IndexError",
        "builtins.KeyError",
    ],
)
def test_internal_errors_exit_3(error, monkeypatch, capsys):
    import importlib

    import oscm.cli

    module, name = error.rsplit(".", 1)
    exc_type = getattr(importlib.import_module(module), name)

    def broken_run_experiment(*args, **kwargs):
        raise exc_type("counter bug")

    monkeypatch.setattr(oscm.cli, "run_experiment", broken_run_experiment)
    assert main(["adversary", "--name", "fig8", "--n", "4", "--algo", "greedy"]) == 3
    first, *rest = capsys.readouterr().err.splitlines()
    # str() of a KeyError quotes its key.
    message = "'counter bug'" if name == "KeyError" else "counter bug"
    assert first == f"internal error: {name}: {message}"
    assert rest[0] == "Traceback (most recent call last):"
