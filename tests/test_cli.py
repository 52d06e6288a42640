import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trapgraph import decomp
from trapgraph.cli import main
from trapgraph.decomp import parse_td, validate, width
from trapgraph.tanner import TannerGraph, serialize_alist
from helpers import HAMMING_74

DATA = Path(__file__).parent / "data"


@pytest.fixture
def hamming_alist(tmp_path):
    path = tmp_path / "hamming.alist"
    path.write_text(serialize_alist(TannerGraph.from_matrix(HAMMING_74)))
    return str(path)


def test_analyze_hamming_json(hamming_alist, capsys):
    assert main(["analyze", "--alist", hamming_alist, "--b", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "trapgraph/1"
    assert doc["code"] == {"n": 7, "m": 3, "source": hamming_alist}
    (r,) = doc["results"]
    assert (r["b"], r["a_min"], r["count"]) == (0, 3, "7")


def test_analyze_text_with_witness(hamming_alist, capsys):
    rc = main(["analyze", "--alist", hamming_alist, "--b", "0,1",
               "--witness", "--text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "b=0: a_min=3 count=7 witness=" in out
    assert "b=1: a_min=1 count=" in out


def test_analyze_validate_oracle_agrees(hamming_alist, capsys):
    rc = main(["analyze", "--alist", hamming_alist, "--b", "0,1,2",
               "--validate-oracle", "10"])
    assert rc == 0
    assert "MISMATCH" not in capsys.readouterr().err


def test_analyze_rejects_bad_b(hamming_alist, capsys):
    assert main(["analyze", "--alist", hamming_alist, "--b", "x"]) == 1
    assert main(["analyze", "--alist", hamming_alist, "--b", "-1"]) == 1


def test_bad_b_rejected_before_decomposition(hamming_alist, monkeypatch,
                                             capsys):
    def fail(g):
        raise AssertionError("decomposition built before --b was checked")

    monkeypatch.setattr(decomp, "heuristic_decomposition", fail)
    for bad in ("x", "-1", "0,,1"):
        assert main(["analyze", "--alist", hamming_alist, "--b", bad]) == 1
        assert "--b" in capsys.readouterr().err


def test_analyze_missing_file_exit_1(tmp_path, capsys):
    rc = main(["analyze", "--alist", str(tmp_path / "nope.alist")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("job", ["analyze --alist", "analyze --td",
                                 "decomp validate --td"])
def test_undecodable_input_exit_1(job, hamming_alist, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    if job.endswith("--alist"):
        bad.write_bytes(b"7 3\n\xff\n")
        argv = ["analyze", "--alist", str(bad)]
    else:
        bad.write_bytes(b"c caf\xe9\ns td 1 10 10\n")
        argv = job.split()[:-1] + ["--alist", hamming_alist, "--td", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{bad}: line" in err and "non-ASCII" in err
    assert "Traceback" not in err


def test_unwritable_output_exit_1(hamming_alist, tmp_path, capsys):
    bad = str(tmp_path / "missing" / "x.out")
    jobs = [
        ["analyze", "--alist", hamming_alist, "--out", bad],
        ["generate", "--sc", "3,4,10,2", "--deg", "3", "--out", bad],
        ["generate", "--sc", "3,4,10,2", "--deg", "3",
         "--out", str(tmp_path / "sc.alist"), "--emit-td", bad],
        ["decomp", "heuristic", "--alist", hamming_alist, "--out", bad],
    ]
    for job in jobs:
        assert main(job) == 1
        assert f"cannot write {bad}:" in capsys.readouterr().err


def test_analyze_bad_threads_env(hamming_alist, monkeypatch, capsys):
    monkeypatch.setenv("TRAPGRAPH_THREADS", "many")
    assert main(["analyze", "--alist", hamming_alist]) == 1


def test_generate_deterministic_and_td(tmp_path, capsys):
    out1 = tmp_path / "a.alist"
    out2 = tmp_path / "b.alist"
    td_path = tmp_path / "a.td"
    args = ["generate", "--sc", "3,4,10,2", "--deg", "3", "--seed", "7"]
    assert main(args + ["--out", str(out1), "--emit-td", str(td_path)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    td = parse_td(td_path.read_text())
    assert width(td) == 10
    assert len(td.bags) == 11


def test_generate_then_analyze_sc_params(tmp_path, capsys):
    path = tmp_path / "sc.alist"
    assert main(["generate", "--sc", "3,4,10,2", "--deg", "3", "--seed", "7",
                 "--out", str(path)]) == 0
    rc = main(["analyze", "--alist", str(path), "--sc-params", "3,4,10,2",
               "--b", "0,1", "--no-timing"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decomposition"]["width"] == 10
    assert all(r["wall_time_ms"] == 0 for r in doc["results"])


def test_generate_rejects_bad_params(tmp_path, capsys):
    assert main(["generate", "--sc", "3,4,10", "--deg", "3",
                 "--out", str(tmp_path / "x.alist")]) == 1
    assert main(["generate", "--sc", "3,4,10,2", "--deg", "99",
                 "--out", str(tmp_path / "x.alist")]) == 1


def test_brute_records(hamming_alist, capsys):
    assert main(["brute", "--alist", hamming_alist,
                 "--a-max", "3", "--b", "0"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 7
    assert all(r["a"] == 3 and r["b"] == 0 for r in records)


def test_brute_work_limit_exit_3(hamming_alist, capsys):
    rc = main(["brute", "--alist", hamming_alist,
               "--a-max", "7", "--b", "0", "--limit", "3"])
    assert rc == 3


def test_decomp_validate_and_nice(hamming_alist, tmp_path, capsys):
    td_path = tmp_path / "h.td"
    assert main(["decomp", "heuristic", "--alist", hamming_alist,
                 "--out", str(td_path)]) == 0
    assert main(["decomp", "validate", "--alist", hamming_alist,
                 "--td", str(td_path)]) == 0
    assert "valid" in capsys.readouterr().out
    nice_path = tmp_path / "h-nice.td"
    assert main(["decomp", "nice", "--alist", hamming_alist,
                 "--td", str(td_path), "--out", str(nice_path)]) == 0
    nice = parse_td(nice_path.read_text())
    assert width(nice) == width(parse_td(td_path.read_text()))


def test_decomp_validate_rejects_bad_td(hamming_alist, tmp_path, capsys):
    bad = tmp_path / "bad.td"
    # one bag that misses every graph node
    bad.write_text("s td 1 1 10\nb 1 10\n")
    rc = main(["decomp", "validate", "--alist", hamming_alist,
               "--td", str(bad)])
    assert rc == 2


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["decomp", "validate", "--alist", "x.alist"])


def test_analyze_report_is_deterministic(hamming_alist, monkeypatch, capsys):
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("TRAPGRAPH_THREADS", threads)
        assert main(["analyze", "--alist", hamming_alist, "--b", "0,1,2",
                     "--witness", "--no-timing"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_import_does_not_load_networkx():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, trapgraph.cli; "
            "print('networkx' in sys.modules, trapgraph.cli.__file__)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == "False"
    assert Path(out[1]).resolve().parent.parent == Path(src)


@pytest.mark.parametrize("route", [["--sc-params", "3,4,10,2"], []],
                         ids=["sc-params", "heuristic"])
def test_analyze_one_pass_matches_single_b_runs(tmp_path, capsys, route):
    path = tmp_path / "sc.alist"
    assert main(["generate", "--sc", "3,4,10,2", "--deg", "3", "--seed", "7",
                 "--out", str(path)]) == 0
    base = ["analyze", "--alist", str(path), *route, "--witness",
            "--no-timing"]
    assert main(base + ["--b", "0,1,2"]) == 0
    together = json.loads(capsys.readouterr().out)["results"]
    assert [r["b"] for r in together] == [0, 1, 2]
    for r in together:
        assert main(base + ["--b", str(r["b"])]) == 0
        (alone,) = json.loads(capsys.readouterr().out)["results"]
        assert r == alone


def test_invalid_td_exits_2_with_each_violation(hamming_alist, tmp_path,
                                                capsys):
    bad = tmp_path / "bad.td"
    bad.write_text("s td 1 1 10\nb 1 10\n")
    violations = list(validate(TannerGraph.from_matrix(HAMMING_74),
                               parse_td(bad.read_text())).violations)
    assert main(["analyze", "--alist", hamming_alist, "--td", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == \
        [f"invalid decomposition: {v}" for v in violations]
    assert main(["decomp", "nice", "--alist", hamming_alist,
                 "--td", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == violations


@pytest.mark.parametrize("route,golden", [
    (["--sc-params", "3,4,40,2"], "analyze_sc40_seed1_sc_params.json"),
    ([], "analyze_sc40_seed1_heuristic.json"),
], ids=["sc-params", "heuristic"])
def test_analyze_report_matches_golden(tmp_path, monkeypatch, capsys, route,
                                       golden):
    # pins answers, node kinds and the carried witnesses (the tie order of
    # the DP) on both routes, byte for byte
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--sc", "3,4,40,2", "--deg", "3", "--seed", "1",
                 "--out", "sc40.alist"]) == 0
    assert main(["analyze", "--alist", "sc40.alist", *route, "--b", "0,1,2",
                 "--witness", "--no-timing", "--out", "report.json"]) == 0
    assert (tmp_path / "report.json").read_bytes() == \
        (DATA / golden).read_bytes()
