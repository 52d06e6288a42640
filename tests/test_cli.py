import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trapgraph import decomp, dpcore, oracle
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


@pytest.mark.parametrize("text", ["0 0\n0 0\n\n\n",
                                  "0 2\n0 0\n\n0 0\n\n\n"])
def test_commands_accept_a_code_without_variables(tmp_path, text, capsys):
    alist, td, nice = (str(tmp_path / f) for f in ("e.alist", "e.td",
                                                     "n.td"))
    Path(alist).write_text(text)
    assert main(["analyze", "--alist", alist, "--b", "0,1", "--witness",
                 "--no-timing"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["a_min"] for r in results] == [None, None]
    assert main(["decomp", "heuristic", "--alist", alist, "--out", td]) == 0
    assert main(["decomp", "nice", "--alist", alist, "--td", td,
                 "--out", nice]) == 0
    for path in (td, nice):
        assert main(["decomp", "validate", "--alist", alist,
                     "--td", path]) == 0


def test_analyze_text_with_witness(hamming_alist, capsys):
    rc = main(["analyze", "--alist", hamming_alist, "--b", "0,1",
               "--witness", "--text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "b=0: a_min=3 count=7 witness=" in out
    assert "b=1: a_min=1 count=" in out


def test_analyze_builds_no_var_masks(hamming_alist, monkeypatch, capsys):
    # the per-variable check bitmasks cost O(n * m); analyze, witness
    # check included, reads adjacency lists only
    def refuse(g):
        raise AssertionError("analyze built TannerGraph.var_masks")

    monkeypatch.setattr(TannerGraph, "var_masks", property(refuse))
    rc = main(["analyze", "--alist", hamming_alist, "--b", "0,1,2",
               "--witness", "--no-timing"])
    assert rc == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert all(r["witness"] for r in results)


def test_analyze_builds_no_nice_nodes_view(tmp_path, monkeypatch, capsys):
    # analyze reads the nice form's columns only; the per-node view with
    # its slot layouts is for tests and `decomp nice`.  It reports the
    # width the nice form kept, with no decomp.width of the bags
    alist, td = str(tmp_path / "sc.alist"), str(tmp_path / "sc.td")
    assert main(["generate", "--sc", "3,4,10,2", "--deg", "3", "--seed", "7",
                 "--out", alist, "--emit-td", td]) == 0

    def refuse(_):
        raise AssertionError("analyze built NiceTreeDecomposition.nodes "
                             "or called decomp.width")

    monkeypatch.setattr(decomp.NiceTreeDecomposition, "nodes",
                        property(refuse))
    monkeypatch.setattr(decomp, "width", refuse)
    reports = []
    for route in (["--sc-params", "3,4,10,2"], [], ["--td", td]):
        rc = main(["analyze", "--alist", alist, "--b", "0,1,2", "--witness",
                   "--no-timing", *route])
        assert rc == 0
        reports.append(json.loads(capsys.readouterr().out)["results"])
    assert reports[0] == reports[1] == reports[2]
    assert all(r["witness"] for r in reports[0])


def test_analyze_validate_oracle_agrees(hamming_alist, capsys):
    rc = main(["analyze", "--alist", hamming_alist, "--b", "0,1,2",
               "--validate-oracle", "10"])
    assert rc == 0
    assert "MISMATCH" not in capsys.readouterr().err


def test_analyze_validate_oracle_mismatch_exit_2(hamming_alist, monkeypatch,
                                                capsys):
    # the Hamming code's (a_min, count) at b=0 is (3, 7); a forged oracle
    # disagrees, and both sides print as (a_min, count)
    monkeypatch.setattr(oracle, "brute_force_spectrum", lambda g, b: (3, 8))
    rc = main(["analyze", "--alist", hamming_alist, "--b", "0",
               "--validate-oracle", "10"])
    assert rc == 2
    assert "ORACLE MISMATCH at b=0: dp=(3, 7) oracle=(3, 8)" in \
        capsys.readouterr().err


def test_analyze_rejects_bad_b(hamming_alist, capsys):
    assert main(["analyze", "--alist", hamming_alist, "--b", "x"]) == 1
    assert main(["analyze", "--alist", hamming_alist, "--b", "-1"]) == 1


def test_bad_b_rejected_before_decomposition(hamming_alist, monkeypatch,
                                             capsys):
    def fail(g):
        raise AssertionError("decomposition built before --b was checked")

    monkeypatch.setattr(decomp, "heuristic_decomposition", fail)
    monkeypatch.setattr(decomp, "heuristic_nice", fail)
    for bad in ("x", "-1", "0,,1"):
        assert main(["analyze", "--alist", hamming_alist, "--b", bad]) == 1
        assert "--b" in capsys.readouterr().err


def test_default_route_skips_validate_and_make_nice(tmp_path, monkeypatch,
                                                   capsys):
    # the default and --sc-params routes build their nice forms straight
    # from the elimination and the window, with no TreeDecomposition, and
    # check the columns instead; --td still reaches validate, once, through
    # make_nice, and all three routes give the same results
    alist, td = str(tmp_path / "sc.alist"), str(tmp_path / "sc.td")
    assert main(["generate", "--sc", "3,4,10,2", "--deg", "3", "--seed", "7",
                 "--out", alist, "--emit-td", td]) == 0
    real = {name: getattr(decomp, name)
            for name in ("validate", "make_nice", "TreeDecomposition")}

    def refuse(*args):
        raise AssertionError("a built-in route called " + " or ".join(real))

    for name in real:
        monkeypatch.setattr(decomp, name, refuse)
    args = ["--b", "0,1,2", "--witness", "--no-timing"]
    results = []
    for flags in ([], ["--sc-params", "3,4,10,2"]):
        assert main(["analyze", "--alist", alist, *flags, *args]) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    validated = []

    def counting(g, td):
        validated.append(td)
        return real["validate"](g, td)

    for name in real:
        monkeypatch.setattr(decomp, name, real[name])
    monkeypatch.setattr(decomp, "validate", counting)
    assert main(["analyze", "--alist", alist, "--td", td, *args]) == 0
    results.append(json.loads(capsys.readouterr().out)["results"])
    assert len(validated) == 1
    assert results[0] == results[1] == results[2]


def test_sc_params_out_of_window_check_exits_1(tmp_path, capsys):
    # check 0 (block 0) meets variable 2 (block 2), outside a window of 2
    g = TannerGraph.from_check_adj(3, 4, [[0, 2], [0, 1], [1, 2], [2]])
    alist = tmp_path / "bad.alist"
    alist.write_text(serialize_alist(g))
    assert main(["analyze", "--alist", str(alist),
                 "--sc-params", "1,1,3,2"]) == 1
    assert capsys.readouterr().err == (
        "check 0 (block 0) adjacent to variable 2 outside its coupling "
        "window\n")


def test_default_route_check_failure_exits_2(hamming_alist, monkeypatch,
                                             capsys):
    # the elimination record (bags, eliminated nodes, parents) of the graph
    # with its edges removed, every bag a chained singleton, misses every
    # edge: the column check fails, and the default route reports an
    # invalid decomposition
    eliminate = decomp._eliminate

    def edgeless(g):
        return eliminate(TannerGraph.from_check_adj(
            g.n_var, g.n_chk, [[] for _ in g.chk_adj]))

    monkeypatch.setattr(decomp, "_eliminate", edgeless)
    assert main(["analyze", "--alist", hamming_alist]) == 2
    assert "invalid decomposition: Tanner edges in no nice bag: 12 of 12" \
        in capsys.readouterr().err


def test_negative_validate_oracle_rejected_before_reading(tmp_path, capsys):
    # the file does not exist, so exit 1 without "cannot read" means the
    # bound was checked first; a negative bound used to skip every check
    rc = main(["analyze", "--alist", str(tmp_path / "nope.alist"),
               "--validate-oracle", "-1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--validate-oracle" in err and "cannot read" not in err


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


@pytest.mark.parametrize("text", ["s td -1 0 0\n", "s td 1 -1 1\nb 1\n",
                                  "s td 1 0 -3\nb 1\n"])
@pytest.mark.parametrize("job", ["analyze", "decomp validate", "decomp nice"])
def test_negative_td_header_field_exit_1(job, text, hamming_alist, tmp_path,
                                         capsys):
    bad = tmp_path / "negative.td"
    bad.write_text(text)
    assert main([*job.split(), "--alist", hamming_alist, "--td", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == f"{bad}: line 1: negative header field\n"


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


@pytest.mark.parametrize("flag,value", [("--b", "-1"), ("--a-max", "-1"),
                                        ("--limit", "0"), ("--limit", "-5")])
def test_brute_rejects_out_of_range_arguments(flag, value, tmp_path, capsys):
    # rejected before the alist is read: the file does not exist
    argv = {"--alist": str(tmp_path / "nope.alist"), "--a-max": "3",
            "--b": "0", flag: value}
    assert main(["brute", *(x for kv in argv.items() for x in kv)]) == 1
    err = capsys.readouterr().err
    assert flag in err and "cannot read" not in err


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


def test_td_node_count_must_match_graph(tmp_path, capsys):
    # every bag id is in range, but the header says 9 nodes on a 5-node graph
    alist = tmp_path / "g.alist"
    alist.write_text(serialize_alist(
        TannerGraph.from_matrix([[1, 1, 0], [0, 1, 1]])))
    td = tmp_path / "g.td"
    td.write_text("s td 1 5 9\nb 1 1 2 3 4 5\n")
    violation = "decomposition has 9 nodes, graph has 5"
    assert main(["decomp", "validate", "--alist", str(alist),
                 "--td", str(td)]) == 2
    assert capsys.readouterr().out.splitlines() == [violation]
    assert main(["analyze", "--alist", str(alist), "--td", str(td)]) == 2
    assert capsys.readouterr().err.splitlines() == \
        [f"invalid decomposition: {violation}"]


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


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code: str) -> list[str]:
    """The words ``code`` prints in a new interpreter that imports
    trapgraph from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_import_does_not_load_networkx():
    out = fresh_python("import sys, trapgraph.cli; print('networkx' in "
                       "sys.modules, trapgraph.cli.__file__)")
    assert out[0] == "False"
    assert Path(out[1]).resolve().parent.parent == SRC


def test_import_does_not_load_dataclasses():
    # dataclasses brings in inspect, ast and dis: about 0.9 MB of RSS and
    # 7 ms per process; the program's records are named tuples.  A module
    # that the bare interpreter already has (site may preload some) does
    # not count
    heavy = ("dataclasses", "inspect", "ast", "dis")
    code = "import sys{}; print(*[m for m in {!r} if m in sys.modules])"
    bare = fresh_python(code.format("", heavy))
    loaded = fresh_python(code.format(", trapgraph.cli", heavy))
    assert set(loaded) <= set(bare), loaded


@pytest.mark.parametrize("route", ["sc-params", "min-fill", "td"])
def test_no_decomposition_alive_during_dp(tmp_path, monkeypatch, capsys,
                                          route):
    # analyze keeps the width and drops the decomposition once the nice
    # form is built, so its bags never share memory with the DP's tables
    alist, td = str(tmp_path / "sc.alist"), str(tmp_path / "sc.td")
    assert main(["generate", "--sc", "3,4,10,2", "--deg", "3", "--seed", "7",
                 "--out", alist, "--emit-td", td]) == 0
    flags = {"sc-params": ["--sc-params", "3,4,10,2"], "min-fill": [],
             "td": ["--td", td]}[route]
    gc.collect()
    before = {id(o): o for o in gc.get_objects()
              if isinstance(o, decomp.TreeDecomposition)}
    alive = []
    run_dp = dpcore.run_dp

    def scanning_run_dp(*args, **kwargs):
        alive.append(sum(isinstance(o, decomp.TreeDecomposition)
                         and id(o) not in before for o in gc.get_objects()))
        return run_dp(*args, **kwargs)

    monkeypatch.setattr(dpcore, "run_dp", scanning_run_dp)
    assert main(["analyze", "--alist", alist, *flags, "--b", "0,1",
                 "--no-timing"]) == 0
    assert alive == [0]


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
    # pins answers, node kinds and the carried witnesses (the tie rule of
    # the DP) on both routes, byte for byte
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--sc", "3,4,40,2", "--deg", "3", "--seed", "1",
                 "--out", "sc40.alist"]) == 0
    assert main(["analyze", "--alist", "sc40.alist", *route, "--b", "0,1,2",
                 "--witness", "--no-timing", "--out", "report.json"]) == 0
    assert (tmp_path / "report.json").read_bytes() == \
        (DATA / golden).read_bytes()


def test_golden_reports_have_equal_results():
    # the witness is the integer-smallest minimizer, so the path and
    # min-fill routes report the same results, witnesses included
    docs = [json.loads((DATA / name).read_text()) for name in
            ("analyze_sc40_seed1_sc_params.json",
             "analyze_sc40_seed1_heuristic.json")]
    assert docs[0]["results"] == docs[1]["results"]


@pytest.mark.parametrize("route,golden", [
    ([], "nice_sc40_seed1_path.td"),
    (["decomp", "heuristic", "--alist", "sc40.alist", "--out", "sc40.td"],
     "nice_sc40_seed1_min_fill.td"),
], ids=["path", "min-fill"])
def test_decomp_nice_matches_golden(tmp_path, monkeypatch, route, golden):
    # pins the whole nice form on both routes, byte for byte: the root and
    # the orientation of the bag tree, the order of the nice nodes and
    # every bag
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--sc", "3,4,40,2", "--deg", "3", "--seed", "1",
                 "--out", "sc40.alist", "--emit-td", "sc40.td"]) == 0
    if route:
        assert main(route) == 0
    assert main(["decomp", "nice", "--alist", "sc40.alist", "--td", "sc40.td",
                 "--out", "nice.td"]) == 0
    assert (tmp_path / "nice.td").read_bytes() == (DATA / golden).read_bytes()
