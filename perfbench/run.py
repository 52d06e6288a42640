"""Benchmark of `trapgraph analyze`: time, memory and failures per workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sc-path --seed 1 --seconds 30 --trace 0

The benchmark generates its inputs from ``--seed`` as alist files, runs one
closed-loop client of ``trapgraph.cli.main`` in a fresh child process for
``--seconds`` seconds (worker.py), checks every report against an answer
computed by another route, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are per-layer
metrics taken by wrapping the program's functions in the child.  Workloads,
metrics and the predictions they test are described in README.md beside
this file.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SC_BASE = (3, 4, 2)                 # r, c, w of the SC-LDPC family
SC_DEGREE = 3
SC_LENGTH = {"sc-path": 640, "sc-minfill": 320}     # coupling length L
B_VALUES = (0, 1, 2)
NODE_KINDS = ("leaf", "intro_var", "forget_var", "intro_chk", "forget_chk",
              "join")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
LOOP_SLACK_S = 130                  # last call, traced probe, slow machine


def make_inputs(workload: str, seed: int, work: Path):
    """Write the workload's alist file; returns (graphs, argv per input).

    The program sees only this file: an SC-LDPC code whose seed is ``seed``.
    """
    from trapgraph import tanner
    r, c, w = SC_BASE
    L = SC_LENGTH[workload]
    extra = ["--sc-params", f"{r},{c},{L},{w}"] if workload == "sc-path" \
        else []
    common = ["--b", ",".join(map(str, B_VALUES)), "--witness", "--no-timing"]
    g = tanner.generate_sc_ldpc(tanner.ScLdpcParams(r, c, L, w,
                                                    var_degree=SC_DEGREE,
                                                    seed=seed))
    name = f"sc-L{L}"
    path = work / f"{name}.alist"
    path.write_text(tanner.serialize_alist(g))
    return [(name, g)], [["analyze", "--alist", str(path), *extra, *common]]


def min_degree_td(g):
    """Tree decomposition from a greedy min-degree elimination order.

    Built here, not by the program, so that the SC reference answers come
    from a decomposition unrelated to both routes the benchmark times.
    """
    from trapgraph import decomp
    total = g.n_var + g.n_chk
    adj = [set() for _ in range(total)]
    for c, vs in enumerate(g.chk_adj):
        for v in vs:
            adj[v].add(g.n_var + c)
            adj[g.n_var + c].add(v)
    heap = [(len(a), x) for x, a in enumerate(adj)]
    heapq.heapify(heap)
    done = [False] * total
    bag_of = [0] * total
    bags, later = [], []
    while heap:
        deg, x = heapq.heappop(heap)
        if done[x] or deg != len(adj[x]):
            continue
        done[x] = True
        nbrs = adj[x]
        bag_of[x] = len(bags)
        bags.append(frozenset(nbrs | {x}))
        later.append(nbrs)
        for a in nbrs:
            adj[a].discard(x)
            adj[a] |= nbrs - {a}
            heapq.heappush(heap, (len(adj[a]), a))
    # a bag's parent is the bag of its earliest-eliminated remaining neighbour
    edges, roots = [], []
    for i, nbrs in enumerate(later):
        if nbrs:
            edges.append((i, min(bag_of[u] for u in nbrs)))
        else:
            roots.append(i)
    edges.extend(zip(roots, roots[1:]))
    return decomp.TreeDecomposition(total, tuple(bags), tuple(edges))


def reference(g, alist: str, work: Path):
    """{b: (a_min, count) or None} by a route other than the timed one: the
    CLI on a min-degree elimination decomposition passed with ``--td``.
    """
    from trapgraph import cli, decomp
    td_path, out = work / "reference.td", work / "reference.json"
    td_path.write_text(decomp.serialize_td(min_degree_td(g)))
    rc = cli.main(["analyze", "--alist", alist, "--td", str(td_path),
                   "--b", ",".join(map(str, B_VALUES)), "--no-timing",
                   "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"reference analyze exited {rc}")
    doc = json.loads(out.read_text())
    return {r["b"]: None if r["a_min"] is None else (r["a_min"], int(r["count"]))
            for r in doc["results"]}


def odd_checks(g, members) -> int:
    degree = Counter(c for v in members for c in g.var_adj[v])
    return sum(1 for d in degree.values() if d % 2)


def check_report(g, doc: dict, ref) -> str | None:
    """Why the report is wrong, or None when it matches the reference."""
    if (doc["code"]["n"], doc["code"]["m"]) != (g.n_var, g.n_chk):
        return "code shape differs from the input"
    if [r["b"] for r in doc["results"]] != list(B_VALUES):
        return "results do not list the requested b values"
    for r in doc["results"]:
        b = r["b"]
        got = None if r["a_min"] is None else (r["a_min"], int(r["count"]))
        if got != ref[b]:
            return f"b={b}: (a_min, count) {got} but reference {ref[b]}"
        w = r.get("witness")
        if got is None:
            if w is not None:
                return f"b={b}: witness without a trapping set"
            continue
        if (not isinstance(w, list) or len(set(w)) != len(w)
                or not all(isinstance(v, int) and 0 <= v < g.n_var for v in w)):
            return f"b={b}: malformed witness"
        if len(w) != got[0] or odd_checks(g, w) != b:
            return f"b={b}: witness is not an ({got[0]},{b})-trapping set"
    return None


def shape(doc: dict) -> dict:
    return {"n": doc["code"]["n"], "m": doc["code"]["m"],
            "width": doc["decomposition"]["width"],
            "node_kinds": doc["decomposition"]["node_kinds"],
            "answers": [[r["b"], r["a_min"], r["count"]]
                        for r in doc["results"]]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                 else []))
    env["PERFBENCH_PARENT"] = str(os.getpid())
    return env


def run_child(args: list[str], timeout: float) -> str:
    """Run worker.py and return its stdout; on timeout it is killed."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child exited {proc.returncode}")
    return proc.stdout


def measure_setup() -> list[float]:
    """Import time of trapgraph.cli in fresh interpreters, after a warm-up."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        doc = json.loads(run_child(["--import-only"], SETUP_TIMEOUT_S))
        if Path(doc["file"]).resolve().parent.parent != SRC.resolve():
            raise SystemExit(f"imported trapgraph from {doc['file']}, "
                             f"not from {SRC}")
        if i:
            samples.append(doc["import_s"])
    return samples


def percentile_line(values: list[float]) -> str:
    """Median, sample count and the highest percentile with >= 10 beyond it."""
    n = len(values)
    line = f"median {statistics.median(values):.4f} s over {n} samples"
    for p in (99.9, 99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return line + f", p{p:g} {q[round(p * 10) - 1]:.4f} s"
    return line + "; no percentile has 10 samples beyond it"


def run(workload: str, seed: int, seconds: int, trace: bool,
        work: Path, out_dir: Path) -> dict:
    graphs, argvs = make_inputs(workload, seed, work)
    setup = measure_setup()
    cfg = {"inputs": argvs, "out": str(work / "report.json"),
           "seconds": seconds, "trace": trace,
           "probe": [*SC_BASE, SC_DEGREE, seed]}
    (work / "config.json").write_text(json.dumps(cfg))
    run_child([str(work / "config.json"), str(work / "result.json")],
              seconds + LOOP_SLACK_S)
    res = json.loads((work / "result.json").read_text())

    ops = res["ops"]
    docs, problems = {}, {}
    for key, text in res["reports"].items():
        idx = int(key)
        name, g = graphs[idx]
        try:
            doc = json.loads(text)
            why = check_report(g, doc, reference(g, argvs[idx][2], work))
        except (ValueError, KeyError, TypeError, RuntimeError) as exc:
            why = f"malformed report or failed reference: {exc!r}"
        if why:
            problems[idx] = why
            print(f"WRONG {name}: {why}", file=sys.stderr)
        else:
            docs[idx] = doc
    for op in ops:
        if op[3] == "ok" and op[0] in problems:
            op[3] = problems[op[0]]
        elif op[3] != "ok":
            print(f"FAILED {graphs[op[0]][0]}: {op[3]}", file=sys.stderr)
    failed = sum(op[3] != "ok" for op in ops)

    for idx in sorted(docs):
        print("input", graphs[idx][0], json.dumps(shape(docs[idx])),
              "ops", sum(op[0] == idx for op in ops))
    plain = [op for op in ops if not op[1]]
    times = [op[2] for op in plain]
    rss_mb = [op[4] / 1024 for op in plain]
    print("analyze_s:", percentile_line(times))
    print(f"peak RSS per call: median {statistics.median(rss_mb):.1f} MB, "
          f"max {max(rss_mb):.1f} MB")
    print(f"setup_s: samples {' '.join(f'{s:.4f}' for s in setup)}")
    print(f"failed_frac: {failed}/{len(ops)} = {failed / len(ops):.4f}")
    print("trapgraph imported from", res["file"])

    if not trace:
        ok = sum(op[3] == "ok" for op in plain)
        metrics = {
            "analyze_s": (statistics.median(times), "s"),
            "throughput_per_min": (60 * ok / sum(times), "1/min"),
            "peak_rss_mb": (statistics.median(rss_mb), "MB"),
            "ok_frac": ((len(ops) - failed) / len(ops), "frac"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        metrics = traced_metrics(res, docs)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "entries"],
             "spans": res["spans"]}))
        print("spans written to", spans_path)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def traced_metrics(res: dict, docs: dict):
    from spans import layer_metrics, per_op_layers

    ops = res["ops"]
    per_op = per_op_layers(res["spans"])
    traced = [i for i, op in enumerate(ops) if op[1] and op[0] in docs]
    metrics = {key: (value, "ratio" if "ratio" in key else "ms")
               for key, value in res["probe"].items()}
    if not traced:
        return metrics              # no correct traced call to attribute
    n_var = {i: docs[ops[i][0]]["code"]["n"] for i in traced}
    values, shares = layer_metrics({i: per_op[i] for i in traced if i in per_op},
                                   n_var, set(res["installed"]))
    units = {"self_s": "s", "calls": "count", "coverage": "frac",
             "entries_per_s": "1/s", "us_per_var": "us"}
    metrics.update((k, (v, units.get(k.rsplit(".", 1)[1], "count")))
                   for k, v in values.items())
    decomp = [docs[ops[i][0]]["decomposition"] for i in traced]
    metrics["decomp.width"] = (statistics.median(d["width"] for d in decomp),
                               "count")
    for kind in NODE_KINDS:
        metrics[f"decomp.nodes.{kind}"] = (statistics.median(
            d["node_kinds"].get(kind, 0) for d in decomp), "count")
    # an untraced call directly precedes each traced call on the same input
    overhead = [ops[i][2] - ops[i - 1][2] for i in traced]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    print("DP time share per kernel:",
          " ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    print("analyze_s traced:", percentile_line([ops[i][2] for i in traced]))
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(SC_LENGTH))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "trapgraph" / "cli.py").is_file():
        print(f"no trapgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                    # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
