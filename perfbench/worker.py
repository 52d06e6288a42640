"""Child process of the benchmark: one closed-loop client of `trapgraph analyze`.

Usage: worker.py --import-only
       worker.py CONFIG.json RESULT.json

With ``--import-only`` the child times ``import trapgraph.cli`` and prints
the result.  Otherwise it imports the CLI, then calls ``cli.main`` on the
configured inputs in turn, one call after the other, until the configured
seconds have passed.  In a traced run every input is analyzed twice in a
row, first plain and then with per-layer spans, so the two can be compared.
Only ``cli.main`` is timed; reading back and comparing reports is not.
"""

import json
import sys
import time

t_import = time.perf_counter()
import trapgraph.cli as cli  # noqa: E402
t_import = time.perf_counter() - t_import

import ctypes  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

PR_SET_PDEATHSIG = 1


def die_with_parent(parent: int) -> None:
    """Have the kernel kill this process when ``parent`` exits (Linux).

    So a killed benchmark leaves no worker or analyze call running.
    """
    prctl = getattr(ctypes.CDLL(None, use_errno=True), "prctl", None)
    if prctl is None:
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:      # the parent exited before prctl
        os._exit(1)


def run_op(argv: list[str], out: str, tracer=None):
    """One analyze call in a child forked from this process.

    Returns (seconds, status, report bytes or None, peak RSS in KB, spans).
    The child gives each call its own heap and its own ``ru_maxrss``, as a
    separate `trapgraph analyze` process would have, without importing
    again.  This process starts no threads, so forking it is safe.
    """
    op_path = out + ".op"
    for path in (out, op_path):
        if os.path.exists(path):
            os.remove(path)
    parent = os.getpid()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        die_with_parent(parent)
        _call_in_child(argv, out, op_path, tracer)
    _, wait_status, usage = os.wait4(pid, 0)
    secs = time.perf_counter() - t0
    try:
        with open(op_path) as fh:
            op = json.load(fh)
    except (OSError, ValueError):
        return secs, f"child ended with wait status {wait_status}", None, \
            usage.ru_maxrss, []
    if op["rc"] != 0:
        return op["secs"], f"exit {op['rc']}", None, usage.ru_maxrss, []
    try:
        with open(out, "rb") as fh:
            report = fh.read()
    except OSError:
        return op["secs"], "no report", None, usage.ru_maxrss, op["spans"]
    return op["secs"], "ok", report, usage.ru_maxrss, op["spans"]


def _call_in_child(argv, out, op_path, tracer) -> None:
    """Time ``cli.main`` and write what the parent needs; never returns."""
    code = 1
    try:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv + ["--out", out])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
        secs = time.perf_counter() - t0
        with open(op_path, "w") as fh:
            json.dump({"secs": secs,
                       "rc": rc if isinstance(rc, int) else str(rc),
                       "spans": [] if tracer is None else tracer.spans}, fh)
        code = 0
    finally:
        sys.stderr.flush()
        os._exit(code)


def probe_scaling(r: int, c: int, w: int, degree: int,
                  seed: int) -> dict[str, float]:
    """b=1 DP time on the structural decomposition at L=160 and L=640.

    The north-star's flat-cost-per-variable test on the SC family of the SC
    workloads; each size is run three times and the median kept.
    """
    from trapgraph import decomp, dpcore, tanner

    out = {}
    for L in (160, 640):
        p = tanner.ScLdpcParams(r, c, L, w, var_degree=degree, seed=seed)
        g = tanner.generate_sc_ldpc(p)
        ntd = decomp.make_nice(g, decomp.sc_path_decomposition(g, p))
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            dpcore.run_dp(g, ntd, 1)
            times.append(time.perf_counter() - t0)
        out[f"dpcore.b1_dp_ms.L{L}"] = 1e3 * statistics.median(times)
    out["dpcore.us_per_var.ratio_640_160"] = (
        out["dpcore.b1_dp_ms.L640"] / 4 / out["dpcore.b1_dp_ms.L160"])
    return out


def main() -> None:
    die_with_parent(int(os.environ["PERFBENCH_PARENT"]))
    if sys.argv[1:] == ["--import-only"]:
        print(json.dumps({"import_s": t_import, "file": cli.__file__}))
        return
    with open(sys.argv[1]) as fh:
        cfg = json.load(fh)
    inputs, out = cfg["inputs"], cfg["out"]
    traced = cfg["trace"]
    if traced:
        from spans import Tracer, wrappable

    ops = []            # [input index, traced, seconds, status, peak RSS KB]
    spans: list[list] = []
    first: dict[int, bytes] = {}
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < cfg["seconds"]:
        idx = i % len(inputs)
        for with_spans in ((False, True) if traced else (False,)):
            tracer = Tracer(len(ops)) if with_spans else None
            secs, status, report, rss_kb, op_spans = run_op(inputs[idx], out,
                                                           tracer)
            if report is not None:
                if idx not in first:
                    first[idx] = report
                elif report != first[idx]:
                    status = "report differs from the first for this input"
            ops.append([idx, with_spans, secs, status, rss_kb])
            # the child numbered parents within its own span list
            base = len(spans)
            for span in op_spans:
                if span[3] >= 0:
                    span[3] += base
            spans += op_spans
        i += 1

    result = {
        "file": cli.__file__,
        "ops": ops,
        "reports": {str(k): v.decode() for k, v in first.items()},
    }
    if traced:
        result["spans"] = spans
        result["installed"] = sorted(name for *_, name, _ in wrappable())
        try:
            result["probe"] = probe_scaling(*cfg["probe"])
        except Exception:
            traceback.print_exc()
            result["probe"] = {}
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
