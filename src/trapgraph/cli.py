"""Command-line entry points and machine-readable analysis reports.

Exit codes: 0 success, 1 file/format/parameter errors, 2 validation or
oracle mismatch, 3 work limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

from trapgraph import decomp, dpcore, oracle, tanner, witness

SCHEMA = "trapgraph/1"


def _read_threads_env() -> int:
    # single-threaded engine; the env var is validated for the contract that
    # results do not depend on it
    raw = os.environ.get("TRAPGRAPH_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise SystemExit(f"TRAPGRAPH_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise SystemExit("TRAPGRAPH_THREADS must be >= 0")
    return n


def _load_graph(path: str) -> tanner.TannerGraph:
    try:
        with open(path, "rb") as fh:
            return tanner.parse_alist(fh.read())
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    except tanner.AlistError as exc:
        raise SystemExit(f"{path}: {exc}")


def _load_td(path: str) -> decomp.TreeDecomposition:
    try:
        with open(path, "rb") as fh:
            return decomp.parse_td(fh.read())
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    except decomp.TdFormatError as exc:
        raise SystemExit(f"{path}: {exc}")


def _parse_sc_flag(raw: str) -> tuple[int, int, int, int]:
    parts = raw.split(",")
    if len(parts) != 4:
        raise SystemExit(f"expected r,c,L,w but got {raw!r}")
    try:
        r, c, L, w = (int(x) for x in parts)
    except ValueError:
        raise SystemExit(f"non-integer in {raw!r}")
    return r, c, L, w


def _node_kind_counts(ntd: decomp.NiceTreeDecomposition) -> dict[str, int]:
    return dict(sorted((decomp.KINDS[code], count)
                       for code, count in Counter(ntd.kind).items()))


def _write_output(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write {out}: {exc}")


def cmd_analyze(args) -> int:
    _read_threads_env()
    try:
        b_values = [int(x) for x in args.b.split(",")]
    except ValueError:
        raise SystemExit(f"--b expects a comma-separated integer list, got {args.b!r}")
    if any(b < 0 for b in b_values):
        raise SystemExit("--b values must be >= 0")
    if args.validate_oracle is not None and args.validate_oracle < 0:
        raise SystemExit("--validate-oracle must be >= 0")

    g = _load_graph(args.alist)

    # only a .td file is validated; the built-in routes check their columns
    try:
        if args.td:
            source = f"td:{args.td}"
            td = _load_td(args.td)
            ntd, tw = decomp.make_nice(g, td), decomp.width(td)
            del td                    # the DP reads only the nice form
        elif args.sc_params:
            source = f"sc-params:{args.sc_params}"
            params = tanner.ScLdpcParams(*_parse_sc_flag(args.sc_params),
                                         var_degree=1)
            ntd, tw = decomp.sc_path_nice(g, params)
        else:
            source = "heuristic"
            ntd, tw = decomp.heuristic_nice(g)
    except decomp.InvalidDecompositionError as exc:
        for v in exc.violations:
            print(f"invalid decomposition: {v}", file=sys.stderr)
        return 2
    except ValueError as exc:         # the SC parameters or their window
        raise SystemExit(str(exc))

    # one pass at the largest b answers every smaller b from its root table
    t0 = time.perf_counter()
    res = dpcore.run_dp(g, ntd, max(b_values))
    wall_ms = int((time.perf_counter() - t0) * 1000)
    results = []
    mismatch = False
    for b in b_values:
        dp_ans = res.root_table.answer(b)
        entry = {
            "b": b,
            "a_min": None if dp_ans is None else dp_ans[0],
            "count": None if dp_ans is None else str(dp_ans[1]),
            "wall_time_ms": 0 if args.no_timing else wall_ms,
        }
        if args.witness:
            if dp_ans is not None:
                w_set = witness.extract_witness(g, ntd, b, res.tables)
                entry["witness"] = sorted(w_set)
            else:
                entry["witness"] = None
        if args.validate_oracle is not None and g.n_var <= args.validate_oracle:
            try:
                expected = oracle.brute_force_spectrum(g, b)
            except oracle.WorkLimitExceeded as exc:
                print(f"oracle: {exc}", file=sys.stderr)
                return 3
            got = dp_ans[:2] if dp_ans else None
            if expected != got:
                print(f"ORACLE MISMATCH at b={b}: dp={got} oracle={expected}",
                      file=sys.stderr)
                mismatch = True
        results.append(entry)

    doc = {
        "schema": SCHEMA,
        "code": {"n": g.n_var, "m": g.n_chk, "source": args.alist},
        "decomposition": {
            "source": source,
            "width": tw,
            "node_kinds": _node_kind_counts(ntd),
        },
        "results": results,
    }
    if args.text:
        lines = [f"code: {args.alist} n={g.n_var} m={g.n_chk}",
                 f"decomposition: {source} width={tw}"]
        for r in results:
            if r["a_min"] is None:
                lines.append(f"b={r['b']}: no trapping set")
            else:
                line = f"b={r['b']}: a_min={r['a_min']} count={r['count']}"
                if r.get("witness") is not None:
                    line += " witness=" + ",".join(str(v) for v in r["witness"])
                lines.append(line)
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 2 if mismatch else 0


def cmd_generate(args) -> int:
    r, c, L, w = _parse_sc_flag(args.sc)
    try:
        params = tanner.ScLdpcParams(r, c, L, w, var_degree=args.deg,
                                     seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if w > L:
        print(f"warning: coupling width {w} exceeds coupling length {L}",
              file=sys.stderr)
    g = tanner.generate_sc_ldpc(params)
    _write_output(tanner.serialize_alist(g), args.out)
    if args.emit_td:
        td = decomp.sc_path_decomposition(g, params)
        _write_output(decomp.serialize_td(td), args.emit_td)
    return 0


def cmd_brute(args) -> int:
    if args.a_max < 0:
        raise SystemExit("--a-max must be >= 0")
    if args.b < 0:
        raise SystemExit("--b must be >= 0")
    if args.limit < 1:
        raise SystemExit("--limit must be >= 1")
    g = _load_graph(args.alist)
    try:
        records = oracle.brute_force_enumerate(g, args.a_max, args.b,
                                               work_limit=args.limit)
    except oracle.WorkLimitExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 3
    sys.stdout.write(json.dumps([r.to_json() for r in records]) + "\n")
    return 0


def cmd_decomp(args) -> int:
    g = _load_graph(args.alist)
    if args.action == "heuristic":
        td = decomp.heuristic_decomposition(g)
        _write_output(decomp.serialize_td(td), args.out)
        return 0

    td = _load_td(args.td)
    if args.action == "validate":
        report = decomp.validate(g, td)
        if report.ok:
            print(f"valid, width {decomp.width(td)}")
            return 0
        for v in report.violations:
            print(v)
        return 2

    # nice
    try:
        ntd = decomp.make_nice(g, td)
    except decomp.InvalidDecompositionError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 2
    _write_output(decomp.serialize_td(ntd.as_tree_decomposition()), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trapgraph")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="compute smallest (a,b)-trapping sets")
    pa.add_argument("--alist", required=True)
    src = pa.add_mutually_exclusive_group()
    # without --td or --sc-params the greedy min-fill decomposition is used
    src.add_argument("--td", help="tree decomposition in .td format")
    src.add_argument("--sc-params", metavar="r,c,L,w",
                     help="sliding-window path decomposition for an SC code")
    pa.add_argument("--b", default="0", help="comma-separated b values")
    pa.add_argument("--witness", action="store_true")
    pa.add_argument("--text", action="store_true",
                    help="plain summary instead of the JSON report")
    pa.add_argument("--validate-oracle", type=int, metavar="N",
                    help="cross-check against brute force when n_var <= N")
    pa.add_argument("--no-timing", action="store_true",
                    help="zero the wall-time fields for reproducible output")
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="generate an SC-LDPC code")
    pg.add_argument("--sc", required=True, metavar="r,c,L,w")
    pg.add_argument("--deg", required=True, type=int)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", required=True)
    pg.add_argument("--emit-td")
    pg.set_defaults(func=cmd_generate)

    pb = sub.add_parser("brute", help="exhaustively enumerate trapping sets")
    pb.add_argument("--alist", required=True)
    pb.add_argument("--a-max", required=True, type=int)
    pb.add_argument("--b", required=True, type=int)
    pb.add_argument("--limit", type=int, default=oracle.DEFAULT_WORK_LIMIT)
    pb.set_defaults(func=cmd_brute)

    pd = sub.add_parser("decomp", help="validate or transform decompositions")
    pd.add_argument("action", choices=["validate", "nice", "heuristic"])
    pd.add_argument("--alist", required=True)
    pd.add_argument("--td")
    pd.add_argument("--out")
    pd.set_defaults(func=cmd_decomp)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decomp" and args.action in ("validate", "nice") \
            and not args.td:
        parser.error(f"decomp {args.action} requires --td")
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
