"""Tanner graphs, alist I/O, odd-neighborhood computation, and SC-LDPC generation.

Variable and check nodes live in separate dense id namespaces (variables
0..n_var-1, checks 0..n_chk-1).  A combined namespace, with checks offset by
n_var, is used only at file-format boundaries.  Internally, sets of variables
or checks are frequently handled as integer bitmasks (bit i = node i).
"""

from __future__ import annotations

import random
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple


class AlistError(ValueError):
    """Malformed alist input.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class _TannerFields(NamedTuple):
    n_var: int
    n_chk: int
    chk_adj: tuple[tuple[int, ...], ...]
    var_adj: tuple[tuple[int, ...], ...]


class TannerGraph(_TannerFields):
    """Bipartite graph of an LDPC code.

    ``chk_adj[c]`` is the sorted tuple of variable ids adjacent to check c;
    ``var_adj`` is the exact transpose.  Instances are immutable named
    tuples, equal and hashed by their fields; the instance dict holds only
    the masks, cached on first read.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"TannerGraph is immutable, cannot set {name!r}")

    @staticmethod
    def from_check_adj(n_var: int, n_chk: int,
                       chk_adj: Iterable[Iterable[int]]) -> "TannerGraph":
        rows = []
        cols: list[list[int]] = [[] for _ in range(n_var)]
        for c, nbrs in enumerate(chk_adj):
            nbrs = list(nbrs)
            seen = sorted(set(nbrs))
            if len(seen) != len(nbrs):
                raise ValueError(f"check {c}: duplicate neighbor")
            for v in seen:
                if not 0 <= v < n_var:
                    raise ValueError(f"check {c}: variable id {v} out of range")
                cols[v].append(c)
            rows.append(tuple(seen))
        if len(rows) != n_chk:
            raise ValueError(f"expected {n_chk} check rows, got {len(rows)}")
        return TannerGraph(n_var, n_chk, tuple(rows),
                           tuple(tuple(col) for col in cols))

    @staticmethod
    def from_matrix(h: Iterable[Iterable[int]]) -> "TannerGraph":
        """Build from a dense 0/1 parity-check matrix (rows = checks)."""
        rows = [list(r) for r in h]
        n_chk = len(rows)
        n_var = len(rows[0]) if rows else 0
        for c, r in enumerate(rows):
            if len(r) != n_var:
                raise ValueError(f"row {c} has length {len(r)}, "
                                 f"row 0 has {n_var}")
        adj = [[v for v, x in enumerate(r) if x % 2] for r in rows]
        return TannerGraph.from_check_adj(n_var, n_chk, adj)

    @cached_property
    def var_masks(self) -> tuple[int, ...]:
        """Per variable, the bitmask of adjacent check ids."""
        masks = [0] * self.n_var
        for v, nbrs in enumerate(self.var_adj):
            m = 0
            for c in nbrs:
                m |= 1 << c
            masks[v] = m
        return tuple(masks)

    @cached_property
    def chk_masks(self) -> tuple[int, ...]:
        """Per check, the bitmask of adjacent variable ids."""
        masks = [0] * self.n_chk
        for c, nbrs in enumerate(self.chk_adj):
            m = 0
            for v in nbrs:
                m |= 1 << v
            masks[c] = m
        return tuple(masks)


class _ScLdpcFields(NamedTuple):
    base_rows: int
    base_cols: int
    coupling_len: int
    coupling_width: int
    var_degree: int
    seed: int = 0


class ScLdpcParams(_ScLdpcFields):
    """Parameters of a spatially coupled LDPC ensemble, an immutable named
    tuple whose constructor checks them.

    ``coupling_len`` variable blocks of ``base_cols`` columns each; check
    blocks of ``base_rows`` rows; every variable connects to checks within
    the ``coupling_width`` consecutive check blocks of its window.
    """

    __slots__ = ()

    def __new__(cls, base_rows: int, base_cols: int, coupling_len: int,
                coupling_width: int, var_degree: int, seed: int = 0):
        if base_rows < 1 or base_cols < 1:
            raise ValueError("base matrix dimensions must be >= 1")
        if coupling_len < 1:
            raise ValueError("coupling length must be >= 1")
        if coupling_width < 1:
            raise ValueError("coupling width must be >= 1")
        if not 1 <= var_degree <= base_rows * coupling_width:
            raise ValueError(f"variable degree {var_degree} must be in "
                             f"[1, {base_rows * coupling_width}]")
        return super().__new__(cls, base_rows, base_cols, coupling_len,
                               coupling_width, var_degree, seed)

    @property
    def n_var(self) -> int:
        return self.base_cols * self.coupling_len

    @property
    def n_chk(self) -> int:
        return self.base_rows * (self.coupling_len + self.coupling_width - 1)


def gamma_odd(g: TannerGraph, s: Iterable[int]) -> set[int]:
    """Check nodes with an odd number of neighbors in the variable set ``s``.

    The empty set maps to the empty set.
    """
    x = 0
    for v in s:
        if not 0 <= v < g.n_var:
            raise ValueError(f"variable id {v} out of range")
        x ^= g.var_masks[v]
    return set(bit_ids(x))


def bit_ids(mask: int):
    """Ids of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _list_error(text: str, n: int, m: int, col_deg: list[int],
                row_deg: list[int]) -> AlistError:
    """The first fault of the neighbor lists, read line by line: a missing
    line, a non-integer token, a wrong degree, an id out of range, a
    duplicate id, or else row and column lists that do not transpose."""
    body = text.splitlines()[4:4 + n + m]
    for j in range(n + m):
        if j < n:
            what, i, deg, top, kind = "column", j, col_deg[j], m, "check"
        else:
            what, i, deg, top, kind = "row", j - n, row_deg[j - n], n, "variable"
        lineno = 5 + j
        if j >= len(body):
            return AlistError(f"unexpected end of input, expected {what} {i} "
                              "list", lineno)
        try:
            entries = [x for x in map(int, body[j].split()) if x != 0]
        except ValueError:
            return AlistError(f"non-integer token in {what} {i} list", lineno)
        if len(entries) != deg:
            return AlistError(f"{what} {i}: {len(entries)} entries, degree "
                              f"says {deg}", lineno)
        for x in entries:
            if not 1 <= x <= top:
                return AlistError(f"{what} {i}: {kind} id {x} out of range "
                                  f"1..{top}", lineno)
        if len(set(entries)) != len(entries):
            return AlistError(f"{what} {i}: duplicate {kind} id", lineno)
    return AlistError("row lists and column lists are inconsistent", 5 + n)


def parse_alist(text: str | bytes) -> TannerGraph:
    """Parse a parity-check matrix in MacKay alist format.

    Zero padding in the neighbor lists is tolerated and stripped.  The
    declared maximum degrees must be the largest listed ones, and the column
    and row lists are cross-checked against each other.

    The neighbor lists are checked in bulk: each line is replaced, in
    place, by the sorted tuple of its ids that the graph keeps, so lines
    and tuples are never all alive at once; degrees, the id floor, row
    ids and row duplicates are compared list-wide; and the lists
    transpose iff every row entry (v, c) is in column v and the columns
    hold as many entries as the rows.  Only when a bulk check fails are
    the lines split again and read one by one, to name the first fault.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise AlistError(f"non-ASCII byte 0x{text[exc.start]:02x}",
                             text.count(b"\n", 0, exc.start) + 1) from None
    lines = text.splitlines()

    def ints(i: int, what: str) -> list[int]:
        if i >= len(lines):
            raise AlistError(f"unexpected end of input, expected {what}", i + 1)
        try:
            return list(map(int, lines[i].split()))
        except ValueError:
            raise AlistError(f"non-integer token in {what}", i + 1) from None

    header = ints(0, "header 'n m'")
    if len(header) != 2 or header[0] < 0 or header[1] < 0:
        raise AlistError("header must be two non-negative integers 'n m'", 1)
    n, m = header
    maxdeg = ints(1, "max degrees")
    if len(maxdeg) != 2:
        raise AlistError("expected 'max_col_degree max_row_degree'", 2)
    col_deg = ints(2, "column degrees")
    if len(col_deg) != n:
        raise AlistError(f"expected {n} column degrees, got {len(col_deg)}", 3)
    row_deg = ints(3, "row degrees")
    if len(row_deg) != m:
        raise AlistError(f"expected {m} row degrees, got {len(row_deg)}", 4)
    largest = [max(col_deg, default=0), max(row_deg, default=0)]
    if maxdeg != largest:
        raise AlistError(f"max degrees {maxdeg[0]} {maxdeg[1]}, but the "
                         f"listed degrees reach {largest[0]} {largest[1]}", 2)

    body = lines[4:4 + n + m]         # column lists, then row lists
    del lines
    # 0-based ids; zero padding turns into -1.  Canonical tokens map to
    # ids shared through one table, not one new int per token; any other
    # token (leading zeros, a sign, underscores, out of range) takes int()
    ids = {str(t): t - 1 for t in range(max(n, m) + 1)}.__getitem__
    try:
        for j, line in enumerate(body):
            body[j] = tuple(sorted(map(ids, line.split())))
    except KeyError:
        body = text.splitlines()[4:4 + n + m]
        dec = (-1).__add__
        try:
            for j, line in enumerate(body):
                body[j] = tuple(sorted(map(dec, map(int, line.split()))))
        except ValueError:
            raise _list_error(text, n, m, col_deg, row_deg) from None
    del ids
    # each list is sorted: its first and last ids are its extremes
    low = min(map(itemgetter(0), filter(None, body)), default=0)
    if low == -1:
        for j, ids in enumerate(body):
            body[j] = tuple(filter((-1).__ne__, ids))
        low = min(map(itemgetter(0), filter(None, body)), default=0)
    cols, rows = body[:n], body[n:]
    if not (list(map(len, body)) == col_deg + row_deg and low >= 0
            and max(map(itemgetter(-1), filter(None, rows)), default=-1) < n
            and list(map(len, map(set, rows))) == row_deg
            and sum(col_deg) == sum(row_deg)
            and all(c in cols[v] for c, row in enumerate(rows) for v in row)):
        raise _list_error(text, n, m, col_deg, row_deg)
    return TannerGraph(n, m, tuple(rows), tuple(cols))


def serialize_alist(g: TannerGraph) -> str:
    """Canonical alist text: sorted neighbor lists, no zero padding."""
    out = [f"{g.n_var} {g.n_chk}"]
    max_col = max((len(a) for a in g.var_adj), default=0)
    max_row = max((len(a) for a in g.chk_adj), default=0)
    out.append(f"{max_col} {max_row}")
    out.append(" ".join(str(len(a)) for a in g.var_adj))
    out.append(" ".join(str(len(a)) for a in g.chk_adj))
    for nbrs in g.var_adj:
        out.append(" ".join(str(c + 1) for c in nbrs))
    for nbrs in g.chk_adj:
        out.append(" ".join(str(v + 1) for v in nbrs))
    return "\n".join(out) + "\n"


def generate_sc_ldpc(p: ScLdpcParams) -> TannerGraph:
    """Random spatially coupled LDPC code, deterministic for a fixed seed.

    Each variable of block j draws ``var_degree`` distinct checks uniformly
    without replacement from the checks of blocks j..j+w-1.
    """
    rng = random.Random(p.seed)
    r, w = p.base_rows, p.coupling_width
    chk_adj: list[list[int]] = [[] for _ in range(p.n_chk)]
    for j in range(p.coupling_len):
        window = range(j * r, (j + w) * r)
        for i in range(p.base_cols):
            v = j * p.base_cols + i
            for c in rng.sample(window, p.var_degree):
                chk_adj[c].append(v)
    return TannerGraph.from_check_adj(p.n_var, p.n_chk, chk_adj)
