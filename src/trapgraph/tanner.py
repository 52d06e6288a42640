"""Tanner graphs, alist I/O, odd-neighborhood computation, and SC-LDPC generation.

Variable and check nodes live in separate dense id namespaces (variables
0..n_var-1, checks 0..n_chk-1).  A combined namespace, with checks offset by
n_var, is used only at file-format boundaries.  Internally, sets of variables
or checks are frequently handled as integer bitmasks (bit i = node i).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple


class AlistError(ValueError):
    """Malformed alist input.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite graph of an LDPC code.

    ``chk_adj[c]`` is the sorted tuple of variable ids adjacent to check c;
    ``var_adj`` is the exact transpose.  Instances are immutable.
    """

    n_var: int
    n_chk: int
    chk_adj: tuple[tuple[int, ...], ...]
    var_adj: tuple[tuple[int, ...], ...]

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

    @property
    def n_edges(self) -> int:
        return sum(len(r) for r in self.chk_adj)


@dataclass(frozen=True)
class ScLdpcParams:
    """Parameters of a spatially coupled LDPC ensemble.

    ``coupling_len`` variable blocks of ``base_cols`` columns each; check
    blocks of ``base_rows`` rows; every variable connects to checks within
    the ``coupling_width`` consecutive check blocks of its window.
    """

    base_rows: int
    base_cols: int
    coupling_len: int
    coupling_width: int
    var_degree: int
    seed: int = 0

    def __post_init__(self):
        if self.base_rows < 1 or self.base_cols < 1:
            raise ValueError("base matrix dimensions must be >= 1")
        if self.coupling_len < 1:
            raise ValueError("coupling length must be >= 1")
        if self.coupling_width < 1:
            raise ValueError("coupling width must be >= 1")
        if not 1 <= self.var_degree <= self.base_rows * self.coupling_width:
            raise ValueError(
                f"variable degree {self.var_degree} must be in "
                f"[1, {self.base_rows * self.coupling_width}]")

    @property
    def n_var(self) -> int:
        return self.base_cols * self.coupling_len

    @property
    def n_chk(self) -> int:
        return self.base_rows * (self.coupling_len + self.coupling_width - 1)


def gamma_odd(g: TannerGraph, s: Iterable[int],
              restrict: Iterable[int] | None = None) -> set[int]:
    """Check nodes with an odd number of neighbors in the variable set ``s``.

    When ``restrict`` is given, the result is intersected with it.  The empty
    set maps to the empty set.
    """
    x = 0
    for v in s:
        if not 0 <= v < g.n_var:
            raise ValueError(f"variable id {v} out of range")
        x ^= g.var_masks[v]
    if restrict is not None:
        r = 0
        for c in restrict:
            if not 0 <= c < g.n_chk:
                raise ValueError(f"check id {c} out of range")
            r |= 1 << c
        x &= r
    return set(bit_ids(x))


def gamma_odd_mask(var_masks, q_mask: int, restrict_mask: int) -> int:
    """Bitmask variant of :func:`gamma_odd`."""
    x = 0
    while q_mask:
        low = q_mask & -q_mask
        x ^= var_masks[low.bit_length() - 1]
        q_mask ^= low
    return x & restrict_mask


class EdgeParity(NamedTuple):
    count: int
    odd: bool


def edge_count_parity(g: TannerGraph, c: int, q: Iterable[int]) -> EdgeParity:
    """Number of edges between check ``c`` and variable set ``q``, plus parity.

    A count of zero is even.
    """
    if not 0 <= c < g.n_chk:
        raise ValueError(f"check id {c} out of range")
    qm = 0
    for v in q:
        if not 0 <= v < g.n_var:
            raise ValueError(f"variable id {v} out of range")
        qm |= 1 << v
    count = (g.chk_masks[c] & qm).bit_count()
    return EdgeParity(count, bool(count & 1))


def bit_ids(mask: int):
    """Ids of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_alist(text: str | bytes) -> TannerGraph:
    """Parse a parity-check matrix in MacKay alist format.

    Zero padding in the neighbor lists is tolerated and stripped.  The column
    and row lists are cross-checked against each other.
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
            return [int(tok) for tok in lines[i].split()]
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

    cols: list[list[int]] = []
    for j in range(n):
        lineno = 5 + j
        entries = [x for x in ints(4 + j, f"column {j} list") if x != 0]
        if len(entries) != col_deg[j]:
            raise AlistError(
                f"column {j}: {len(entries)} entries, degree says {col_deg[j]}",
                lineno)
        for x in entries:
            if not 1 <= x <= m:
                raise AlistError(f"column {j}: check id {x} out of range 1..{m}",
                                 lineno)
        if len(set(entries)) != len(entries):
            raise AlistError(f"column {j}: duplicate check id", lineno)
        cols.append(sorted(x - 1 for x in entries))

    rows: list[list[int]] = []
    for i in range(m):
        lineno = 5 + n + i
        entries = [x for x in ints(4 + n + i, f"row {i} list") if x != 0]
        if len(entries) != row_deg[i]:
            raise AlistError(
                f"row {i}: {len(entries)} entries, degree says {row_deg[i]}",
                lineno)
        for x in entries:
            if not 1 <= x <= n:
                raise AlistError(f"row {i}: variable id {x} out of range 1..{n}",
                                 lineno)
        if len(set(entries)) != len(entries):
            raise AlistError(f"row {i}: duplicate variable id", lineno)
        rows.append(sorted(x - 1 for x in entries))

    # row and column views must transpose into each other
    from_cols = sorted((c, v) for v, cs in enumerate(cols) for c in cs)
    from_rows = sorted((c, v) for c, vs in enumerate(rows) for v in vs)
    if from_cols != from_rows:
        raise AlistError("row lists and column lists are inconsistent", 5 + n)

    return TannerGraph(n, m, tuple(tuple(r) for r in rows),
                       tuple(tuple(c) for c in cols))


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
