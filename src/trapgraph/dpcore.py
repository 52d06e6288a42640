"""Sparse dynamic program over a rooted nice tree decomposition.

Per nice node a table maps keys (I, Q, d) to (f, g, w): I is the bitmask
of odd checks inside the bag, Q the bitmask of partial-trapping-set members
inside the bag, d the number of already-forgotten odd checks; f is the
minimum partial-set size, g the exact count of minimizers and w the variable
bitmask of one minimizer, so the root entry carries a witness.  Absent keys
mean (+inf, 0).  Counts are Python ints, so arbitrary precision.

The b=0 run is simply the d-pinned-to-0 slice of the general recurrence.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from trapgraph.decomp import (
    INTRO_CHK,
    INTRO_VAR,
    FORGET_CHK,
    FORGET_VAR,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
)
from trapgraph.tanner import TannerGraph, bit_ids, gamma_odd_mask

Key = tuple[int, int, int]          # (I mask, Q mask, d)
Entry = tuple[int, int, int]        # (f, g, w)


class DPTable:
    """Sparse table of one nice node: realizable (I, Q, d) -> (f, g, w)."""

    __slots__ = ("bag_v", "bag_c", "entries")

    def __init__(self, bag_v: int, bag_c: int,
                 entries: dict[Key, Entry] | None = None):
        self.bag_v = bag_v
        self.bag_c = bag_c
        self.entries = entries if entries is not None else {}

    def get(self, key: Key) -> Entry | None:
        """(f, g, w) for a key, or None for the implicit (+inf, 0) state."""
        return self.entries.get(key)

    def to_json(self) -> dict:
        return {
            "bag_v": list(bit_ids(self.bag_v)),
            "bag_c": list(bit_ids(self.bag_c)),
            "entries": [
                {"I": list(bit_ids(i)), "Q": list(bit_ids(q)), "d": d,
                 "f": f, "g": str(g), "w": list(bit_ids(w))}
                for (i, q, d), (f, g, w) in sorted(self.entries.items())
            ],
        }


def _merge(entries: dict[Key, Entry], key: Key, f: int, g: int,
           w: int) -> None:
    # strict f-minimum; counts add only on ties, where the first minimizer
    # reached is kept, so the carried witness follows the fixed post-order
    old = entries.get(key)
    if old is None or f < old[0]:
        entries[key] = (f, g, w)
    elif f == old[0]:
        entries[key] = (f, old[1] + g, old[2])


def leaf_table() -> DPTable:
    """Empty table: every state is implicitly (+inf, 0)."""
    return DPTable(0, 0)


def introduce_variable(child: DPTable, v: int, new_bag_v: int,
                       g: TannerGraph) -> DPTable:
    vb = 1 << v
    if child.bag_v & vb or new_bag_v != child.bag_v | vb:
        raise ValueError(f"introduce-variable bag mismatch for v{v}")
    iv = g.var_masks[v] & child.bag_c
    entries = dict(child.entries)
    # extensions add v to the partial set; a fully-forgotten codeword state
    # (0,0,0) is not extended, per the base case below
    for (i, q, d), (f, cnt, w) in child.entries.items():
        if (i, q, d) != (0, 0, 0):
            entries[(i ^ iv, q | vb, d)] = (f + 1, cnt, w | vb)
    entries[(iv, vb, 0)] = (1, 1, vb)
    return DPTable(new_bag_v, child.bag_c, entries)


def forget_variable(child: DPTable, v: int, new_bag_v: int) -> DPTable:
    vb = 1 << v
    if not child.bag_v & vb or new_bag_v != child.bag_v ^ vb:
        raise ValueError(f"forget-variable bag mismatch for v{v}")
    entries: dict[Key, Entry] = {}
    for (i, q, d), (f, cnt, w) in child.entries.items():
        _merge(entries, (i, q & ~vb, d), f, cnt, w)
    return DPTable(new_bag_v, child.bag_c, entries)


def introduce_check(child: DPTable, c: int, new_bag_c: int,
                    g: TannerGraph) -> DPTable:
    cb = 1 << c
    if child.bag_c & cb or new_bag_c != child.bag_c | cb:
        raise ValueError(f"introduce-check bag mismatch for c{c}")
    cmask = g.chk_masks[c]
    entries: dict[Key, Entry] = {}
    for (i, q, d), ent in child.entries.items():
        if (cmask & q).bit_count() & 1:
            entries[(i | cb, q, d)] = ent
        else:
            entries[(i, q, d)] = ent
    return DPTable(child.bag_v, new_bag_c, entries)


def forget_check(child: DPTable, c: int, new_bag_c: int, b: int) -> DPTable:
    cb = 1 << c
    if not child.bag_c & cb or new_bag_c != child.bag_c ^ cb:
        raise ValueError(f"forget-check bag mismatch for c{c}")
    entries: dict[Key, Entry] = {}
    for (i, q, d), (f, cnt, w) in child.entries.items():
        if i & cb:
            if d + 1 > b:
                continue
            _merge(entries, (i ^ cb, q, d + 1), f, cnt, w)
        else:
            _merge(entries, (i, q, d), f, cnt, w)
    return DPTable(child.bag_v, new_bag_c, entries)


def join(left: DPTable, right: DPTable, bag_v: int, bag_c: int,
         g: TannerGraph, b: int) -> DPTable:
    if (left.bag_v, left.bag_c) != (bag_v, bag_c) or \
       (right.bag_v, right.bag_c) != (bag_v, bag_c):
        raise ValueError("join children disagree on the bag")
    var_masks = g.var_masks
    entries: dict[Key, Entry] = {}

    right_by_q: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for (i2, q2, d2), (f2, g2, w2) in right.entries.items():
        right_by_q[q2].append((i2, d2, f2, g2, w2))

    gamma_cache: dict[int, int] = {}
    for (i1, q, d1), (f1, g1, w1) in left.entries.items():
        partners = right_by_q.get(q)
        if not partners:
            continue
        gam = gamma_cache.get(q)
        if gam is None:
            gam = gamma_cache[q] = gamma_odd_mask(var_masks, q, bag_c)
        qsize = q.bit_count()
        base = i1 ^ gam
        for i2, d2, f2, g2, w2 in partners:
            d = d1 + d2
            if d > b:
                continue
            _merge(entries, (base ^ i2, q, d), f1 + f2 - qsize, g1 * g2,
                   w1 | w2)

    # a partial set living entirely in one subtree survives verbatim,
    # but only when it is disjoint from the bag's variables
    for (i, q, d), ent in left.entries.items():
        if q == 0:
            _merge(entries, (i, q, d), *ent)
    for (i, q, d), ent in right.entries.items():
        if q == 0:
            _merge(entries, (i, q, d), *ent)
    return DPTable(bag_v, bag_c, entries)


@dataclass
class DPResult:
    """Answer at the requested b, plus the root table it was read from.

    The root table also holds ``(0, 0, b')`` for every ``b' <= b`` with the
    value a run at ``b'`` would give, since d never decreases toward the root.
    ``tables`` is indexed by nice node; only the root's slot is filled unless
    the run retained every table.
    """

    a_min: int | None
    count: int | None
    root_table: DPTable
    tables: list[DPTable | None]

    @property
    def found(self) -> bool:
        return self.a_min is not None


def run_dp(g: TannerGraph, ntd: NiceTreeDecomposition, b: int,
           retain_tables: bool = False) -> DPResult:
    """Process nice nodes in post-order and read out the root state (0, 0, b).

    Child tables are freed as soon as they are consumed unless
    ``retain_tables`` is set, which only serves to inspect them: the witness
    is carried in the root table either way.
    """
    if b < 0:
        raise ValueError("b must be >= 0")
    if ntd.n_var != g.n_var or ntd.n_chk != g.n_chk:
        raise ValueError("decomposition does not match the graph")

    tables: list[DPTable | None] = [None] * len(ntd.nodes)
    for idx, node in enumerate(ntd.nodes):
        kind = node.kind
        if kind == LEAF:
            table = leaf_table()
        elif kind == JOIN:
            c1, c2 = node.children
            table = join(tables[c1], tables[c2], node.bag_v, node.bag_c, g, b)
        else:
            child = tables[node.children[0]]
            if kind == INTRO_VAR:
                table = introduce_variable(child, node.elem, node.bag_v, g)
            elif kind == FORGET_VAR:
                table = forget_variable(child, node.elem, node.bag_v)
            elif kind == INTRO_CHK:
                table = introduce_check(child, node.elem, node.bag_c, g)
            elif kind == FORGET_CHK:
                table = forget_check(child, node.elem, node.bag_c, b)
            else:
                raise ValueError(f"unknown node kind {kind!r}")
        tables[idx] = table
        if not retain_tables:
            for ch in node.children:
                tables[ch] = None

    root_table = tables[ntd.root]
    root_entry = root_table.entries.get((0, 0, b))
    if root_entry is None:
        return DPResult(None, None, root_table, tables)
    return DPResult(root_entry[0], root_entry[1], root_table, tables)


def min_distance(g: TannerGraph, ntd: NiceTreeDecomposition) -> DPResult:
    """Minimum Hamming distance and number of minimum-weight codewords.

    The b=0 run; ``a_min`` is None for the zero code.
    """
    return run_dp(g, ntd, 0)
