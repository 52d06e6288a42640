"""Sparse dynamic program over a rooted nice tree decomposition.

Per nice node a table maps a state (I, Q, d) to (f, g, w): I is the set of
odd checks inside the bag, Q the set of partial-trapping-set members inside
the bag, d the number of already-forgotten odd checks; f is the minimum
partial-set size, g the exact count of minimizers and w the variable bitmask
of one minimizer, so the root entry carries a witness.  Absent states mean
(+inf, 0).  Counts are Python ints, so arbitrary precision.

Table keys are bag-local: ``make_nice`` gives every bag element a small
slot number (``NiceNode.slot``), and a key packs I over the check slots, Q
over the variable slots above them and d above both, into one int below
2^(kc+kv)*(b+1), where kc and kv are the decomposition's check and variable
slot counts.  The cost of a key operation therefore does not grow with the
code length; only the carried minimizer w is a global-id bitmask.
``DPTable.get`` and ``DPTable.to_json`` translate through the table's slot
layout, so callers see global-id masks.

The b=0 run is simply the d-pinned-to-0 slice of the general recurrence.
"""

from __future__ import annotations

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

Key = tuple[int, int, int]          # (I mask, Q mask, d) over global ids
Entry = tuple[int, int, int]        # (f, g, w)


class DPTable:
    """Sparse table of one nice node: realizable packed key -> (f, g, w).

    ``var_at[s]`` and ``chk_at[s]`` are the variable and check at slot s, or
    -1 for a free slot.  A key is ``I | Q << kc | d << (kc + kv)`` with I
    and Q over slots, kc = len(chk_at) and kv = len(var_at).  ``get`` and
    ``to_json`` take and give global-id masks instead.
    """

    __slots__ = ("var_at", "chk_at", "entries")

    def __init__(self, var_at: tuple[int, ...], chk_at: tuple[int, ...],
                 entries: dict[int, Entry] | None = None):
        self.var_at = var_at
        self.chk_at = chk_at
        self.entries = entries if entries is not None else {}

    def encode(self, key: Key) -> int | None:
        """Packed form of a global-id (I, Q, d), or None outside the bag."""
        i, q, d = key
        kc = len(self.chk_at)
        packed = d << (kc + len(self.var_at))
        for s, c in enumerate(self.chk_at):
            if c >= 0 and i >> c & 1:
                i ^= 1 << c
                packed |= 1 << s
        for s, v in enumerate(self.var_at, kc):
            if v >= 0 and q >> v & 1:
                q ^= 1 << v
                packed |= 1 << s
        return None if i or q or d < 0 else packed

    def decode(self, packed: int) -> Key:
        """Global-id (I, Q, d) of a packed key."""
        kc = len(self.chk_at)
        i = q = 0
        for s, c in enumerate(self.chk_at):
            if packed >> s & 1:
                i |= 1 << c
        for s, v in enumerate(self.var_at, kc):
            if packed >> s & 1:
                q |= 1 << v
        return i, q, packed >> (kc + len(self.var_at))

    def get(self, key: Key) -> Entry | None:
        """(f, g, w) for a global-id key, or None for (+inf, 0)."""
        packed = self.encode(key)
        return None if packed is None else self.entries.get(packed)

    def to_json(self) -> dict:
        states = sorted((self.decode(k), ent) for k, ent in self.entries.items())
        return {
            "bag_v": sorted(v for v in self.var_at if v >= 0),
            "bag_c": sorted(c for c in self.chk_at if c >= 0),
            "entries": [
                {"I": list(bit_ids(i)), "Q": list(bit_ids(q)), "d": d,
                 "f": f, "g": str(g), "w": list(bit_ids(w))}
                for (i, q, d), (f, g, w) in states
            ],
        }


def _set_slot(layout: tuple[int, ...], slot: int, x: int) -> tuple[int, ...]:
    return layout[:slot] + (x,) + layout[slot + 1:]


def _slot_mask(layout: tuple[int, ...], adj: tuple[int, ...],
               offset: int = 0) -> int:
    """Bit ``offset + s`` for every slot s whose element is in ``adj``."""
    mask = 0
    for s, x in enumerate(layout, offset):
        if x in adj:
            mask |= 1 << s
    return mask


# The merging kernels inline one rule: keep the strict f-minimum, add counts
# on ties and keep the first minimizer reached there, so the carried witness
# follows the fixed post-order.

def leaf_table(var_slots: int, chk_slots: int) -> DPTable:
    """Empty table: every state is implicitly (+inf, 0)."""
    return DPTable((-1,) * var_slots, (-1,) * chk_slots)


def introduce_variable(child: DPTable, v: int, slot: int,
                       g: TannerGraph) -> DPTable:
    var_at, chk_at = child.var_at, child.chk_at
    if var_at[slot] != -1 or v in var_at:
        raise ValueError(f"introduce-variable bag mismatch for v{v}")
    flip = 1 << (len(chk_at) + slot) | _slot_mask(chk_at, g.var_adj[v])
    vb = 1 << v
    entries = dict(child.entries)
    # extensions add v to the partial set; a fully-forgotten codeword state
    # (key 0) is not extended, per the base case below
    entries.update({k ^ flip: (f + 1, cnt, w | vb)
                    for k, (f, cnt, w) in child.entries.items() if k})
    entries[flip] = (1, 1, vb)
    return DPTable(_set_slot(var_at, slot, v), chk_at, entries)


def forget_variable(child: DPTable, v: int, slot: int) -> DPTable:
    if child.var_at[slot] != v:
        raise ValueError(f"forget-variable bag mismatch for v{v}")
    keep = ~(1 << (len(child.chk_at) + slot))
    entries: dict[int, Entry] = {}
    get = entries.get
    for k, ent in child.entries.items():
        k &= keep
        old = get(k)
        if old is None or ent[0] < old[0]:
            entries[k] = ent
        elif ent[0] == old[0]:
            entries[k] = (old[0], old[1] + ent[1], old[2])
    return DPTable(_set_slot(child.var_at, slot, -1), child.chk_at, entries)


def introduce_check(child: DPTable, c: int, slot: int,
                    g: TannerGraph) -> DPTable:
    var_at, chk_at = child.var_at, child.chk_at
    if chk_at[slot] != -1 or c in chk_at:
        raise ValueError(f"introduce-check bag mismatch for c{c}")
    cmask = _slot_mask(var_at, g.chk_adj[c], len(chk_at))
    cb = 1 << slot
    entries = {(k | cb if (k & cmask).bit_count() & 1 else k): ent
               for k, ent in child.entries.items()}
    return DPTable(var_at, _set_slot(chk_at, slot, c), entries)


def forget_check(child: DPTable, c: int, slot: int, b: int) -> DPTable:
    chk_at = child.chk_at
    if chk_at[slot] != c:
        raise ValueError(f"forget-check bag mismatch for c{c}")
    cb = 1 << slot
    shift = len(chk_at) + len(child.var_at)
    step = (1 << shift) - cb          # clears the check's bit, adds 1 to d
    full = b << shift                 # keys at or above it have d == b
    entries: dict[int, Entry] = {}
    get = entries.get
    for k, ent in child.entries.items():
        if k & cb:
            if k >= full:
                continue
            k += step
        old = get(k)
        if old is None or ent[0] < old[0]:
            entries[k] = ent
        elif ent[0] == old[0]:
            entries[k] = (old[0], old[1] + ent[1], old[2])
    return DPTable(child.var_at, _set_slot(chk_at, slot, -1), entries)


def join(left: DPTable, right: DPTable, g: TannerGraph, b: int) -> DPTable:
    var_at, chk_at = left.var_at, left.chk_at
    if (right.var_at, right.chk_at) != (var_at, chk_at):
        raise ValueError("join children disagree on the bag")
    kc = len(chk_at)
    shift = kc + len(var_at)
    i_bits = (1 << kc) - 1
    q_bits = ((1 << shift) - 1) ^ i_bits
    over = (b + 1) << shift           # keys at or above it have d > b
    # per variable slot, the check slots its variable is adjacent to
    var_chk = [_slot_mask(chk_at, g.var_adj[v]) if v >= 0 else 0
               for v in var_at]

    entries: dict[int, Entry] = {}
    get = entries.get
    # right entries by Q, as (I bits, d field in place, f, g, w)
    right_by_q: dict[int, list[tuple[int, ...]]] = {}
    for k2, (f2, g2, w2) in right.entries.items():
        right_by_q.setdefault(k2 & q_bits, []).append(
            (k2 & i_bits, k2 >> shift << shift, f2, g2, w2))

    gamma_cache: dict[int, tuple[int, int]] = {}
    for k1, (f1, g1, w1) in left.entries.items():
        q = k1 & q_bits
        partners = right_by_q.get(q)
        if not partners:
            continue
        cached = gamma_cache.get(q)
        if cached is None:
            cached = gamma_cache[q] = (
                gamma_odd_mask(var_chk, q >> kc, i_bits), q.bit_count())
        gam, qsize = cached
        base = k1 ^ gam
        f1 -= qsize
        for i2, d2, f2, g2, w2 in partners:
            k = (base ^ i2) + d2
            if k >= over:
                continue
            f = f1 + f2
            old = get(k)
            if old is None or f < old[0]:
                entries[k] = (f, g1 * g2, w1 | w2)
            elif f == old[0]:
                entries[k] = (f, old[1] + g1 * g2, old[2])

    # a partial set living entirely in one subtree survives verbatim,
    # but only when it is disjoint from the bag's variables
    for side in (left.entries, right.entries):
        for k, ent in side.items():
            if k & q_bits:
                continue
            old = get(k)
            if old is None or ent[0] < old[0]:
                entries[k] = ent
            elif ent[0] == old[0]:
                entries[k] = (old[0], old[1] + ent[1], old[2])
    return DPTable(var_at, chk_at, entries)


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
            table = leaf_table(ntd.var_slots, ntd.chk_slots)
        elif kind == JOIN:
            c1, c2 = node.children
            table = join(tables[c1], tables[c2], g, b)
        else:
            child = tables[node.children[0]]
            if kind == INTRO_VAR:
                table = introduce_variable(child, node.elem, node.slot, g)
            elif kind == FORGET_VAR:
                table = forget_variable(child, node.elem, node.slot)
            elif kind == INTRO_CHK:
                table = introduce_check(child, node.elem, node.slot, g)
            elif kind == FORGET_CHK:
                table = forget_check(child, node.elem, node.slot, b)
            else:
                raise ValueError(f"unknown node kind {kind!r}")
        tables[idx] = table
        if not retain_tables:
            for ch in node.children:
                tables[ch] = None

    root_table = tables[ntd.root]
    root_entry = root_table.get((0, 0, b))
    if root_entry is None:
        return DPResult(None, None, root_table, tables)
    return DPResult(root_entry[0], root_entry[1], root_table, tables)


def min_distance(g: TannerGraph, ntd: NiceTreeDecomposition) -> DPResult:
    """Minimum Hamming distance and number of minimum-weight codewords.

    The b=0 run; ``a_min`` is None for the zero code.
    """
    return run_dp(g, ntd, 0)
