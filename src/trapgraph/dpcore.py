"""Sparse dynamic program over a rooted nice tree decomposition.

Per nice node a table maps a state (I, Q, d) to (f, g, w): I is the set of
odd checks inside the bag, Q the set of partial-trapping-set members inside
the bag, d the number of already-forgotten odd checks; f is the minimum
partial-set size, g the exact count of minimizers and w the variable bitmask
of one minimizer, so the root entry carries a witness.  Absent states mean
(+inf, 0).  Counts are Python ints, so arbitrary precision.

Table keys are bag-local: the nice form gives every bag element a small
slot number (the ``slot`` column), and a key packs J over the check slots, Q
over the variable slots above them and d above both, into one int below
2^(kc+kv)*(b+1), where kc and kv are the decomposition's check and variable
slot counts.  J is not I: it holds the bag checks made odd by the
already-forgotten members alone, so I = J xor (Gamma_odd(Q) within the bag).
Per table that is a bijection on states.  A check enters the bag with J bit
0, since none of its neighbours is forgotten yet, so introducing it touches
no entry; forgetting a variable moves its parity from Q into J, and a join
adds its children's J parities without correcting for the shared Q.  The
cost of a key operation does not grow with the code length; only the
carried minimizer w is a global-id bitmask.  ``DPTable.answer(d)`` reads
the state (0, 0, d), whose packed key is the same under either reading
since Q = 0 gives I = J; on the empty root bag it is the answer at b = d.
No other key is translated.

A table holds no graph and no slot layout.  The column walk that every
nice form's constructor runs (``decomp.check_nice_columns``) writes each
forget's key bits into the ``mask`` column and checks the columns, so the
kernels check no bag: a forgotten variable's mask is its Q bit and the J
bits of its bag checks, the bits its forget moves, and a forgotten check's
mask is its J bit and the Q bits of its bag variables, whose parity says
whether it is odd.

There is one kernel per node kind but the leaf, whose table is an empty
``DPTable``, one for a pair and one for a stretch.
``introduce_variable`` takes a chain of introduce-variable nodes, each the
child of the next, as their variables and slots, and ``forget_variable``
a chain of forget-variable nodes as their masks, each in one pass over
the chain's child table; ``run_dp`` hands them every maximal such chain as
column slices, so only the chain's last node gets a table.
``introduce_forget_variable`` takes a one-variable introduce and the
forget of it just above in one pass, ``forget_check`` one node's mask, and
``introduce_check`` returns its child's table, as introducing a check
changes no key.  ``stretch`` takes a stretch, a chain of introduce-variable
nodes, the introduce-check nodes above it and the maximal run of forget
nodes above those, as one linear map of the key bits over GF(2) (see
``stretch``), in one pass over its child table: a window step of an SC
path is one stretch.  On a tie in f the kernels keep the integer-smaller
w, so every entry carries the integer-smallest minimizer of its state and
a chain or a stretch gives the same table in one pass as node by node.
``retain_tables=True`` hands the variable kernels one node at a time and
fuses no stretch, so every node's table is kept.

The freed run is an exact branch and bound in one pass.  Each table's
``answer(d)`` is a complete (f, d)-trapping set of the whole graph (see
``DPTable.answer``), so the smallest such f seen so far, U[d], is at least
a_min(d).  An entry at d can only end in a root answer at some b' >= d, so
once U[d..b] are all known it is pruned against cap[d] = max(U[d..b]);
while any of them is unknown, d has no cap.  A b' that provably has no
set is left out of both.  Counting edge ends, |Gamma_odd(S)| is congruent
to the sum of deg(v) over S (mod 2), so when every variable degree is
even no odd b' has a set; an entry at an odd d = b is then pruned
outright, since no b' >= d can have a set.  ``run_dp`` hands the per-d
cap to the kernels that raise f (``introduce_variable``,
``introduce_forget_variable``, ``stretch`` and ``join``) or d
(``forget_check``, ``stretch`` and ``join``) as a list ``cap[0..b]``, from which they also read b, and they
skip every entry above the cap at its d.  An introduce adds |S|, a join
gives f1 + f2 - |Q| >= max(f1, f2) at d1 + d2, and a forget keeps f, so
f and d never decrease toward the root, while cap[d] never increases in
d and only tightens as the run goes on, though a stretch reads it once
for all its nodes, a looser cap than node by node.
A state at or below its cap is thus built only from states at or below
theirs, and those are exact: f, count and minimizer.
The root bag is empty, so the root table holds only the answers (0, 0, b')
for b' <= b, each with f = a_min(b') <= U[b'] <= cap[b']: it is the
uncapped table.  Entries above the cap may be missing or off in
intermediate tables, which is why ``retain_tables=True`` is never capped:
its kernels get ``sys.maxsize`` at every d.

The b=0 run is simply the d-pinned-to-0 slice of the general recurrence.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from operator import itemgetter
from typing import NamedTuple

from trapgraph.decomp import (
    K_FORGET_CHK,
    K_FORGET_VAR,
    K_INTRO_CHK,
    K_INTRO_VAR,
    K_JOIN,
    K_LEAF,
    NiceTreeDecomposition,
)
from trapgraph.tanner import TannerGraph

Entry = tuple[int, int, int]        # (f, g, w)


class DPTable:
    """Sparse table of one nice node: packed key -> (f, g, w).

    A key is ``J | Q << kc | d << (kc + kv)`` with J over the kc check
    slots and Q over the kv variable slots, the nice form's ``chk_slots``
    and ``var_slots``; J holds the bag checks made odd by the forgotten
    members alone, not the odd bag checks I = J xor (Gamma_odd(Q) within
    the bag).  The key with J = Q = 0 means the same under either reading,
    and ``answer`` reads it.

    ``introduce_check`` returns its child's very table, so a table's
    entries are read-only once it is built.
    """

    __slots__ = ("kc", "kv", "entries")

    def __init__(self, kc: int, kv: int,
                 entries: dict[int, Entry] | None = None):
        self.kc, self.kv = kc, kv
        self.entries = entries if entries is not None else {}

    def answer(self, d: int) -> Entry | None:
        """(f, g, w) of state (no odd bag check, no bag member, d), or None
        when absent, as for every d < 0 (keys are never negative).

        On the root, whose bag is empty, this is the answer at b = d.  On
        any other table it is the best complete (f, d)-trapping set found
        inside the node's subtree: no bag check is odd and every member is
        forgotten, so all its checks are.
        """
        return self.entries.get(d << (self.kc + self.kv))


# The merging kernels inline one rule: keep the strict f-minimum, add counts
# on ties and keep the integer-smaller minimizer.  Every transition keeps the
# integer order of w within a merge group (an introduce adds a bit no member
# has, a join adds the right side's bits outside Q), so every entry carries
# the integer-smallest minimizer of its state, whatever order the entries
# merge in: a chain gives the same table in one pass as node by node.

def introduce_variable(child: DPTable, elems: Sequence[int],
                       slots: Sequence[int], cap: Sequence[int]) -> DPTable:
    """One pass for a chain of introduce-variable nodes, each the child of
    the next, given as the variables they introduce and their slots.

    Every nonzero key gets each nonempty subset S of the new variables, and
    each such S gets its base entry (|S|, 1, S); a fully-forgotten codeword
    state (key 0) is not extended.  No two of these keys collide.  No entry
    at d with f larger than ``cap[d]`` is written (see ``run_dp``).
    """
    kc, kv = child.kc, child.kv
    subsets = []                      # (Q bits, |S|, w bits) of nonempty S
    for v, slot in zip(elems, slots):
        qb, vb = 1 << (kc + slot), 1 << v
        subsets += [(q | qb, n + 1, w | vb) for q, n, w in subsets]
        subsets.append((qb, 1, vb))
    # by size, so the subsets that fit under the cap are a prefix
    subsets.sort(key=itemgetter(1))
    shift = kc + kv
    entries = dict(child.entries)
    for k, (f, cnt, w) in child.entries.items():
        room = cap[k >> shift] - f
        for q, n, ws in subsets:
            if n > room:
                break
            entries[k | q] = (f + n, cnt, w | ws)
    # extending key 0 wrote only base keys, each at most cap[0]; overwrite
    room = cap[0]
    for q, n, ws in subsets:
        if n > room:
            break
        entries[q] = (n, 1, ws)
    return DPTable(kc, kv, entries)


def forget_variable(child: DPTable, masks: Sequence[int]) -> DPTable:
    """One pass for a chain of forget-variable nodes, each the child of the
    next, given as their masks: each forgotten member moves its parity to J.
    """
    kc = child.kc
    # flip[s]: the Q bits s cleared and their parities moved into J, for
    # every subset s of the run's forgotten Q bits fq
    flip = {0: 0}
    fq = 0
    for move in masks:
        qb = move >> kc << kc         # the mask's one Q bit
        flip.update([(s | qb, m ^ move) for s, m in flip.items()])
        fq |= qb
    entries: dict[int, Entry] = {}
    get = entries.get
    for k, ent in child.entries.items():
        k ^= flip[k & fq]
        old = get(k)
        if old is None or ent[0] < old[0]:
            entries[k] = ent
        elif ent[0] == old[0]:
            w, w_old = ent[2], old[2]
            entries[k] = (old[0], old[1] + ent[1], w if w < w_old else w_old)
    return DPTable(kc, child.kv, entries)


def introduce_forget_variable(child: DPTable, v: int, mask: int,
                              cap: Sequence[int]) -> DPTable:
    """``forget_variable`` of ``introduce_variable``'s table for one
    variable v, given the forget's mask, in one pass that never builds the
    introduce's table: the child's entries, then each nonzero key with f
    below its cap adding (f + 1, g, w | v) at the key with v's checks
    flipped in J, and the base entry (1, 1, v) at v's checks alone when
    ``cap[0]`` is at least 1, all merged by the usual rule."""
    kc, kv = child.kc, child.kv
    shift = kc + kv
    move = mask & ((1 << kc) - 1)     # v's J bits; its Q bit ends up clear
    vb = 1 << v
    entries = dict(child.entries)
    get = entries.get
    if cap[0] >= 1:
        old = get(move)
        if old is None or old[0] > 1:
            entries[move] = (1, 1, vb)
        elif old[0] == 1:
            entries[move] = (1, old[1] + 1, min(vb, old[2]))
    for k, (f, cnt, w) in child.entries.items():
        if k and f < cap[k >> shift]:
            k ^= move
            f += 1
            old = get(k)
            if old is None or f < old[0]:
                entries[k] = (f, cnt, w | vb)
            elif f == old[0]:
                w |= vb
                entries[k] = (f, old[1] + cnt, w if w < old[2] else old[2])
    return DPTable(kc, kv, entries)


def stretch(child: DPTable, kinds: bytes, elems: Sequence[int],
            slots: Sequence[int], masks: Sequence[int],
            cap: Sequence[int]) -> DPTable:
    """One pass for a stretch: a chain of introduce-variable nodes, the
    introduce-check nodes above it, then a run of forget nodes of either
    namespace, each the child of the next, given as their columns.

    No slot is freed and reused inside a stretch.  So with each forgotten
    check's parity kept in its own J bit until the end, the stretch maps
    the keys' (J, Q) bits linearly over GF(2): a forgotten variable's mask
    XORs in when its Q bit is set, and a forgotten check's J bit takes the
    parity of its mask's bits and of the Q bit of each variable forgotten
    before it whose mask holds that J bit.  A child key k with new
    variables S ends at L(k) xor L(S); then d grows by the popcount of the
    forgotten checks' J bits, which are cleared.  L(k) is k xor
    ``flip[k & fq]``, over the child variables fq the stretch forgets, xor
    the J bit of each forgotten check that an odd number of the child's
    staying variables meet.  The entries are extended as
    ``introduce_variable`` extends them, but for a key that maps to 0,
    whose base entry dominates.  An output above b, or above the cap at
    its final d, is dropped, but an entry whose d does not rise is kept,
    so the table is the one the nodes give one by one under the same cap.
    """
    kc, kv = child.kc, child.kv
    shift = kc + kv
    over = len(cap) << shift          # keys at or above it have d > b
    nv = kinds.count(K_INTRO_VAR)
    nf = nv + kinds.count(K_INTRO_CHK)
    fresh = fj = 0                    # new key bits; forgotten checks' J bits
    gone, reach = [], []              # (Q bit, mask), (bits read, J bit)
    for kind, m in zip(kinds[nf:], masks[nf:]):
        if kind == K_FORGET_VAR:
            gone.append((m >> kc << kc, m))     # its J bits lie below
        else:
            jb = m & -m
            fj |= jb
            for qb, mv in gone:
                if mv & jb:
                    m |= qb
            reach.append((m, jb))
    for s in slots[nv:nf]:
        fresh |= 1 << s
    # L of a Q bit: a forgotten variable's staying checks' J bits, any
    # other Q bit itself, and the J bit of each forgotten check reading it
    drop = {qb: (mv ^ qb) & ~fj for qb, mv in gone}

    def image(qb: int) -> int:
        m = drop.get(qb, qb)
        for e, jb in reach:
            if qb & e:
                m ^= jb
        return m

    subsets = []                      # (L of their Q bits, |S|, w bits)
    for v, slot in zip(elems[:nv], slots[:nv]):
        qb = 1 << (kc + slot)
        fresh |= qb
        m = image(qb)
        vb = 1 << v
        for q, n, w in subsets[:]:
            subsets.append((q ^ m, n + 1, w | vb))
        subsets.append((m, 1, vb))
    # by size, so the subsets that fit under the cap are a prefix
    subsets.sort(key=itemgetter(1))
    flip = {0: 0}
    fq = 0
    for qb, _ in gone:
        if not qb & fresh:
            m = image(qb) ^ qb
            for s, t in list(flip.items()):
                flip[s | qb] = t ^ m
            fq |= qb
    stay = ~((1 << kc) - 1 | fq | fresh)      # the child's staying Q bits
    reads = [(e & stay, jb) for e, jb in reach if e & stay]
    entries: dict[int, Entry] = {}
    get = entries.get
    for k, (f, cnt, w) in child.entries.items():
        a = k ^ flip[k & fq]
        for e, jb in reads:
            if (k & e).bit_count() & 1:
                a ^= jb
        j = a & fj
        k = a
        if j:
            k = (a ^ j) + (j.bit_count() << shift)
        if not j or k < over and f <= cap[k >> shift]:
            old = get(k)
            if old is None or f < old[0]:
                entries[k] = (f, cnt, w)
            elif f == old[0]:
                entries[k] = (f, old[1] + cnt, w if w < old[2] else old[2])
        if not a:
            continue
        room = cap[a >> shift] - f
        for m, n, ws in subsets:
            if n > room:
                break
            k = a ^ m
            j = k & fj
            n += f
            if j:
                k = (k ^ j) + (j.bit_count() << shift)
                if k >= over or n > cap[k >> shift]:
                    continue
            old = get(k)
            if old is None or n < old[0]:
                entries[k] = (n, cnt, w | ws)
            elif n == old[0]:
                ws |= w
                entries[k] = (n, old[1] + cnt, ws if ws < old[2] else old[2])
    # the base entries, each subset alone
    room = cap[0]
    for k, n, ws in subsets:
        if n > room:
            break
        j = k & fj
        if j:
            k = (k ^ j) + (j.bit_count() << shift)
            if k >= over or n > cap[k >> shift]:
                continue
        old = get(k)
        if old is None or n < old[0]:
            entries[k] = (n, 1, ws)
        elif n == old[0]:
            entries[k] = (n, old[1] + 1, ws if ws < old[2] else old[2])
    return DPTable(kc, kv, entries)


def introduce_check(child: DPTable) -> DPTable:
    """The child's table: no neighbour of the new check is forgotten below
    its introduce (edge coverage), so its J bit is 0 in every key."""
    return child


def forget_check(child: DPTable, mask: int, cap: Sequence[int]) -> DPTable:
    """Forget the check of ``mask``; an entry whose check is odd moves to
    d + 1, and is dropped when that exceeds b = len(cap) - 1 or its f
    exceeds ``cap[d + 1]`` (see ``run_dp``)."""
    keep = ~(mask & -mask)            # all but the mask's one J bit
    shift = child.kc + child.kv
    step = 1 << shift
    full = (len(cap) - 1) << shift    # keys at or above it have d == b
    entries: dict[int, Entry] = {}
    get = entries.get
    for k, ent in child.entries.items():
        # the check is odd iff its J bit and its bag members' Q bits have
        # odd parity
        if (k & mask).bit_count() & 1:
            if k >= full:
                continue
            k = (k & keep) + step
            if ent[0] > cap[k >> shift]:
                continue
        else:
            k &= keep
        old = get(k)
        if old is None or ent[0] < old[0]:
            entries[k] = ent
        elif ent[0] == old[0]:
            w, w_old = ent[2], old[2]
            entries[k] = (old[0], old[1] + ent[1], w if w < w_old else w_old)
    return DPTable(child.kc, child.kv, entries)


def join(left: DPTable, right: DPTable, cap: Sequence[int]) -> DPTable:
    """Combine the two children's tables; no combined entry at d above
    b = len(cap) - 1, or with f larger than ``cap[d]``, is written (see
    ``run_dp``)."""
    kc, kv = left.kc, left.kv
    shift = kc + kv
    j_bits = (1 << kc) - 1
    q_bits = ((1 << shift) - 1) ^ j_bits
    over = len(cap) << shift          # keys at or above it have d > b

    entries: dict[int, Entry] = {}
    get = entries.get
    # right entries by Q, as (J bits, d field in place, f, g, w); the two
    # subtrees forget disjoint members, so their J parities simply add
    right_by_q: dict[int, list[tuple[int, ...]]] = {}
    for k2, (f2, g2, w2) in right.entries.items():
        right_by_q.setdefault(k2 & q_bits, []).append(
            (k2 & j_bits, k2 >> shift << shift, f2, g2, w2))

    for k1, (f1, g1, w1) in left.entries.items():
        partners = right_by_q.get(k1 & q_bits)
        if not partners:
            continue
        f1 -= (k1 & q_bits).bit_count()
        for j2, d2, f2, g2, w2 in partners:
            k = (k1 ^ j2) + d2
            f = f1 + f2
            if k >= over or f > cap[k >> shift]:
                continue
            old = get(k)
            if old is None or f < old[0]:
                entries[k] = (f, g1 * g2, w1 | w2)
            elif f == old[0]:
                w, w_old = w1 | w2, old[2]
                entries[k] = (f, old[1] + g1 * g2, w if w < w_old else w_old)

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
                w, w_old = ent[2], old[2]
                entries[k] = (old[0], old[1] + ent[1],
                              w if w < w_old else w_old)
    return DPTable(kc, kv, entries)


class DPResult(NamedTuple):
    """Answer at the requested b, plus the root table it was read from; an
    immutable named tuple.

    The root table also holds ``(0, 0, b')`` for every ``b' <= b`` with the
    value a run at ``b'`` would give, since d never decreases toward the root.
    The size cap of a freed run leaves it unchanged: each of those entries
    is at most the cap at its d (see the module docstring).  ``tables`` is
    indexed by nice node; only the root's slot is filled unless the run
    retained every table, and a retained run is never capped.
    """

    a_min: int | None
    count: int | None
    root_table: DPTable
    tables: list[DPTable | None]

    @property
    def found(self) -> bool:
        return self.a_min is not None


def _caps(best: list[int | None], even_only: bool) -> list[int]:
    """cap[d] = max(best[b']) over the b' >= d that can have a set, or no
    cap while any of those is unknown; -1, which prunes every entry, when
    none can.  With ``even_only`` no odd b' can have a set."""
    cap = [sys.maxsize] * len(best)
    top = -1
    for d in range(len(best) - 1, -1, -1):
        if not (even_only and d % 2):
            if best[d] is None:
                break
            top = max(top, best[d])
        cap[d] = top
    return cap


def _stretch_top(kinds: bytes, child: Sequence[int], end: int) -> int:
    """The top node of the stretch whose introduce-variable chain ends at
    ``end``: the introduce-check nodes above the chain, then the maximal
    run of forget nodes above those, each the child of the next; ``end``
    itself unless that run forgets a variable and a check."""
    last = len(kinds) - 1
    top = end
    while top < last and child[top + 1] == top \
            and kinds[top + 1] == K_INTRO_CHK:
        top += 1
    bottom = top
    while top < last and child[top + 1] == top \
            and kinds[top + 1] in (K_FORGET_VAR, K_FORGET_CHK):
        top += 1
    forgets = kinds[bottom + 1:top + 1]
    return top if K_FORGET_VAR in forgets and K_FORGET_CHK in forgets \
        else end


def run_dp(g: TannerGraph, ntd: NiceTreeDecomposition, b: int,
           retain_tables: bool = False) -> DPResult:
    """Process nice nodes in post-order and read out the root state (0, 0, b).

    The nice form is read through its columns only (``ntd.nodes`` is never
    built).  Child tables are freed as soon as they are consumed unless
    ``retain_tables`` is set, which only serves to inspect them: the witness
    is carried in the root table either way.  Without it, every maximal
    chain of introduce-variable nodes, and of forget-variable nodes, each
    the child of the next, runs as one kernel pass that leaves only its
    last node's table, and a one-node introduce-variable chain whose parent
    forgets that variable, as every one-variable leaf fold gives, runs with
    the forget as one ``introduce_forget_variable`` pass.  An introduce
    chain of three or more variables whose stretch (``_stretch_top``)
    forgets at least one variable and one check runs with it as one
    ``stretch`` pass; every window step of an SC path with three or more
    variables per block does.  On min-fill forms, whose tables are small
    enough (about 12 entries) for a call's setup to decide, the same rule
    with two-variable chains measured 2-4% slower in ``run_dp``, and looser
    rules slower still.  With ``retain_tables``, every node runs alone and
    every table is kept.

    Without ``retain_tables`` the run also prunes (see the module
    docstring): after each forget and join table it lowers U[d] to the f of
    ``table.answer(d)`` for d = 0..b and hands ``_caps`` of U to the
    kernels that take a cap.  Other tables cannot lower U: a leaf table is
    empty, and an introduce table keeps its child's keys with Q = 0 as they
    are and adds only keys with Q bits, so its ``answer(d)`` is its child's.
    A stretch lowers U once, after its last node.
    The root table is the one an uncapped run gives, w included.  No set
    has more odd checks than there are checks, so the pass runs at
    min(b, n_chk); its root table is the one a pass at b gives, and the
    answer is read at b, None above n_chk.
    """
    if b < 0:
        raise ValueError("b must be >= 0")
    if ntd.n_var != g.n_var or ntd.n_chk != g.n_chk:
        raise ValueError("decomposition does not match the graph")

    kinds, elems, slots, masks = ntd.kind, ntd.elem, ntd.slot, ntd.mask
    child, child2 = ntd.child, ntd.child2
    last = len(kinds) - 1
    fuse = not retain_tables
    tables: list[DPTable | None] = [None] * len(kinds)
    # best[d]: the smallest f seen so far in any table's answer(d), a
    # complete (f, d)-trapping set; cap[d] = max(best[d:]) once those are
    # all known
    best: list[int | None] = [None] * (min(b, g.n_chk) + 1)
    shift = ntd.var_slots + ntd.chk_slots       # answer(d) is key d << shift
    # every degree even: no odd b' has a set (|Gamma_odd(S)| is even)
    even_only = all(len(chks) % 2 == 0 for chks in g.var_adj)
    cap = _caps(best, even_only) if fuse else [sys.maxsize] * len(best)
    end = -1                          # the node the latest table belongs to
    for idx, kind in enumerate(kinds):
        if idx <= end:
            continue
        end = idx
        c1 = child[idx]
        if kind == K_LEAF:
            table = DPTable(ntd.chk_slots, ntd.var_slots)
        elif kind == K_JOIN:
            table = join(tables[c1], tables[child2[idx]], cap)
        elif kind == K_INTRO_CHK:
            table = introduce_check(tables[c1])
        elif kind == K_FORGET_CHK:
            table = forget_check(tables[c1], masks[idx], cap)
        elif kind == K_INTRO_VAR or kind == K_FORGET_VAR:
            while fuse and end < last and kinds[end + 1] == kind \
                    and child[end + 1] == end:
                end += 1
            run = slice(idx, end + 1)
            if kind == K_FORGET_VAR:
                table = forget_variable(tables[c1], masks[run])
            elif end - idx >= 2 \
                    and (top := _stretch_top(kinds, child, end)) > end:
                run = slice(idx, top + 1)
                end = top
                kind = kinds[end]     # the stretch's table is a forget's
                table = stretch(tables[c1], kinds[run], elems[run],
                                slots[run], masks[run], cap)
            elif fuse and end == idx < last and child[end + 1] == end \
                    and kinds[end + 1] == K_FORGET_VAR \
                    and elems[end + 1] == elems[idx]:
                end += 1
                kind = K_FORGET_VAR   # the pair's table is a forget's
                table = introduce_forget_variable(tables[c1], elems[idx],
                                                  masks[end], cap)
            else:
                table = introduce_variable(tables[c1], elems[run],
                                           slots[run], cap)
        else:
            raise ValueError(f"unknown node kind {kind}")
        tables[end] = table
        if fuse and kind != K_LEAF:
            tables[c1] = None
            if kind == K_JOIN:
                tables[child2[idx]] = None
            if kind == K_FORGET_VAR or kind == K_FORGET_CHK or kind == K_JOIN:
                get = table.entries.get
                lowered = False
                for d, f in enumerate(best):
                    ent = get(d << shift)
                    if ent is not None and (f is None or ent[0] < f):
                        best[d] = ent[0]
                        lowered = True
                if lowered:
                    cap = _caps(best, even_only)

    root_table = tables[ntd.root]
    a_min, count, _ = root_table.answer(b) or (None, None, None)
    return DPResult(a_min, count, root_table, tables)
