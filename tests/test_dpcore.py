import itertools
import random
import sys

import pytest

from trapgraph import dpcore
from trapgraph.decomp import (
    FORGET_CHK,
    FORGET_VAR,
    INTRO_CHK,
    INTRO_VAR,
    K_FORGET_CHK,
    K_FORGET_VAR,
    K_INTRO_CHK,
    K_INTRO_VAR,
    K_JOIN,
    K_LEAF,
    LEAF,
    heuristic_decomposition,
    heuristic_nice,
    make_nice,
    sc_path_decomposition,
    sc_path_nice,
)
from trapgraph.dpcore import (
    DPTable,
    forget_check,
    forget_variable,
    introduce_check,
    introduce_variable,
    join,
    run_dp,
    stretch,
)
from trapgraph.oracle import brute_force_spectrum
from trapgraph.tanner import (
    ScLdpcParams,
    TannerGraph,
    generate_sc_ldpc,
)
from helpers import (
    HAMMING_74,
    check_masks,
    forget_mask_reference,
    gamma_odd_mask,
    min_weight_and_count,
    random_graph,
    random_td,
    run_dp_b0,
    single_bag_td,
    trellis_spectrum,
    walk_fault,
)


def nice_for(g):
    return make_nice(g, heuristic_decomposition(g))


# The kernel tests read tables as global-id (I, Q, d) states.  The packed
# key is ``J | Q << kc | d << (kc + kv)`` over the slots, with
# I = J ^ Gamma_odd(Q) within the bag.  A table holds no layout, so each
# test names the slot layouts its keys are read through, and the helpers
# below translate through the graph's global var_masks, independently of
# the engine's slots and masks.
def ids(layout):
    """Global-id bitmask of the elements in a slot layout."""
    return sum(1 << x for x in layout if x >= 0)


def pack(var_at, chk_at, j, q, d):
    """Packed key of global-id J and Q masks and d; bits of elements
    outside the layout are dropped."""
    kc = len(chk_at)
    key = d << (kc + len(var_at))
    key |= sum(1 << s for s, c in enumerate(chk_at) if c >= 0 and j >> c & 1)
    key |= sum(1 << s for s, v in enumerate(var_at, kc)
               if v >= 0 and q >> v & 1)
    return key


def table(g, var_at, chk_at, states=()):
    """A DPTable over the given slot layout with global-id (I, Q, d)
    states."""
    t = DPTable(len(chk_at), len(var_at))
    for (i, q, d), ent in dict(states).items():
        j = i ^ gamma_odd_mask(g.var_masks, q, ids(chk_at))
        assert j & ~ids(chk_at) == 0 and q & ~ids(var_at) == 0
        t.entries[pack(var_at, chk_at, j, q, d)] = ent
    return t


def states(t, g, var_at, chk_at):
    """The table's entries keyed by global-id (I, Q, d), read through the
    given slot layout, whose slot counts must be the table's."""
    kc = len(chk_at)
    assert (t.kc, t.kv) == (kc, len(var_at))
    out = {}
    for k, ent in t.entries.items():
        j = sum(1 << c for s, c in enumerate(chk_at) if k >> s & 1)
        q = sum(1 << v for s, v in enumerate(var_at, kc) if k >> s & 1)
        assert j & ~ids(chk_at) == 0 and q & ~ids(var_at) == 0
        i = j ^ gamma_odd_mask(g.var_masks, q, ids(chk_at))
        out[i, q, k >> (kc + len(var_at))] = ent
    return out


def var_mask(g, var_at, chk_at, v):
    """The mask of forgetting variable v from the bag (var_at, chk_at)."""
    return forget_mask_reference(g, FORGET_VAR, v, var_at, chk_at)


def chk_mask(g, var_at, chk_at, c):
    """The mask of forgetting check c from the bag (var_at, chk_at)."""
    return forget_mask_reference(g, FORGET_CHK, c, var_at, chk_at)


def uncapped(b):
    """The cap of a run that prunes nothing at b: every f fits at every
    d <= b, as in a retained run."""
    return [sys.maxsize] * (b + 1)


def intro_v(child, v, slot):
    """introduce_variable on a one-node run, keys at d = 0."""
    return introduce_variable(child, [v], [slot], uncapped(0))


def test_leaf_table_is_empty():
    t = DPTable(1, 2)
    assert t.entries == {}
    assert (t.kc, t.kv) == (1, 2)
    assert t.answer(0) is None


def test_introduce_variable_base_case():
    # empty child, v0 adjacent to bag check c0
    g = TannerGraph.from_matrix([[1, 1]])
    child = table(g, (-1,), (0,))
    t = intro_v(child, 0, 0)
    # packed key: Q slot 0 sits above the one check slot, whose J bit is 0
    # since nothing is forgotten
    assert t.entries == {0b10: (1, 1, 0b1)}
    assert states(t, g, (0,), (0,)) == {(0b1, 0b1, 0): (1, 1, 0b1)}


def test_introduce_variable_keeps_and_extends():
    g = TannerGraph.from_matrix([[1, 1]])
    child = table(g, (-1, 1), (0,), {(0b1, 0b10, 0): (1, 1, 0b10)})
    t = intro_v(child, 0, 0)
    # kept entry, extension with xor of shared check, and the base entry
    assert states(t, g, (0, 1), (0,)) == {
        (0b1, 0b10, 0): (1, 1, 0b10),
        (0b0, 0b11, 0): (2, 1, 0b11),
        (0b1, 0b01, 0): (1, 1, 0b01),
    }


def test_introduce_variable_skips_forgotten_codeword_state():
    g = TannerGraph.from_matrix([[1, 1]])
    child = table(g, (-1,), (0,), {(0, 0, 0): (4, 7, 0b11110)})
    t = intro_v(child, 0, 0)
    # (0,0,0) survives but is not extended; only {v} realizes the base key
    assert states(t, g, (0,), (0,)) == {(0, 0, 0): (4, 7, 0b11110),
                                        (0b1, 0b1, 0): (1, 1, 0b1)}


def test_introduce_variable_bag_mismatch():
    # the column walk, not the kernel, refuses a variable introduced into a
    # bag that already holds it, and a forget of a variable that its
    # child's bag does not hold, which leaves the variable in the leaf
    g = TannerGraph.from_matrix([[1, 1]])
    assert walk_fault(g, [(K_LEAF, -1, ()), (K_INTRO_VAR, 0, (0,)),
                          (K_INTRO_VAR, 0, (1,)), (K_FORGET_VAR, 0, (2,)),
                          (K_INTRO_VAR, 1, (3,)), (K_FORGET_VAR, 1, (4,)),
                          (K_INTRO_CHK, 0, (5,)), (K_FORGET_CHK, 0, (6,))],
                      1, 1) == (
        "node 1 introduces v0, which no forget above it holds",)
    assert walk_fault(g, [(K_LEAF, -1, ()), (K_INTRO_VAR, 1, (0,)),
                          (K_FORGET_VAR, 0, (1,)), (K_FORGET_VAR, 1, (2,)),
                          (K_INTRO_CHK, 0, (3,)), (K_FORGET_CHK, 0, (4,))],
                      2, 1) == ("leaf 0 has a nonempty bag",)


def test_forget_variable_merges_counts():
    # on a tie the counts add and the integer-smaller minimizer is kept,
    # whichever of the two is reached first
    g = TannerGraph.from_matrix([[1]])
    smaller = ((0b1, 0b1, 0), (3, 2, 0b111))
    larger = ((0b1, 0b0, 0), (3, 5, 0b1110))
    mask = var_mask(g, (0,), (0,), 0)
    assert mask == 0b11               # v0's Q bit and its check's J bit
    for order in ([smaller, larger], [larger, smaller]):
        t = forget_variable(table(g, (0,), (0,), order), [mask])
        assert states(t, g, (-1,), (0,)) == {(0b1, 0, 0): (3, 7, 0b111)}


def test_forget_variable_strict_minimum():
    g = TannerGraph.from_matrix([[1]])
    child = table(g, (0,), (0,), {
        (0b1, 0b0, 0): (5, 9, 0b111110),
        (0b1, 0b1, 0): (2, 1, 0b11),
    })
    t = forget_variable(child, [var_mask(g, (0,), (0,), 0)])
    assert states(t, g, (-1,), (0,)) == {(0b1, 0, 0): (2, 1, 0b11)}


def test_introduce_check_parity_cases():
    g = TannerGraph.from_matrix([[1, 1, 0]])
    child = table(g, (0, 1, 2), (-1,), {
        (0, 0b001, 0): (1, 1, 0b001),       # c0 adjacent to v0: odd
        (0, 0b011, 0): (2, 1, 0b011),       # adjacent to both: even
        (0, 0b000, 1): (3, 4, 0b111000),    # empty Q: always even
    })
    t = introduce_check(child)
    # no entry is touched: the new check's J bit is 0 in every key
    assert t is child
    assert states(t, g, (0, 1, 2), (0,)) == {
        (0b1, 0b001, 0): (1, 1, 0b001),
        (0, 0b011, 0): (2, 1, 0b011),
        (0, 0b000, 1): (3, 4, 0b111000),
    }


def test_forget_check_drops_when_budget_exhausted():
    g = TannerGraph.from_matrix([[1]])
    child = table(g, (0,), (0,), {(0b1, 0b1, 0): (1, 1, 0b1)})
    t = forget_check(child, chk_mask(g, (0,), (0,), 0), uncapped(0))
    assert t.entries == {}


def test_forget_check_increments_d_and_merges():
    g = TannerGraph.from_matrix([[1]])
    mask = chk_mask(g, (0,), (0,), 0)
    assert mask == 0b11               # c0's J bit and its variable's Q bit
    child = table(g, (0,), (0,), {(0b1, 0b1, 0): (1, 1, 0b1)})
    t = forget_check(child, mask, uncapped(1))
    assert states(t, g, (0,), (-1,)) == {(0, 0b1, 1): (1, 1, 0b1)}
    child2 = table(g, (0,), (0,), {
        (0b1, 0b1, 0): (4, 2, 0b1111),
        (0b0, 0b1, 1): (4, 3, 0b11101),
    })
    t2 = forget_check(child2, mask, uncapped(1))
    assert states(t2, g, (0,), (-1,)) == {(0, 0b1, 1): (4, 5, 0b1111)}


def chain(child, kind, run, b):
    """The variable run applied one node at a time, as one-node runs, on
    keys at d <= b: (element, slot) pairs to introduce, or masks to
    forget."""
    t = child
    for step in run:
        t = forget_variable(t, [step]) if kind == FORGET_VAR \
            else introduce_variable(t, [step[0]], [step[1]], uncapped(b))
    return t


def fused(child, kind, run, b):
    """The variable run in one kernel call."""
    if kind == FORGET_VAR:
        return forget_variable(child, run)
    elems, slots = zip(*run)
    return introduce_variable(child, elems, slots, uncapped(b))


def random_entries(rng, bits, b, n):
    """n random packed keys below 2^bits * (b + 1) with (f, g, w) values;
    few distinct f, so merges tie often."""
    return {rng.randrange((b + 1) << bits):
            (rng.randint(1, 3), rng.randint(1, 9), rng.getrandbits(8))
            for _ in range(n)}


# c0 meets v0, v1 and v2; c1 meets v0 and v2; c2 meets v1
RUN_GRAPH = TannerGraph.from_check_adj(4, 3, [[0, 1, 2], [0, 2], [1]])


@pytest.mark.parametrize("length", [1, 2, 3])
def test_forget_run_equals_chain(length):
    # v0, v2 and v1 leave a bag that keeps all three checks, cut to the
    # first ``length`` of them
    var_at, chk_at = (2, 0, 1), (1, 0, 2)
    run = [var_mask(RUN_GRAPH, var_at, chk_at, v) for v in (0, 2, 1)]
    # v0 at slot 1 meets c0 and c1 at slots 1 and 0, above the 3 J bits
    assert run[0] == 1 << 4 | 0b011
    run = run[:length]
    rng = random.Random(length)
    for b in range(3):
        for _ in range(20):
            child = DPTable(3, 3)
            child.entries.update(random_entries(rng, 6, b, 40))
            child.entries[0] = (2, 3, 0b1000)
            one = fused(child, FORGET_VAR, run, b)
            ref = chain(child, FORGET_VAR, run, b)
            assert one.entries == ref.entries
            assert (one.kc, one.kv) == (ref.kc, ref.kv) == (3, 3)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_introduce_run_equals_chain(length):
    # v0, then v2, then v1 into a bag holding v3 and c1; the child holds
    # key 0, which stays but is not extended
    run = [(0, 0), (2, 2), (1, 3)][:length]
    rng = random.Random(length)
    for _ in range(20):
        child = DPTable(2, 4)
        # keys over c1's J bit, v3's Q bit and d <= 1
        child.entries.update({k & 0b1010 | k & 0b1000000: ent for k, ent in
                              random_entries(rng, 7, 0, 6).items()})
        child.entries[0] = (2, 3, 0b1000)
        one = fused(child, INTRO_VAR, run, 1)
        ref = chain(child, INTRO_VAR, run, 1)
        assert one.entries == ref.entries
        assert one.entries[0] == (2, 3, 0b1000)
        assert (one.kc, one.kv) == (ref.kc, ref.kv) == (2, 4)


def test_run_kernels_bag_mismatch():
    # variable chains that the column walk refuses: a chain forgetting v0
    # twice, and one introducing v1 twice
    g = RUN_GRAPH
    tail = [(K_INTRO_CHK, 0, (2,)), (K_FORGET_CHK, 0, (3,))]
    assert walk_fault(g, [(K_LEAF, -1, ()), (K_INTRO_VAR, 0, (0,)),
                          (K_FORGET_VAR, 0, (1,)), (K_FORGET_VAR, 0, (2,))],
                      1, 0) == ("v0 is forgotten twice",)
    assert walk_fault(g, [(K_LEAF, -1, ()), (K_INTRO_VAR, 1, (0,)),
                          (K_INTRO_VAR, 1, (1,)), (K_FORGET_VAR, 1, (2,)),
                          *tail], 1, 1) == (
        "node 1 introduces v1, which no forget above it holds",)


def test_check_kernels_bag_mismatch():
    # a check introduced into a bag that already holds it, and a check
    # forgotten from a bag that does not, which leaves it in the leaf
    g = TannerGraph.from_check_adj(0, 2, [[], []])
    assert walk_fault(g, [(K_LEAF, -1, ()), (K_INTRO_CHK, 1, (0,)),
                          (K_INTRO_CHK, 1, (1,)), (K_FORGET_CHK, 1, (2,)),
                          (K_INTRO_CHK, 0, (3,)), (K_FORGET_CHK, 0, (4,))],
                      0, 1) == (
        "node 1 introduces c1, which no forget above it holds",)
    assert walk_fault(g, [(K_LEAF, -1, ()), (K_INTRO_CHK, 1, (0,)),
                          (K_FORGET_CHK, 0, (1,)), (K_FORGET_CHK, 1, (2,))],
                      0, 2) == ("leaf 0 has a nonempty bag",)


def test_run_dp_rejects_unknown_node_kind():
    # the constructor refuses the kind byte, so it is set afterwards
    g = TannerGraph.from_matrix([[1, 1]])
    ntd = nice_for(g)
    ntd.kind = ntd.kind[:-1] + bytes([99])
    with pytest.raises(ValueError, match="unknown node kind 99"):
        run_dp(g, ntd, 0)


def test_join_shared_members_counted_once():
    g = TannerGraph.from_matrix([[1]])
    left = table(g, (0,), (0,), {(0b1, 0b1, 0): (1, 1, 0b1)})
    right = table(g, (0,), (0,), {(0b1, 0b1, 0): (1, 1, 0b1)})
    t = join(left, right, uncapped(0))
    assert states(t, g, (0,), (0,)) == {(0b1, 0b1, 0): (1, 1, 0b1)}


def test_join_single_side_codeword_survives():
    g = TannerGraph.from_matrix([[1]])
    left = table(g, (), (), {(0, 0, 0): (4, 7, 0b11110)})
    t = join(left, table(g, (), ()), uncapped(0))
    assert states(t, g, (), ()) == {(0, 0, 0): (4, 7, 0b11110)}


def test_join_tie_keeps_smaller_minimizer():
    # c0 meets v0 only; each side holds v0 plus one forgotten member
    g = TannerGraph.from_matrix([[1, 0, 0, 0, 0]])
    left = [((0b1, 0b1, 0), (2, 1, 0b00011)), ((0, 0b1, 0), (2, 1, 0b00101))]
    right = [((0b1, 0b1, 0), (2, 1, 0b01001)), ((0, 0b1, 0), (2, 1, 0b10001))]
    for order in (left, left[::-1]):
        t = join(table(g, (0,), (0,), order), table(g, (0,), (0,), right),
                 uncapped(0))
        # two pairs meet in each state: {v0,v1}+{v0,v3} and {v0,v2}+{v0,v4}
        # at I = {c0}, {v0,v1}+{v0,v4} and {v0,v2}+{v0,v3} at I = {}
        assert states(t, g, (0,), (0,)) == {(0b1, 0b1, 0): (3, 2, 0b01011),
                                            (0, 0b1, 0): (3, 2, 0b01101)}
    # a set living in one subtree: the right side's smaller one wins
    empty_left = table(g, (-1,), (-1,), {(0, 0, 0): (2, 1, 0b11000)})
    empty_right = table(g, (-1,), (-1,), {(0, 0, 0): (2, 4, 0b00110)})
    t = join(empty_left, empty_right, uncapped(0))
    assert states(t, g, (-1,), (-1,)) == {(0, 0, 0): (2, 5, 0b00110)}


def test_join_requires_matching_bags():
    # the column walk hands a join's bag to both children, so children
    # whose bags differ leave an element in one child's leaf or introduce
    # one the join's bag does not hold
    g = TannerGraph.from_matrix([[1]])
    left = [(K_LEAF, -1, ()), (K_INTRO_VAR, 0, (0,))]
    right = [(K_LEAF, -1, ())]
    top = [(K_FORGET_VAR, 0, (3,)), (K_INTRO_CHK, 0, (4,)),
           (K_FORGET_CHK, 0, (5,))]
    assert walk_fault(g, [*left, *right, (K_JOIN, -1, (1, 2)), *top],
                      1, 1) == ("leaf 2 has a nonempty bag",)
    top = [(K_INTRO_CHK, 0, (3,)), (K_FORGET_CHK, 0, (4,))]
    assert walk_fault(g, [*left, *right, (K_JOIN, -1, (1, 2)), *top],
                      1, 1) == (
        "node 1 introduces v0, which no forget above it holds",)


def test_join_with_empty_table_is_identity_on_codeword_states():
    g = TannerGraph.from_matrix([[1, 1]])
    left = table(g, (), (), {(0, 0, 0): (2, 1, 0b11), (0, 0, 1): (1, 2, 0b1)})
    t = join(left, table(g, (), ()), uncapped(2))
    assert t.entries == left.entries


def test_repetition_code():
    g = TannerGraph.from_matrix([[1, 1]])
    res = run_dp(g, nice_for(g), 0)
    assert (res.a_min, res.count) == (2, 1)


def test_chain_code_min_distance():
    g = TannerGraph.from_matrix([[1, 1, 0], [0, 1, 1]])
    res = run_dp(g, nice_for(g), 0)
    assert (res.a_min, res.count) == (3, 1)


def test_hamming_74():
    g = TannerGraph.from_matrix(HAMMING_74)
    expected = min_weight_and_count(HAMMING_74)
    assert expected == (3, 7)
    res = run_dp(g, nice_for(g), 0)
    assert (res.a_min, res.count) == expected


def test_zero_code_has_no_result():
    g = TannerGraph.from_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = run_dp(g, nice_for(g), 0)
    assert not res.found
    assert res.a_min is None and res.count is None


def test_empty_graph():
    g = TannerGraph.from_check_adj(0, 0, [])
    res = run_dp(g, nice_for(g), 0)
    assert not res.found


def test_rejects_negative_b():
    g = TannerGraph.from_matrix([[1, 1]])
    with pytest.raises(ValueError):
        run_dp(g, nice_for(g), -1)


def test_dp_matches_oracle_fuzz():
    rng = random.Random(77)
    for _ in range(120):
        g = random_graph(rng, max_var=10, max_chk=8)
        ntd = make_nice(g, random_td(g, rng))
        for b in (0, 1, 2):
            res = run_dp(g, ntd, b)
            expected = brute_force_spectrum(g, b)
            assert ((res.a_min, res.count) if res.found else None) == expected


def test_b0_engine_agrees_with_independent_dfree_dp():
    rng = random.Random(78)
    for _ in range(120):
        g = random_graph(rng, max_var=10, max_chk=8)
        ntd = make_nice(g, random_td(g, rng))
        res = run_dp(g, ntd, 0)
        alt = run_dp_b0(g, ntd)
        assert ((res.a_min, res.count) if res.found else None) == alt


def test_b0_tables_never_carry_positive_d():
    rng = random.Random(79)
    g = random_graph(rng, max_var=8, max_chk=6)
    ntd = make_nice(g, random_td(g, rng))
    res = run_dp(g, ntd, 0, retain_tables=True)
    for table in res.tables:
        shift = table.kc + table.kv
        assert all(k >> shift == 0 for k in table.entries)


def test_decomposition_invariance():
    rng = random.Random(80)
    for _ in range(40):
        g = random_graph(rng, max_var=9, max_chk=7)
        decomps = [random_td(g, rng), random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)]
        for b in (0, 1, 2):
            answers = set()
            for td in decomps:
                res = run_dp(g, make_nice(g, td), b)
                answers.add((res.a_min, res.count))
            assert len(answers) == 1


def assert_entries_realized_by_minimizers(g, ntd, b):
    """Every entry's packed key is the key of the minimizer it carries:
    J the bag checks made odd by its forgotten members, Q its bag members
    over the variable slots, d its odd forgotten checks."""
    res = run_dp(g, ntd, b, retain_tables=True)
    forgotten_c = [0] * len(ntd.nodes)      # checks forgotten in the subtree
    for idx, node in enumerate(ntd.nodes):
        for ch in node.children:
            forgotten_c[idx] |= forgotten_c[ch]
        if node.kind == FORGET_CHK:
            forgotten_c[idx] |= 1 << node.elem
        bag_v, bag_c = node.bag_v, node.bag_c     # derived per read
        for k, (f, cnt, w) in res.tables[idx].entries.items():
            j = gamma_odd_mask(g.var_masks, w & ~bag_v, bag_c)
            d = gamma_odd_mask(g.var_masks, w, forgotten_c[idx]).bit_count()
            assert k == pack(node.var_at, node.chk_at, j, w, d)
            assert f == w.bit_count() and cnt >= 1


def test_every_entry_realized_by_its_minimizer():
    rng = random.Random(82)
    for _ in range(60):
        g = random_graph(rng, max_var=10, max_chk=8)
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            assert_entries_realized_by_minimizers(g, make_nice(g, td),
                                                  rng.randint(0, 2))


def test_every_sc_path_entry_realized_by_its_minimizer():
    params = ScLdpcParams(3, 4, 40, 2, var_degree=3, seed=1)
    g = generate_sc_ldpc(params)
    ntd = make_nice(g, sc_path_decomposition(g, params))
    assert_entries_realized_by_minimizers(g, ntd, 2)


def assert_tables_and_masks_match_nodes(g, ntd):
    """Each retained table's key widths are the nice form's slot counts,
    and each forget's mask, which the kernels read in place of a layout,
    is the one rebuilt from its child's layouts and the graph."""
    res = run_dp(g, ntd, 1, retain_tables=True)
    assert len(res.tables) == len(ntd.nodes)
    for t in res.tables:
        assert (t.kc, t.kv) == (ntd.chk_slots, ntd.var_slots)
    check_masks(g, ntd)


def test_retained_tables_and_masks_match_nodes():
    # on make_nice of random and min-fill decompositions and on both
    # built-in routes
    rng = random.Random(84)
    for _ in range(60):
        g = random_graph(rng, max_var=10, max_chk=8)
        for ntd in (make_nice(g, random_td(g, rng)),
                    make_nice(g, heuristic_decomposition(g)),
                    heuristic_nice(g)):
            assert_tables_and_masks_match_nodes(g, ntd)
    params = ScLdpcParams(3, 4, 40, 2, var_degree=3, seed=1)
    g = generate_sc_ldpc(params)
    for ntd in (make_nice(g, sc_path_decomposition(g, params)),
                make_nice(g, heuristic_decomposition(g)),
                sc_path_nice(g, params), heuristic_nice(g)):
        assert_tables_and_masks_match_nodes(g, ntd)


def test_sc_routes_agree_beyond_brute_force():
    # n = 2560: far beyond brute force, so two unrelated decompositions
    # (the paper's path window and min-fill) check each other; the carried
    # witness is the integer-smallest minimizer, so it agrees too
    params = ScLdpcParams(3, 4, 640, 2, var_degree=3, seed=1)
    g = generate_sc_ldpc(params)
    answers = []
    for td in (sc_path_decomposition(g, params), heuristic_decomposition(g)):
        root = run_dp(g, make_nice(g, td), 2).root_table
        answers.append([root.answer(b) for b in range(3)])
    assert answers[0] == answers[1]
    assert all(answers[0])


def count_runs(monkeypatch):
    """The runs that run_dp hands to the multi-node kernels, in call order:
    a variable chain's elements or masks, and a stretch's kind bytes."""
    runs = []

    def recording(kernel):
        def call(child, run, *rest):
            runs.append(run)
            return kernel(child, run, *rest)
        return call

    for name in ("forget_variable", "introduce_variable", "stretch"):
        monkeypatch.setattr(dpcore, name, recording(getattr(dpcore, name)))
    return runs


def fuse_no_stretch(monkeypatch):
    """Have run_dp's freed run fuse no stretch: each node that a stretch
    would take runs on its own kernel, while variable chains still fuse."""
    monkeypatch.setattr(dpcore, "_stretch_top", lambda kinds, child, end: end)


def assert_fused_equals_per_node(g, ntd, b, runs):
    """The freed run (maximal variable chains and stretches) and the
    retained run (one-node chains) give the same root table, minimizers
    included.  ``runs`` keeps only the freed run's chains and stretches."""
    n = len(runs)
    per_node = run_dp(g, ntd, b, retain_tables=True).root_table
    assert all(len(run) == 1 for run in runs[n:])
    del runs[n:]
    fused = run_dp(g, ntd, b).root_table
    assert fused.entries == per_node.entries
    assert (fused.kc, fused.kv) == (per_node.kc, per_node.kv)


def test_fused_runs_match_per_node_kernels(monkeypatch):
    runs = count_runs(monkeypatch)
    rng = random.Random(83)
    for _ in range(60):
        g = random_graph(rng, max_var=10, max_chk=8)
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            assert_fused_equals_per_node(g, make_nice(g, td),
                                         rng.randint(0, 3), runs)
    assert sum(len(run) > 1 for run in runs) > 100
    assert any(len(run) > 2 for run in runs)


def test_fused_sc_path_matches_per_node_kernels(monkeypatch):
    runs = count_runs(monkeypatch)
    params = ScLdpcParams(3, 4, 40, 2, var_degree=3, seed=1)
    g = generate_sc_ldpc(params)
    assert_fused_equals_per_node(
        g, make_nice(g, sc_path_decomposition(g, params)), 2, runs)
    # one stretch per window step, and at the path's two ends the first
    # bag's introduce chain and the last bag's forget chain
    assert len(runs) == 40 + 1
    assert runs.count(PATH_STEP) == 40 - 1


# the nice nodes of one SC (3,4,L,2) window step: a variable block and a
# check block introduced, then a variable block and a check block forgotten
PATH_STEP = bytes([K_INTRO_VAR] * 4 + [K_INTRO_CHK] * 3
                  + [K_FORGET_VAR] * 4 + [K_FORGET_CHK] * 3)


def node_by_node(child, kinds, elems, slots, masks, cap):
    """A stretch's nodes run one at a time by the per-node kernels."""
    t = child
    for kind, v, slot, mask in zip(kinds, elems, slots, masks):
        if kind == K_INTRO_VAR:
            t = introduce_variable(t, [v], [slot], cap)
        elif kind == K_INTRO_CHK:
            t = introduce_check(t)
        elif kind == K_FORGET_VAR:
            t = forget_variable(t, [mask])
        else:
            t = forget_check(t, mask, cap)
    return t


def stretches(ntd):
    """(start, stop) of every column slice that is a stretch: a maximal
    chain of introduce-variable nodes, introduce-check nodes, then forget
    nodes of either namespace, each the child of the next, cut anywhere in
    the forgets."""
    kinds, child = ntd.kind, ntd.child
    for start, kind in enumerate(kinds):
        if kind != K_INTRO_VAR or kinds[child[start]] == K_INTRO_VAR:
            continue
        stage = 0                     # 0: introduces, 1: forgets
        for top in range(start + 1, len(kinds)):
            if child[top] != top - 1:
                break
            kind = kinds[top]
            if kind in (K_FORGET_VAR, K_FORGET_CHK):
                stage = 1
                yield start, top + 1
            elif kind == K_JOIN or kind == K_LEAF or stage \
                    or kind == K_INTRO_VAR and kinds[top - 1] != K_INTRO_VAR:
                break


def test_stretch_equals_node_by_node():
    # the one-pass kernel gives the table of its nodes run one at a time,
    # minimizers included, under the same cap: on every stretch of random
    # nice forms and of a w = 3 SC path, from the retained run's table
    # below it, uncapped and under random caps that never increase in d,
    # -1 among them; the caps that differ in d drop entries.  The stretches
    # cover each case of the linear map: a child variable forgotten, a
    # forgotten check from the child's bag, a forgotten check meeting a
    # staying child variable, and no child bit changed
    rng = random.Random(92)
    cases = []
    for _ in range(100):
        g = random_graph(rng, max_var=10, max_chk=8)
        cases += [(g, make_nice(g, td), rng.randint(0, 3))
                  for td in (random_td(g, rng), single_bag_td(g),
                             heuristic_decomposition(g))]
    for seed in (5, 6):
        params = ScLdpcParams(2, 3, 6, 3, var_degree=3, seed=seed)
        g = generate_sc_ldpc(params)
        cases += [(g, sc_path_nice(g, params), b) for b in range(4)]
    seen = {"flip": 0, "old check": 0, "reads": 0, "no change": 0}
    dropped = 0                       # by per-d caps
    for g, ntd, b in cases:
        tables = run_dp(g, ntd, b, retain_tables=True).tables
        nodes = ntd.nodes
        for start, stop in stretches(ntd):
            cols = (ntd.kind[start:stop], ntd.elem[start:stop],
                    ntd.slot[start:stop], ntd.mask[start:stop])
            child = tables[ntd.child[start]]
            cap = sorted((rng.randint(-1, 5) for _ in range(b + 1)),
                         reverse=True)
            full, one = (stretch(child, *cols, c) for c in (uncapped(b), cap))
            for c, t in ((uncapped(b), full), (cap, one)):
                assert t.entries == node_by_node(child, *cols, c).entries
                assert (t.kc, t.kv) == (child.kc, child.kv)
            if len(set(cap)) > 1:
                dropped += len(full.entries) - len(one.entries)
            below = nodes[ntd.child[start]]
            new_c = {e for k, e in zip(cols[0], cols[1])
                     if k == K_INTRO_CHK}
            gone_v = {e for k, e in zip(cols[0], cols[1])
                      if k == K_FORGET_VAR}
            gone_c = {e for k, e in zip(cols[0], cols[1])
                      if k == K_FORGET_CHK}
            kept_v = set(below.var_at) - gone_v - {-1}
            flip = bool(gone_v & set(below.var_at))
            old_check = bool(gone_c - new_c)
            reads = any(v in kept_v for c in gone_c
                        for v in g.chk_adj[c])
            seen["flip"] += flip
            seen["old check"] += old_check
            seen["reads"] += reads
            seen["no change"] += not (flip or old_check or reads)
    assert min(seen.values()) > 50, seen
    assert dropped > 10000


@pytest.mark.parametrize("shape", [(3, 4, 1, 2, 3), (3, 4, 2, 3, 3),
                                   (3, 6, 12, 3, 3), (4, 8, 10, 2, 4)])
def test_fused_stretches_match_per_node_kernels_on_sc_paths(monkeypatch,
                                                            shape):
    # L = 1, w > L, a window of width 20 and an even degree (the parity
    # caps, odd b' with no set): at b = 0..3 the freed run with its
    # stretches gives the root table of the freed run without them and
    # the syndrome trellis's answers, minimizers included; where the width
    # allows, the retained run's root table too
    r, c, length, w, degree = shape
    params = ScLdpcParams(r, c, length, w, var_degree=degree, seed=5)
    g = generate_sc_ldpc(params)
    ntd = sc_path_nice(g, params)
    expected = trellis_spectrum(g, 3)
    runs = count_runs(monkeypatch)
    for b in range(4):
        root = run_dp(g, ntd, b).root_table
        assert [root.answer(d) for d in range(b + 1)] == expected[:b + 1]
        with monkeypatch.context() as m:
            fuse_no_stretch(m)
            assert run_dp(g, ntd, b).root_table.entries == root.entries
        if ntd.width() <= 12:
            assert run_dp(g, ntd, b, retain_tables=True).root_table.entries \
                == root.entries
    # a stretch per window step that forgets a variable block after
    # introducing one
    assert sum(isinstance(run, bytes) for run in runs) \
        == 4 * max(0, length - w + 1)


def test_fused_stretches_match_retained_runs_at_every_b(monkeypatch):
    # random graphs on random_td, one bag and min-fill, at each b = 0..3
    runs = count_runs(monkeypatch)
    rng = random.Random(93)
    for _ in range(40):
        g = random_graph(rng, max_var=10, max_chk=8)
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            ntd = make_nice(g, td)
            for b in range(4):
                assert_fused_equals_per_node(g, ntd, b, runs)
    assert sum(isinstance(run, bytes) for run in runs) > 100


def test_path_steps_run_as_one_stretch_pass(monkeypatch):
    # on SC (3,4,40,2) every window step but the path's two end chains is
    # one stretch pass, and the kernels output over 5x fewer entries per
    # variable than with every node run by its own kernel (measured at
    # L = 640: 12,020 against 142,187)
    params = ScLdpcParams(3, 4, 40, 2, var_degree=3, seed=1)
    g = generate_sc_ldpc(params)
    ntd = sc_path_nice(g, params)
    runs = count_runs(monkeypatch)
    _, sizes = record_kernels(monkeypatch)
    root = run_dp(g, ntd, 2).root_table
    assert runs.count(PATH_STEP) == len(runs) - 2 == 40 - 1
    fused = sum(sizes)
    sizes.clear()
    fuse_no_stretch(monkeypatch)
    assert run_dp(g, ntd, 2).root_table.entries == root.entries
    assert fused * 5 <= sum(sizes)


def record_kernels(monkeypatch):
    """The cap that run_dp hands each introduce_variable, forget_check,
    join and stretch call, and the size of every table the kernels return,
    introduce_check's excepted (it shares its child's entries)."""
    caps, sizes = [], []

    def recording(kernel, at):
        def call(*args):
            if at is not None:
                caps.append(args[at])
            table = kernel(*args)
            sizes.append(len(table.entries))
            return table
        return call

    for name, at in (("introduce_variable", 3), ("join", 2),
                     ("forget_variable", None), ("forget_check", 2),
                     ("stretch", 5)):
        monkeypatch.setattr(dpcore, name,
                            recording(getattr(dpcore, name), at))
    return caps, sizes


def bounded(cap):
    """Whether a kernel's cap bounds f at some d."""
    return min(cap) < sys.maxsize


def test_capped_root_tables_equal_uncapped(monkeypatch):
    # the freed run prunes entries above its cap and the retained run never
    # prunes; the root tables agree, minimizers included, on runs where the
    # cap engages at some d, among them runs where some b' <= b has no set,
    # so the cap stays unbounded at every d <= b'.  No stretch is fused, so
    # each node's kernel reads the cap as it stands at that node (a
    # stretch reads it once for all its nodes; its caps are tested in
    # test_stretch_equals_node_by_node and the two tests below)
    caps, _ = record_kernels(monkeypatch)
    fuse_no_stretch(monkeypatch)
    rng = random.Random(86)
    engaged = partial = 0
    for _ in range(300):
        g = random_graph(rng, max_var=9, max_chk=7)
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            ntd = make_nice(g, td)
            for b in range(4):
                full = run_dp(g, ntd, b, retain_tables=True).root_table
                assert not any(map(bounded, caps))
                capped = run_dp(g, ntd, b).root_table
                assert capped.entries == full.entries
                if any(map(bounded, caps)):
                    engaged += 1
                    partial += None in map(full.answer, range(b + 1))
                caps.clear()
    assert engaged > 2000 and partial > 200


def test_per_d_cap_engages_without_codewords(monkeypatch):
    # with no codeword, U[0] is never known and cap[0] stays unbounded, but
    # cap[1..b] bound f: forget_check drops entries whose d rises past
    # their cap, it keeps every entry at or below its cap exactly, and the
    # root table is the retained run's, minimizers included.  No stretch
    # is fused: over these runs stretches dropped no entry, and their
    # per-d caps are tested in test_stretch_equals_node_by_node
    drops = checked = 0

    def capped_forget_check(child, mask, cap):
        nonlocal drops
        table = forget_check(child, mask, cap)
        full = forget_check(child, mask, uncapped(len(cap) - 1))
        shift = child.kc + child.kv
        for k, ent in full.entries.items():
            if ent[0] <= cap[k >> shift]:
                assert table.entries[k] == ent
        drops += len(full.entries.keys() - table.entries.keys())
        return table

    monkeypatch.setattr(dpcore, "forget_check", capped_forget_check)
    fuse_no_stretch(monkeypatch)
    rng = random.Random(90)
    while checked < 300:
        g = random_graph(rng, max_var=9, max_chk=9)
        if brute_force_spectrum(g, 0) is not None \
                or brute_force_spectrum(g, 1) is None:
            continue
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            ntd = make_nice(g, td)
            for b in (1, 2, 3):
                full = run_dp(g, ntd, b, retain_tables=True).root_table
                assert full.answer(0) is None
                assert run_dp(g, ntd, b).root_table.entries == full.entries
                checked += 1
    assert drops > 100


def test_cap_engages_on_sc_path(monkeypatch):
    # uncapped, fusing the variable chains alone keeps 35% of the retained
    # run's entries (201845 of 577796); one cap max(U) for every d would keep
    # 9% (49670) and the per-d cap keeps 6% (35913), so a cap that is never
    # set, never reaches the kernels or is not per d fails here
    params = ScLdpcParams(3, 4, 160, 2, var_degree=3, seed=1)
    g = generate_sc_ldpc(params)
    ntd = make_nice(g, sc_path_decomposition(g, params))
    retained = run_dp(g, ntd, 2, retain_tables=True)
    kept = sum(len(t.entries) for n, t in zip(ntd.nodes, retained.tables)
               if n.kind != INTRO_CHK)
    caps, sizes = record_kernels(monkeypatch)
    root = run_dp(g, ntd, 2).root_table
    assert root.entries == retained.root_table.entries
    assert any(map(bounded, caps))
    assert sum(sizes) < kept / 15


def test_path_route_counts_per_variable_stay_flat(monkeypatch):
    # the paper's linear-time claim in counts rather than wall clock, so a
    # slow machine phase cannot fail it: from L = 160 to L = 1280 on the
    # path route, nice nodes and kernel-output entries per variable stay
    # within a fixed factor of L = 160 (measured: 3.51 -> 3.50 nodes and
    # 4.69 -> 4.68 entries per variable), and so does the largest table
    _, sizes = record_kernels(monkeypatch)
    per_var = []
    for length in (160, 320, 640, 1280):
        params = ScLdpcParams(3, 4, length, 2, var_degree=3, seed=1)
        g = generate_sc_ldpc(params)
        ntd = make_nice(g, sc_path_decomposition(g, params))
        sizes.clear()
        run_dp(g, ntd, 2)
        per_var.append((len(ntd.nodes) / g.n_var, sum(sizes) / g.n_var,
                        max(sizes)))
    nodes0, entries0, peak0 = per_var[0]
    for nodes, entries, peak in per_var[1:]:
        assert nodes0 / 1.05 <= nodes <= nodes0 * 1.05
        assert entries0 / 1.25 <= entries <= entries0 * 1.25
        assert peak <= peak0 * 1.5


def test_min_fill_route_counts_per_variable_stay_flat():
    # make_nice folds the leaf bags that fit into their parent's chain, so
    # the default route keeps about 4.2 nice nodes and 0.11-0.12 joins per
    # variable from L = 160 to L = 1280 (without the fold: 8.0 and 0.72)
    per_var = []
    for length in (160, 320, 640, 1280):
        g = generate_sc_ldpc(ScLdpcParams(3, 4, length, 2, var_degree=3,
                                          seed=1))
        ntd = make_nice(g, heuristic_decomposition(g))
        per_var.append((len(ntd.kind) / g.n_var,
                        ntd.kind.count(K_JOIN) / g.n_var))
    nodes0 = per_var[0][0]
    for nodes, joins in per_var:
        assert nodes0 / 1.05 <= nodes <= nodes0 * 1.05 and nodes < 4.5
        assert joins < 0.15


def test_leaf_and_introduce_tables_keep_every_answer():
    # run_dp reads U only after forget and join tables; that is exact
    # because a leaf table is empty and an introduce table's answer(d) is
    # its child's
    rng = random.Random(88)
    hits = 0
    for _ in range(60):
        g = random_graph(rng, max_var=10, max_chk=8)
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            ntd = make_nice(g, td)
            b = rng.randint(0, 3)
            tables = run_dp(g, ntd, b, retain_tables=True).tables
            for nd, t in zip(ntd.nodes, tables):
                if nd.kind == LEAF:
                    assert not t.entries
                elif nd.kind in (INTRO_VAR, INTRO_CHK):
                    child = tables[nd.children[0]]
                    for d in range(-1, b + 2):
                        assert t.answer(d) == child.answer(d)
                        hits += t.answer(d) is not None
    assert hits > 500


def test_freed_run_caps_equal_reading_every_table(monkeypatch):
    # the cap each introduce_variable, forget_check, join and stretch call
    # gets is, at each d, the max of U[b'] over the b' in d..min(b, n_chk)
    # that can have a set, with U lowered by the answer(d) of every table built
    # before it, whatever its kind; unbounded while some of those U[b'] is
    # unknown, and -1 when there are none.  Every b' can have a set,
    # except an odd b' when every variable degree is even.  Each case runs
    # with no stretch fused, where the per-node kernels' caps are counted,
    # and with stretches, where the stretches' caps are.
    calls = []                        # (kernel, cap or None, table) in order

    def recording(kernel, at):
        def call(*args):
            table = kernel(*args)
            calls.append((kernel.__name__,
                          None if at is None else args[at], table))
            return table
        return call

    for name, at in (("introduce_variable", 3),
                     ("forget_variable", None), ("introduce_check", None),
                     ("forget_check", 2), ("join", 2),
                     ("introduce_forget_variable", 3), ("stretch", 5)):
        monkeypatch.setattr(dpcore, name,
                            recording(getattr(dpcore, name), at))
    rng = random.Random(89)
    engaged = per_d = parity = stretched = 0
    for _ in range(150):
        g = random_graph(rng, max_var=9, max_chk=7)
        even = all(len(cs) % 2 == 0 for cs in g.var_adj)
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            ntd = make_nice(g, td)
            for b, fused in itertools.product(range(4), (False, True)):
                calls.clear()
                with monkeypatch.context() as m:
                    if not fused:
                        fuse_no_stretch(m)
                    run_dp(g, ntd, b)
                top = min(b, g.n_chk)       # the b the pass runs at
                best = [None] * (top + 1)
                for name, cap, t in calls:
                    if cap is not None:
                        expected = []
                        for d in range(top + 1):
                            known = [best[b2] for b2 in range(d, top + 1)
                                     if not (even and b2 % 2)]
                            expected.append(sys.maxsize if None in known
                                            else max(known, default=-1))
                        assert list(cap) == expected
                        if fused:
                            stretched += name == "stretch" and bounded(cap)
                        else:
                            engaged += bounded(cap)
                            per_d += len(set(cap)) > 1
                            parity += even and top % 2 == 1
                    for d in range(top + 1):
                        ent = t.answer(d)
                        if ent is not None and (best[d] is None
                                                or ent[0] < best[d]):
                            best[d] = ent[0]
    assert engaged > 5000 and per_d > 1500 and parity > 500
    assert stretched > 15


def test_a_b_above_the_check_count_runs_at_the_check_count(monkeypatch):
    # no set has more odd checks than the graph has checks, so however
    # large b is, every cap list a kernel gets holds at most n_chk + 1
    # entries, and the root table at b = n_chk + 10**5 is the one at n_chk,
    # with no answer at that b
    caps, _ = record_kernels(monkeypatch)
    rng = random.Random(95)
    params = ScLdpcParams(3, 4, 6, 2, var_degree=3, seed=2)
    sc = generate_sc_ldpc(params)
    cases = [(sc, sc_path_nice(sc, params)), (sc, heuristic_nice(sc))]
    no_checks = TannerGraph.from_check_adj(2, 0, [])
    cases.append((no_checks, make_nice(no_checks, single_bag_td(no_checks))))
    for _ in range(20):
        g = random_graph(rng, max_var=8, max_chk=6)
        cases.append((g, make_nice(g, random_td(g, rng))))
    for g, ntd in cases:
        for retain in (False, True):
            want = run_dp(g, ntd, g.n_chk, retain_tables=retain)
            caps.clear()
            got = run_dp(g, ntd, g.n_chk + 10**5, retain_tables=retain)
            assert caps and max(map(len, caps)) <= g.n_chk + 1
            assert got.root_table.entries == want.root_table.entries
            assert (got.a_min, got.count) == (None, None)


def random_even_graph(rng: random.Random, max_var=9,
                      max_chk=7) -> TannerGraph:
    """Random graph in which every variable has an even degree."""
    n, m = rng.randint(1, max_var), rng.randint(2, max_chk)
    adj = [[] for _ in range(m)]
    for v in range(n):
        for c in rng.sample(range(m), 2 * rng.randint(0, m // 2)):
            adj[c].append(v)
    return TannerGraph.from_check_adj(n, m, [sorted(a) for a in adj])


def test_parity_caps_keep_root_tables_on_even_degree_graphs(monkeypatch):
    # with every degree even no odd b' has a set, so the freed run prunes
    # every entry at an odd d = b outright and caps the d below it by the
    # even b' alone; its root tables stay the retained run's
    caps, _ = record_kernels(monkeypatch)
    rng = random.Random(91)
    pruned = odd = 0
    for _ in range(200):
        g = random_even_graph(rng)
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            ntd = make_nice(g, td)
            for b in range(4):
                full = run_dp(g, ntd, b, retain_tables=True).root_table
                assert all(full.answer(d) is None for d in range(1, b + 1, 2))
                caps.clear()
                assert run_dp(g, ntd, b).root_table.entries == full.entries
                pruned += any(cap[-1] == -1 for cap in caps)
                odd += min(b, g.n_chk) % 2
    # every run at an odd b hands cap[b] = -1 to its kernels; a b above
    # n_chk runs at n_chk
    assert pruned == odd > 1000


@pytest.mark.parametrize("route", ["path", "min-fill"])
def test_parity_caps_on_even_degree_sc_code(monkeypatch, route):
    # a degree-4 SC code: the capped runs at b = 0..3 keep the retained
    # run's root tables and agree with the syndrome trellis, which has no
    # sets at odd b; at b = 1 and 3 the parity rule prunes most entries
    params = ScLdpcParams(3, 6, 20, 2, var_degree=4, seed=1)
    g = generate_sc_ldpc(params)
    td = sc_path_decomposition(g, params) if route == "path" \
        else heuristic_decomposition(g)
    ntd = make_nice(g, td)
    expected = trellis_spectrum(g, 3)
    assert expected[1] is None and expected[3] is None
    assert expected[0] is not None and expected[2] is not None
    for b in range(4):
        full = run_dp(g, ntd, b, retain_tables=True).root_table
        root = run_dp(g, ntd, b).root_table
        assert root.entries == full.entries
        assert [root.answer(d) for d in range(b + 1)] == expected[:b + 1]
    _, sizes = record_kernels(monkeypatch)
    run_dp(g, ntd, 3)
    with_parity = sum(sizes)
    sizes.clear()
    caps = dpcore._caps
    monkeypatch.setattr(dpcore, "_caps",
                        lambda best, even_only: caps(best, False))
    run_dp(g, ntd, 3)
    assert with_parity < sum(sizes) / 2


def test_root_table_answers_every_smaller_b():
    rng = random.Random(81)
    for _ in range(80):
        g = random_graph(rng, max_var=10, max_chk=8)
        ntd = make_nice(g, random_td(g, rng))
        root = run_dp(g, ntd, 3).root_table
        for b in range(4):
            res = run_dp(g, ntd, b)
            entry = root.answer(b)
            assert (entry[:2] if entry else None) == \
                ((res.a_min, res.count) if res.found else None)


def test_answer_reads_only_the_empty_key_at_d():
    # c7 meets v1 and v3; the bag holds v5, v3 and c7 in 3 + 2 slots
    g = TannerGraph.from_check_adj(6, 8, [[]] * 7 + [[1, 3]])
    t = table(g, (5, -1, 3), (-1, 7), {
        (1 << 7, 1 << 3, 2): (2, 1, 0b11000),   # J = 0, Q = {v3}
        (1 << 7, 0, 2): (1, 1, 0b10),           # J = {c7}, Q = 0
        (0, 0, 1): (4, 2, 0b110001),            # J = Q = 0
        (0, 1 << 5, 0): (1, 1, 0b100000),       # key 1 << kc
        (1 << 7, 1 << 3, 0): (1, 1, 0b1000),    # key 2 << kv
    })
    # c7 is odd through its bag neighbour v3 alone, so its J bit is 0
    assert 0b100 << 2 | 2 << 5 in t.entries
    assert t.answer(1) == (4, 2, 0b110001)
    assert t.answer(2) is None
    assert t.answer(0) is None and t.answer(3) is None
    assert t.answer(-1) is None


def test_answer_is_the_empty_state_of_every_table():
    rng = random.Random(85)
    hits = 0
    for _ in range(30):
        g = random_graph(rng, max_var=10, max_chk=8)
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            ntd = make_nice(g, td)
            for b in range(4):
                tables = run_dp(g, ntd, b, retain_tables=True).tables
                for node, t in zip(ntd.nodes, tables):
                    by_state = states(t, g, node.var_at, node.chk_at)
                    for d in range(-1, b + 2):
                        assert t.answer(d) == by_state.get((0, 0, d))
                        hits += t.answer(d) is not None
    assert hits > 1000


def test_fold_pass_matches_the_two_kernels_and_a_retained_run(monkeypatch):
    # run_dp gives each one-variable introduce whose parent forgets that
    # variable one introduce_forget_variable pass: its table is the one the
    # two kernels give under the same cap, and the root tables equal a
    # retained run's, which goes node by node
    passes = []
    fold = dpcore.introduce_forget_variable

    def checked(child, v, mask, cap):
        table = fold(child, v, mask, cap)
        slot = (mask >> child.kc).bit_length() - 1
        two = forget_variable(introduce_variable(child, [v], [slot], cap),
                              [mask])
        assert table.entries == two.entries
        assert (table.kc, table.kv) == (two.kc, two.kv)
        passes.append(v)
        return table

    monkeypatch.setattr(dpcore, "introduce_forget_variable", checked)
    rng = random.Random(97)
    cases = []
    for _ in range(60):
        g = random_graph(rng, max_var=10, max_chk=8)
        cases += [(g, heuristic_nice(g), rng.randint(0, 3)),
                  (g, make_nice(g, random_td(g, rng)), rng.randint(0, 3))]
    g = generate_sc_ldpc(ScLdpcParams(3, 4, 160, 2, var_degree=3, seed=1))
    cases.append((g, heuristic_nice(g), 2))
    for g, ntd, b in cases:
        retained = run_dp(g, ntd, b, retain_tables=True).root_table
        n = len(passes)
        assert run_dp(g, ntd, b).root_table.entries == retained.entries
        assert len(passes) > n or g.n_var < 160
    assert len(passes) > 100


def test_fold_pass_bag_mismatch():
    # a one-variable fold, introduce v0 then forget it, inside a bag that
    # already holds v0: the walk finds v0 forgotten twice
    g = TannerGraph.from_matrix([[1, 1]])
    assert walk_fault(g, [(K_LEAF, -1, ()), (K_INTRO_VAR, 0, (0,)),
                          (K_INTRO_VAR, 0, (1,)), (K_FORGET_VAR, 0, (2,)),
                          (K_FORGET_VAR, 0, (3,)), (K_INTRO_VAR, 1, (4,)),
                          (K_FORGET_VAR, 1, (5,)), (K_INTRO_CHK, 0, (6,)),
                          (K_FORGET_CHK, 0, (7,))], 2, 1) == (
        "v0 is forgotten twice",)
