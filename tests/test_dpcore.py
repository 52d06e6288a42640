import random

import pytest

from trapgraph.decomp import heuristic_decomposition, make_nice
from trapgraph.dpcore import (
    DPTable,
    forget_check,
    forget_variable,
    introduce_check,
    introduce_variable,
    join,
    leaf_table,
    min_distance,
    run_dp,
)
from trapgraph.oracle import brute_force_spectrum
from trapgraph.tanner import TannerGraph
from helpers import (
    HAMMING_74,
    min_weight_and_count,
    random_graph,
    random_td,
    run_dp_b0,
    single_bag_td,
)


def nice_for(g):
    return make_nice(g, heuristic_decomposition(g))


def table(var_at, chk_at, states=()):
    """A DPTable with the given slot layout and global-id (I, Q, d) states."""
    t = DPTable(var_at, chk_at)
    for key, ent in dict(states).items():
        t.entries[t.encode(key)] = ent
    return t


def states(t):
    """The table's entries keyed by global-id (I, Q, d)."""
    return {t.decode(k): ent for k, ent in t.entries.items()}


def test_leaf_table_is_empty():
    t = leaf_table(2, 1)
    assert t.entries == {}
    assert (t.var_at, t.chk_at) == ((-1, -1), (-1,))
    assert t.get((0, 0, 0)) is None


def test_introduce_variable_base_case():
    # empty child, v0 adjacent to bag check c0
    g = TannerGraph.from_matrix([[1, 1]])
    child = table((-1,), (0,))
    t = introduce_variable(child, 0, 0, g)
    # packed key: I slot 0 is bit 0, Q slot 0 sits above the one check slot
    assert t.entries == {0b11: (1, 1, 0b1)}
    assert states(t) == {(0b1, 0b1, 0): (1, 1, 0b1)}
    assert t.var_at == (0,)


def test_introduce_variable_keeps_and_extends():
    g = TannerGraph.from_matrix([[1, 1]])
    child = table((-1, 1), (0,), {(0b1, 0b10, 0): (1, 1, 0b10)})
    t = introduce_variable(child, 0, 0, g)
    # kept entry, extension with xor of shared check, and the base entry
    assert states(t) == {
        (0b1, 0b10, 0): (1, 1, 0b10),
        (0b0, 0b11, 0): (2, 1, 0b11),
        (0b1, 0b01, 0): (1, 1, 0b01),
    }


def test_introduce_variable_skips_forgotten_codeword_state():
    g = TannerGraph.from_matrix([[1, 1]])
    child = table((-1,), (0,), {(0, 0, 0): (4, 7, 0b11110)})
    t = introduce_variable(child, 0, 0, g)
    # (0,0,0) survives but is not extended; only {v} realizes the base key
    assert states(t) == {(0, 0, 0): (4, 7, 0b11110),
                         (0b1, 0b1, 0): (1, 1, 0b1)}


def test_introduce_variable_bag_mismatch():
    g = TannerGraph.from_matrix([[1, 1]])
    with pytest.raises(ValueError, match="mismatch"):
        introduce_variable(table((0, -1), ()), 0, 1, g)     # already in bag
    with pytest.raises(ValueError, match="mismatch"):
        introduce_variable(table((1,), ()), 0, 0, g)        # slot taken
    with pytest.raises(ValueError, match="mismatch"):
        forget_variable(table((1,), ()), 0, 0)              # not at slot


def test_forget_variable_merges_counts():
    # on a tie the counts add and the first minimizer reached is kept
    child = table((0,), (0,), {
        (0b1, 0b1, 0): (3, 2, 0b111),
        (0b1, 0b0, 0): (3, 5, 0b1110),
    })
    t = forget_variable(child, 0, 0)
    assert states(t) == {(0b1, 0, 0): (3, 7, 0b111)}
    assert t.var_at == (-1,)


def test_forget_variable_strict_minimum():
    child = table((0,), (0,), {
        (0b1, 0b0, 0): (5, 9, 0b111110),
        (0b1, 0b1, 0): (2, 1, 0b11),
    })
    t = forget_variable(child, 0, 0)
    assert states(t) == {(0b1, 0, 0): (2, 1, 0b11)}


def test_introduce_check_parity_cases():
    g = TannerGraph.from_matrix([[1, 1, 0]])
    child = table((0, 1, 2), (-1,), {
        (0, 0b001, 0): (1, 1, 0b001),       # c0 adjacent to v0: odd
        (0, 0b011, 0): (2, 1, 0b011),       # adjacent to both: even
        (0, 0b000, 1): (3, 4, 0b111000),    # empty Q: always even
    })
    t = introduce_check(child, 0, 0, g)
    assert states(t) == {
        (0b1, 0b001, 0): (1, 1, 0b001),
        (0, 0b011, 0): (2, 1, 0b011),
        (0, 0b000, 1): (3, 4, 0b111000),
    }


def test_forget_check_drops_when_budget_exhausted():
    child = table((0,), (0,), {(0b1, 0b1, 0): (1, 1, 0b1)})
    t = forget_check(child, 0, 0, 0)
    assert t.entries == {}


def test_forget_check_increments_d_and_merges():
    child = table((0,), (0,), {(0b1, 0b1, 0): (1, 1, 0b1)})
    t = forget_check(child, 0, 0, 1)
    assert states(t) == {(0, 0b1, 1): (1, 1, 0b1)}
    child2 = table((0,), (0,), {
        (0b1, 0b1, 0): (4, 2, 0b1111),
        (0b0, 0b1, 1): (4, 3, 0b11101),
    })
    t2 = forget_check(child2, 0, 0, 1)
    assert states(t2) == {(0, 0b1, 1): (4, 5, 0b1111)}


def test_join_shared_members_counted_once():
    g = TannerGraph.from_matrix([[1]])
    left = table((0,), (0,), {(0b1, 0b1, 0): (1, 1, 0b1)})
    right = table((0,), (0,), {(0b1, 0b1, 0): (1, 1, 0b1)})
    t = join(left, right, g, 0)
    assert states(t) == {(0b1, 0b1, 0): (1, 1, 0b1)}


def test_join_single_side_codeword_survives():
    g = TannerGraph.from_matrix([[1]])
    left = table((), (), {(0, 0, 0): (4, 7, 0b11110)})
    t = join(left, table((), ()), g, 0)
    assert states(t) == {(0, 0, 0): (4, 7, 0b11110)}


def test_join_requires_matching_bags():
    g = TannerGraph.from_matrix([[1]])
    with pytest.raises(ValueError, match="bag"):
        join(table((0,), ()), table((-1,), ()), g, 0)


def test_join_with_empty_table_is_identity_on_codeword_states():
    g = TannerGraph.from_matrix([[1, 1]])
    left = table((), (), {(0, 0, 0): (2, 1, 0b11), (0, 0, 1): (1, 2, 0b1)})
    t = join(left, table((), ()), g, 2)
    assert t.entries == left.entries


def test_repetition_code():
    g = TannerGraph.from_matrix([[1, 1]])
    res = run_dp(g, nice_for(g), 0)
    assert (res.a_min, res.count) == (2, 1)


def test_chain_code_min_distance():
    g = TannerGraph.from_matrix([[1, 1, 0], [0, 1, 1]])
    res = min_distance(g, nice_for(g))
    assert (res.a_min, res.count) == (3, 1)


def test_hamming_74():
    g = TannerGraph.from_matrix(HAMMING_74)
    expected = min_weight_and_count(HAMMING_74)
    assert expected == (3, 7)
    res = min_distance(g, nice_for(g))
    assert (res.a_min, res.count) == expected


def test_zero_code_has_no_result():
    g = TannerGraph.from_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = min_distance(g, nice_for(g))
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
        assert all(e["d"] == 0 for e in table.to_json()["entries"])


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


def test_root_table_answers_every_smaller_b():
    rng = random.Random(81)
    for _ in range(80):
        g = random_graph(rng, max_var=10, max_chk=8)
        ntd = make_nice(g, random_td(g, rng))
        root = run_dp(g, ntd, 3).root_table
        for b in range(4):
            res = run_dp(g, ntd, b)
            entry = root.get((0, 0, b))
            assert (entry[:2] if entry else None) == \
                ((res.a_min, res.count) if res.found else None)


def test_table_json_dump():
    t = table((0, 2), (0,), {(0b1, 0b100, 1): (2, 10**30, 0b10100)})
    doc = t.to_json()
    assert doc["bag_v"] == [0, 2]
    assert doc["entries"] == [
        {"I": [0], "Q": [2], "d": 1, "f": 2, "g": str(10**30), "w": [2, 4]}]


def test_get_reads_global_keys_through_the_layout():
    t = table((5, -1, 3), (-1, 7), {(1 << 7, 1 << 3, 2): (2, 1, 0b11000)})
    (packed,) = t.entries
    assert packed == 0b10 | 0b100 << 2 | 2 << 5
    assert t.decode(packed) == (1 << 7, 1 << 3, 2)
    assert t.get((1 << 7, 1 << 3, 2)) == (2, 1, 0b11000)
    assert t.get((1 << 7, 1 << 4, 2)) is None      # v4 is not in the bag
    assert t.get((1 << 7, 1 << 3, 1)) is None
