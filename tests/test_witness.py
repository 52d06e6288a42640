import random

import pytest

from trapgraph.decomp import heuristic_decomposition, make_nice
from trapgraph.dpcore import run_dp
from trapgraph.oracle import brute_force_enumerate
from trapgraph.tanner import TannerGraph, gamma_odd
from trapgraph.witness import WitnessError, extract_witness
from helpers import (
    HAMMING_74,
    is_codeword_support,
    random_graph,
    random_td,
    single_bag_td,
)


def solve_with_witness(g, ntd, b):
    res = run_dp(g, ntd, b)
    if not res.found:
        return res, None
    return res, extract_witness(g, ntd, b, res.tables)


def test_repetition_code_witness():
    g = TannerGraph.from_matrix([[1, 1]])
    ntd = make_nice(g, heuristic_decomposition(g))
    res, w = solve_with_witness(g, ntd, 0)
    assert w == frozenset({0, 1})


def test_hamming_witness_is_one_of_the_seven():
    g = TannerGraph.from_matrix(HAMMING_74)
    ntd = make_nice(g, heuristic_decomposition(g))
    res, w = solve_with_witness(g, ntd, 0)
    assert (res.a_min, res.count) == (3, 7)
    supports = {frozenset(r.members) for r in brute_force_enumerate(g, 3, 0)}
    assert w in supports
    assert is_codeword_support(g, w)


def test_witness_validity_fuzz():
    rng = random.Random(91)
    for _ in range(120):
        g = random_graph(rng, max_var=10, max_chk=8)
        ntd = make_nice(g, random_td(g, rng))
        for b in (0, 1, 2):
            res, w = solve_with_witness(g, ntd, b)
            if w is None:
                continue
            assert len(w) == res.a_min
            assert len(gamma_odd(g, w)) == b
            if b == 0:
                assert is_codeword_support(g, w)


def test_witness_deterministic():
    rng = random.Random(92)
    for _ in range(30):
        g = random_graph(rng, max_var=9, max_chk=7)
        ntd = make_nice(g, random_td(g, rng))
        first = solve_with_witness(g, ntd, 1)[1]
        second = solve_with_witness(g, ntd, 1)[1]
        assert first == second


def test_one_pass_witness_is_a_minimizer_for_every_b():
    rng = random.Random(93)
    for _ in range(60):
        g = random_graph(rng, max_var=9, max_chk=7)
        ntd = make_nice(g, random_td(g, rng))
        res = run_dp(g, ntd, 3)
        for b in range(4):
            entry = res.root_table.answer(b)
            if entry is None:
                continue
            a_min = entry[0]
            minimizers = {frozenset(r.members)
                          for r in brute_force_enumerate(g, a_min, b)
                          if r.a == a_min}
            assert extract_witness(g, ntd, b, res.tables) in minimizers


def test_witness_is_smallest_minimizer():
    # the carried minimizer is the integer-smallest one, whatever the
    # decomposition and whether or not runs of nodes are fused
    rng = random.Random(95)
    for _ in range(40):
        g = random_graph(rng, max_var=9, max_chk=7)
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            ntd = make_nice(g, td)
            for retain in (False, True):
                res = run_dp(g, ntd, 2, retain_tables=retain)
                for b in range(3):
                    entry = res.root_table.answer(b)
                    if entry is None:
                        continue
                    # no set smaller than a_min has b odd checks
                    minimizers = brute_force_enumerate(g, entry[0], b)
                    smallest = min(sum(1 << v for v in r.members)
                                   for r in minimizers)
                    w = extract_witness(g, ntd, b, res.tables)
                    assert sum(1 << v for v in w) == smallest


def test_retained_run_gives_the_same_witness():
    rng = random.Random(94)
    for _ in range(40):
        g = random_graph(rng, max_var=10, max_chk=8)
        ntd = make_nice(g, random_td(g, rng))
        freed = run_dp(g, ntd, 2)
        kept = run_dp(g, ntd, 2, retain_tables=True)
        for b in range(3):
            if freed.root_table.answer(b) is None:
                continue
            assert extract_witness(g, ntd, b, freed.tables) == \
                extract_witness(g, ntd, b, kept.tables)


def test_only_root_table_kept_without_retention():
    g = TannerGraph.from_matrix(HAMMING_74)
    ntd = make_nice(g, heuristic_decomposition(g))
    res = run_dp(g, ntd, 1)
    assert res.tables[ntd.root] is res.root_table
    assert [i for i, t in enumerate(res.tables) if t is not None] == [ntd.root]
    kept = run_dp(g, ntd, 1, retain_tables=True)
    assert all(t is not None for t in kept.tables)


def test_no_witness_when_root_state_absent():
    # single-variable code: no codeword support exists
    g = TannerGraph.from_matrix([[1]])
    ntd = make_nice(g, heuristic_decomposition(g))
    res = run_dp(g, ntd, 0)
    assert not res.found
    with pytest.raises(WitnessError, match="no .*trapping set"):
        extract_witness(g, ntd, 0, res.tables)


def test_witness_validation_rejects_a_wrong_minimizer():
    # the odd checks are counted from var_adj: a carried minimizer of the
    # right size with the wrong odd checks, or of the wrong size, is refused
    g = TannerGraph.from_matrix(HAMMING_74)
    ntd = make_nice(g, heuristic_decomposition(g))
    res = run_dp(g, ntd, 0)
    root = res.tables[ntd.root]
    (key,) = root.entries
    f, count, w = root.entries[key]
    # {v0, v1, v3} leaves all three checks odd; {v0, v1, v4, v5} is a
    # codeword of weight 4, not 3
    for bad in (0b1011, 0b110011):
        root.entries[key] = (f, count, bad)
        with pytest.raises(WitnessError, match="failed validation"):
            extract_witness(g, ntd, 0, res.tables)
    root.entries[key] = (f, count, w)
    assert extract_witness(g, ntd, 0, res.tables) == frozenset(
        v for v in range(7) if w >> v & 1)
