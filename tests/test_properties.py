"""Differential properties of the DP engine, searched with hypothesis.

Every decomposition of a graph must give the same (a_min, count) for each
b <= 2, equal to brute force, with a valid witness, and the run that fuses
chains of forget and introduce nodes must give the same root table as the
retained run, which applies one node at a time.  Random elimination
decompositions are join-heavy, so they exercise the slots a join hands to
both children.  The search is derandomized and bounded, so the module runs
the same examples in the same short time on every run.
"""

import random

from hypothesis import given, settings, strategies as st

from trapgraph.decomp import heuristic_decomposition, make_nice
from trapgraph.dpcore import run_dp
from trapgraph.oracle import brute_force_spectrum
from trapgraph.tanner import TannerGraph, gamma_odd
from trapgraph.witness import extract_witness
from helpers import random_td, single_bag_td

B_MAX = 2


@st.composite
def tanner_graphs(draw):
    n_var = draw(st.integers(1, 8))
    n_chk = draw(st.integers(1, 6))
    rows = draw(st.lists(st.sets(st.integers(0, n_var - 1)),
                         min_size=n_chk, max_size=n_chk))
    return TannerGraph.from_check_adj(n_var, n_chk, [sorted(r) for r in rows])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(g=tanner_graphs(), seed=st.integers(0, 2**32 - 1))
def test_decompositions_agree_with_brute_force(g, seed):
    rng = random.Random(seed)
    tds = [random_td(g, rng), random_td(g, rng), single_bag_td(g),
           heuristic_decomposition(g)]
    expected = [brute_force_spectrum(g, b) for b in range(B_MAX + 1)]
    for td in tds:
        ntd = make_nice(g, td)
        res = run_dp(g, ntd, B_MAX)
        kept = run_dp(g, ntd, B_MAX, retain_tables=True)
        assert res.root_table.entries == kept.root_table.entries
        for b in range(B_MAX + 1):
            entry = res.root_table.get((0, 0, b))
            assert (entry[:2] if entry else None) == expected[b]
            if entry is None:
                continue
            w = extract_witness(g, ntd, b, res.tables)
            assert len(w) == entry[0]
            assert len(gamma_odd(g, w)) == b
