"""Differential properties of the DP engine, searched with hypothesis.

Every decomposition of a graph must give the same (a_min, count) for each
b <= 2, equal to brute force, with a valid witness, and the run that fuses
chains of forget and introduce nodes must give the same root table as the
retained run, which applies one node at a time; at b = 0 the independent
d-free DP ``run_dp_b0`` must agree too.  Past brute force, on codes of 24
to 36 variables, b = 0 is checked against the GF(2) null-space weights on
min-fill and random min-degree decompositions; on seed-1 SC codes every
b <= 3 is checked against the syndrome trellis, which uses no
decomposition and no DP kernel, on the path, min-fill and random
min-degree routes.  Random elimination
decompositions are join-heavy, so they exercise the slots a join hands to
both children.  The search is derandomized and bounded, so the module runs
the same examples in the same short time on every run.

The exchange formats round-trip exactly: ``parse_td`` gives back the
sorted-tuple bags that both builders make, and any decomposition of such
bags, and ``parse_alist`` any graph, down to no variables or no checks.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from trapgraph.decomp import (
    TreeDecomposition,
    heuristic_decomposition,
    make_nice,
    parse_td,
    sc_path_decomposition,
    serialize_td,
)
from trapgraph.dpcore import run_dp
from trapgraph.oracle import brute_force_spectrum
from trapgraph.tanner import (
    ScLdpcParams,
    TannerGraph,
    gamma_odd,
    generate_sc_ldpc,
    parse_alist,
    serialize_alist,
)
from trapgraph.witness import extract_witness
from helpers import (
    min_weight_and_count,
    random_td,
    run_dp_b0,
    single_bag_td,
    trellis_spectrum,
)

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
            entry = res.root_table.answer(b)
            assert (entry[:2] if entry else None) == expected[b]
            if b == 0:
                assert run_dp_b0(g, ntd) == expected[0]
            if entry is None:
                continue
            w = extract_witness(g, ntd, b, res.tables)
            assert len(w) == entry[0]
            assert len(gamma_odd(g, w)) == b


@st.composite
def column_weight_3_codes(draw):
    """Codes past brute force: n = 24..36 variables, each on 3 of 3n/4 checks.

    The checks come from a drawn seed rather than drawn one by one, since
    hypothesis's simplest draws put every variable on the same checks, whose
    null space is too large to enumerate.
    """
    n_var = draw(st.integers(24, 36))
    n_chk = 3 * n_var // 4
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [[] for _ in range(n_chk)]
    for v in range(n_var):
        for c in rng.sample(range(n_chk), 3):
            rows[c].append(v)
    return TannerGraph.from_check_adj(n_var, n_chk, rows)


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(g=column_weight_3_codes(), seed=st.integers(0, 2**32 - 1))
def test_b0_agrees_with_nullspace_beyond_brute_force(g, seed):
    # the GF(2) null-space weights are a second exact reference for b = 0,
    # and the d-free b = 0 DP a second engine on the same nice forms
    h = [[int(v in row) for v in range(g.n_var)] for row in g.chk_adj]
    expected = min_weight_and_count(h)
    for td in (heuristic_decomposition(g),
               random_td(g, random.Random(seed), min_degree=True)):
        ntd = make_nice(g, td)
        res = run_dp(g, ntd, 0)
        assert ((res.a_min, res.count) if res.found else None) == expected
        assert run_dp_b0(g, ntd) == expected


@pytest.mark.parametrize("length", [40, 160])
@pytest.mark.parametrize("route", ["path", "min-fill", "min-degree"])
def test_capped_dp_agrees_with_trellis_on_sc_codes(route, length):
    # every route runs the same dpcore kernels, so only a route that shares
    # none of them catches a fault they all have; each run at b prunes under
    # its own size cap and must still give every d <= b exactly, witness
    # included
    params = ScLdpcParams(3, 4, length, 2, var_degree=3, seed=1)
    g = generate_sc_ldpc(params)
    if route == "path":
        td = sc_path_decomposition(g, params)
    elif route == "min-fill":
        td = heuristic_decomposition(g)
    else:
        td = random_td(g, random.Random(length), min_degree=True)
    ntd = make_nice(g, td)
    expected = trellis_spectrum(g, 3)
    assert all(expected)
    for b in range(4):
        root = run_dp(g, ntd, b).root_table
        assert [root.answer(d) for d in range(b + 1)] == expected[:b + 1]


@st.composite
def any_tanner_graphs(draw):
    """Graphs of 0..8 variables and 0..6 checks, isolated nodes allowed."""
    n_var = draw(st.integers(0, 8))
    n_chk = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n_var,
                                  max_size=n_var),
                         min_size=n_chk, max_size=n_chk))
    return TannerGraph.from_check_adj(
        n_var, n_chk, [[v for v, on in enumerate(row) if on] for row in rows])


@st.composite
def sorted_tuple_decompositions(draw):
    """1..8 bags of sorted distinct ids, some empty, on a random tree with
    shuffled bag labels, edge orientations and edge order; valid for no
    graph in particular."""
    n_nodes = draw(st.integers(0, 10))
    bags = draw(st.lists(st.lists(st.booleans(), min_size=n_nodes,
                                  max_size=n_nodes), min_size=1, max_size=8))
    bags = tuple(tuple(x for x, on in enumerate(bag) if on) for bag in bags)
    label = draw(st.permutations(range(len(bags))))
    edges = []
    for i in range(1, len(bags)):
        edge = (label[i], label[draw(st.integers(0, i - 1))])
        edges.append(edge[::-1] if draw(st.booleans()) else edge)
    edges = draw(st.permutations(edges))
    return TreeDecomposition(n_nodes, bags, tuple(edges))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(g=any_tanner_graphs())
def test_alist_round_trip_is_exact(g):
    text = serialize_alist(g)
    assert parse_alist(text) == g
    assert serialize_alist(parse_alist(text)) == text


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(td=sorted_tuple_decompositions())
def test_td_round_trip_is_exact(td):
    assert parse_td(serialize_td(td)) == td


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(g=any_tanner_graphs())
def test_min_fill_td_round_trip_is_exact(g):
    td = heuristic_decomposition(g)
    assert parse_td(serialize_td(td)) == td


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 4),
                       st.integers(1, 6), st.integers(1, 3)),
       seed=st.integers(0, 2**32 - 1))
def test_path_td_round_trip_is_exact(shape, seed):
    r, c, length, w = shape
    params = ScLdpcParams(r, c, length, w, var_degree=min(3, r * w),
                          seed=seed)
    td = sc_path_decomposition(generate_sc_ldpc(params), params)
    # a .td file carries no root
    assert parse_td(serialize_td(td)) == td._replace(root=None)
