import random

import pytest

from trapgraph.oracle import (
    TrappingSetRecord,
    WorkLimitExceeded,
    brute_force_enumerate,
    brute_force_spectrum,
)
from trapgraph.tanner import TannerGraph, gamma_odd
from helpers import (
    HAMMING_74,
    TRELLIS_MAX_OPEN,
    gf2_nullspace_weights,
    random_graph,
    trellis_spectrum,
)


def test_repetition_code_enumeration():
    g = TannerGraph.from_matrix([[1, 1]])
    records = brute_force_enumerate(g, 2, 0)
    assert records == [TrappingSetRecord((0, 1), 2, 0)]


def test_hamming_74_has_seven_minimum_codewords():
    # independent route: null-space weight histogram over GF(2)
    hist = gf2_nullspace_weights(HAMMING_74)
    assert hist[3] == 7
    g = TannerGraph.from_matrix(HAMMING_74)
    records = brute_force_enumerate(g, 3, 0)
    assert len(records) == 7
    assert brute_force_spectrum(g, 0) == (3, 7)


def test_nullspace_weights_refuse_a_large_null_space():
    # one row over 24 columns leaves a null space of dimension 23: 2^23
    # vectors, refused before any is enumerated
    with pytest.raises(ValueError, match="dimension 23"):
        gf2_nullspace_weights([[1] * 24])


def test_trellis_matches_brute_force():
    # the trellis shares no code with brute force or the DP: (a_min, count)
    # and the integer-smallest minimizer at every d <= 3
    rng = random.Random(6)
    found = 0
    for _ in range(200):
        g = random_graph(rng, max_var=10, max_chk=8)
        for d, got in enumerate(trellis_spectrum(g, 3)):
            exp = brute_force_spectrum(g, d)
            assert (got[:2] if got else None) == exp
            if got:
                smallest = min(sum(1 << v for v in r.members) for r in
                               brute_force_enumerate(g, got[0], d))
                assert got[2] == smallest
                found += 1
    assert found > 400


def test_trellis_refuses_too_many_open_checks():
    # every check meets v0 and v1, so all are open after v0
    m = TRELLIS_MAX_OPEN + 1
    g = TannerGraph.from_check_adj(2, m, [[0, 1]] * m)
    with pytest.raises(ValueError, match=f"{m} open checks at v0"):
        trellis_spectrum(g, 1)
    g = TannerGraph.from_check_adj(2, m - 1, [[0, 1]] * (m - 1))
    assert trellis_spectrum(g, 1) == [(2, 1, 0b11), None]


def test_records_revalidate():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, max_var=8, max_chk=6)
        b = rng.randint(0, 2)
        for rec in brute_force_enumerate(g, 4, b):
            assert rec.a == len(rec.members)
            assert len(gamma_odd(g, rec.members)) == rec.b == b


def test_monotone_cutoff():
    rng = random.Random(6)
    for _ in range(20):
        g = random_graph(rng, max_var=8, max_chk=6)
        small = brute_force_enumerate(g, 2, 0)
        large = brute_force_enumerate(g, 4, 0)
        assert set(r.members for r in small) <= set(r.members for r in large)


def test_spectrum_none_when_b_unreachable():
    g = TannerGraph.from_matrix([[1, 1]])
    assert brute_force_spectrum(g, 5) is None


def test_spectrum_isolated_variables():
    g = TannerGraph.from_check_adj(3, 1, [[]])
    assert brute_force_spectrum(g, 0) == (1, 3)


def test_spectrum_dense_and_sparse_paths_agree():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, max_var=9, max_chk=7)
        for b in (0, 1, 2):
            # the dense sweep needs 2^n subset evaluations within the work
            # limit, and the size-by-size path never makes more than 2^n - 1
            assert brute_force_spectrum(g, b, work_limit=(1 << g.n_var) - 1) \
                == brute_force_spectrum(g, b)


def test_work_limit():
    g = TannerGraph.from_matrix([[1] * 12])
    with pytest.raises(WorkLimitExceeded):
        brute_force_enumerate(g, 12, 0, work_limit=10)
    with pytest.raises(WorkLimitExceeded):
        brute_force_spectrum(g, 3, work_limit=10)


def test_record_json():
    rec = TrappingSetRecord((1, 5), 2, 1)
    assert rec.to_json() == {"a": 2, "b": 1, "members": [1, 5]}
