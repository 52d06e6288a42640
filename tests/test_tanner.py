import random
import tracemalloc

import pytest

from trapgraph.tanner import (
    AlistError,
    ScLdpcParams,
    TannerGraph,
    gamma_odd,
    generate_sc_ldpc,
    parse_alist,
    serialize_alist,
)
from helpers import parse_alist_reference, random_graph


H23 = [[1, 1, 0], [0, 1, 1]]


def test_graph_construction_and_transpose():
    g = TannerGraph.from_matrix(H23)
    assert (g.n_var, g.n_chk) == (3, 2)
    assert g.chk_adj == ((0, 1), (1, 2))
    assert g.var_adj == ((0,), (0, 1), (1,))
    # transposed view is exactly the transpose
    edges_a = {(c, v) for c, vs in enumerate(g.chk_adj) for v in vs}
    edges_b = {(c, v) for v, cs in enumerate(g.var_adj) for c in cs}
    assert edges_a == edges_b


def test_from_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has length 1, row 0 has 3"):
        TannerGraph.from_matrix([[1, 0, 1], [1]])
    with pytest.raises(ValueError, match="row 1 has length 4, row 0 has 3"):
        TannerGraph.from_matrix([[1, 0, 1], [1, 1, 0, 1]])


def test_parallel_edges_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        TannerGraph.from_check_adj(2, 1, [[0, 0]])


def test_gamma_odd_basics():
    g = TannerGraph.from_matrix(H23)
    assert gamma_odd(g, set()) == set()
    # a singleton's odd neighborhood is its full neighbor set
    assert gamma_odd(g, {1}) == {0, 1}
    # both checks of H=[[1,1,0],[1,1,1]] see two members of {v0,v1}
    g2 = TannerGraph.from_matrix([[1, 1, 0], [1, 1, 1]])
    assert gamma_odd(g2, {0, 1}) == set()


def test_gamma_odd_range_error():
    g = TannerGraph.from_matrix(H23)
    with pytest.raises(ValueError):
        gamma_odd(g, {5})


def test_gamma_odd_symmetric_difference_linearity():
    # odd neighborhoods compose under symmetric difference
    rng = random.Random(7)
    for _ in range(1000):
        g = random_graph(rng, max_var=10, max_chk=8)
        a = {v for v in range(g.n_var) if rng.random() < 0.4}
        b = {v for v in range(g.n_var) if rng.random() < 0.4}
        assert gamma_odd(g, a ^ b) == gamma_odd(g, a) ^ gamma_odd(g, b)


def test_edge_parity_matches_gamma_odd():
    rng = random.Random(9)
    for _ in range(1000):
        g = random_graph(rng, max_var=10, max_chk=8)
        q = {v for v in range(g.n_var) if rng.random() < 0.4}
        c = rng.randrange(g.n_chk)
        edges = sum(1 for v in q if c in g.var_adj[v])
        assert (edges % 2 == 1) == (c in gamma_odd(g, q))


def test_parse_alist_simple():
    text = "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n"
    g = parse_alist(text)
    assert (g.n_var, g.n_chk) == (3, 2)
    assert g.chk_adj == ((0, 1), (1, 2))


def test_parse_alist_accepts_zero_padding():
    text = "2 1\n1 2\n1 1\n2\n1 0\n1 0\n1 2\n"
    g = parse_alist(text)
    assert g.chk_adj == ((0, 1),)


@pytest.mark.parametrize("maxdeg", ["1 1", "1 3", "2 2"])
def test_parse_alist_max_degrees_must_be_reached(maxdeg):
    # the largest column degree is 1 and the largest row degree 2
    text = f"2 1\n{maxdeg}\n1 1\n2\n1\n1\n1 2\n"
    with pytest.raises(AlistError, match="line 2: max degrees"):
        parse_alist(text)
    assert parse_alist(text.replace(maxdeg, "1 2", 1)).chk_adj == ((0, 1),)


def test_parse_alist_index_out_of_range():
    # a column list naming check 5 in a 2-check code
    text = "3 2\n2 2\n1 2 1\n2 2\n5\n1 2\n2\n1 2\n2 3\n"
    with pytest.raises(AlistError, match="out of range"):
        parse_alist(text)


def test_parse_alist_degree_mismatch():
    text = "3 2\n2 2\n2 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n"
    with pytest.raises(AlistError, match="degree"):
        parse_alist(text)


def test_parse_alist_inconsistent_views():
    text = "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 3\n2 3\n"
    with pytest.raises(AlistError, match="inconsistent"):
        parse_alist(text)


def test_parse_alist_malformed_header():
    with pytest.raises(AlistError, match="line 1"):
        parse_alist("3\n")


def parse_outcome(parse, data):
    """The graph, or the exception's type, message and line."""
    try:
        return parse(data)
    except Exception as exc:          # compared, never swallowed
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def mutate_alist(rng: random.Random, g: TannerGraph) -> str | bytes:
    """The alist text of g with up to four random faults or paddings."""
    lines = [ln.split() for ln in serialize_alist(g).splitlines()]
    body = range(4, len(lines))
    if g.var_adj[0] and rng.random() < 0.1:           # an edge listed twice
        c = g.var_adj[0][0]                           # on both sides
        lines[4].append(str(c + 1))
        lines[4 + g.n_var + c].append("1")
        if rng.random() < 0.8:                        # degrees to match
            lines[2][0] = str(len(lines[4]))
            lines[3][c] = str(len(lines[4 + g.n_var + c]))
            lines[1] = [str(max(map(int, lines[k]))) for k in (2, 3)]
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(9)
        i = rng.choice(body) if rng.random() < 0.8 or len(lines) < 5 \
            else rng.randrange(len(lines))
        toks = lines[i]
        if kind == 0 and toks:                        # drop a token
            del toks[rng.randrange(len(toks))]
        elif kind == 1 and toks:                      # duplicate a token
            k = rng.randrange(len(toks))
            toks.insert(k, toks[k])
        elif kind == 2:                               # swap two tokens
            j = rng.choice(body) if rng.random() < 0.5 else i
            if toks and lines[j]:
                a, b = rng.randrange(len(toks)), rng.randrange(len(lines[j]))
                toks[a], lines[j][b] = lines[j][b], toks[a]
        elif kind == 3:                               # zero padding
            for j in rng.sample(body, min(len(body), rng.randint(1, 4))):
                lines[j] += ["0"] * rng.randint(1, 2)
                if rng.random() < 0.3:
                    rng.shuffle(lines[j])
        elif kind == 4 and toks:                      # wrong degree or id
            k = rng.randrange(len(toks))
            if toks[k].lstrip("-").isdigit():
                toks[k] = str(int(toks[k]) + rng.choice([-1, 1]))
        elif kind == 5 and toks:                      # id out of range
            toks[rng.randrange(len(toks))] = str(rng.choice(
                [-1, -2, g.n_var + 1, g.n_chk + 1, 10**20]))
        elif kind == 6 and toks:                      # not an integer
            toks[rng.randrange(len(toks))] = rng.choice(["x", "1.5", "+2"])
        elif kind == 7:                               # an extra blank line
            lines.insert(i, [])
        elif kind == 8:                               # a line swapped
            j = rng.choice(body)
            lines[i], lines[j] = lines[j], lines[i]
    text = "".join(" ".join(toks) + "\n" for toks in lines)
    if rng.random() < 0.15:                           # truncated
        text = text[:rng.randrange(len(text))]
    if rng.random() < 0.5:
        return text
    data = text.encode("ascii")
    if rng.random() < 0.1:                            # a non-ASCII byte
        k = rng.randrange(len(data) + 1)
        data = data[:k] + bytes([rng.randrange(128, 256)]) + data[k:]
    return data


@pytest.mark.parametrize("spell", [
    lambda t: "0" + t,                # leading zero
    lambda t: "+" + t,                # plus sign
    lambda t: t[0] + "_" + t[1:] if len(t) > 1 else "0_" + t,  # underscore
    lambda t: " " + t + "\t",         # other whitespace
])
def test_parse_alist_non_canonical_tokens_give_the_same_graph(spell):
    # canonical tokens are read through a table of shared ids; any other
    # spelling of the same id takes int() and must give the same graph
    g = generate_sc_ldpc(ScLdpcParams(3, 4, 40, 2, var_degree=3, seed=1))
    lines = serialize_alist(g).splitlines()
    rng = random.Random(19)
    for _ in range(20):
        i = rng.randrange(4, len(lines))
        toks = lines[i].split()
        k = rng.randrange(len(toks))
        toks[k] = spell(toks[k])
        text = "\n".join(lines[:i] + [" ".join(toks)] + lines[i + 1:]) + "\n"
        assert parse_alist(text) == g


@pytest.mark.parametrize("token", ["-1", "-0012", "161", "240", "241",
                                   "10000000000000000000000", "1__2", "x"])
def test_parse_alist_out_of_range_tokens_fail_as_the_reference(token):
    # ids outside the shared table (negative, above n or m, huge) or
    # malformed ones fail with the message and line of the int() route
    g = generate_sc_ldpc(ScLdpcParams(3, 4, 40, 2, var_degree=3, seed=1))
    lines = serialize_alist(g).splitlines()
    listed = [i for i in range(4, len(lines)) if lines[i]]
    for i in (listed[0], 4 + g.n_var, listed[-1]):    # columns, then rows
        toks = lines[i].split()
        toks[-1] = token
        text = "\n".join(lines[:i] + [" ".join(toks)] + lines[i + 1:]) + "\n"
        got = parse_outcome(parse_alist, text)
        assert got[0] == "AlistError"
        assert got == parse_outcome(parse_alist_reference, text)


def test_parse_alist_matches_line_by_line_reference():
    # the bulk parser must accept exactly what the line-by-line reference
    # accepts, with the same graph, and refuse the rest with the same
    # message and line
    rng = random.Random(16)
    accepted = refused = 0
    for _ in range(2500):
        g = random_graph(rng, max_var=10, max_chk=8)
        data = mutate_alist(rng, g)
        got = parse_outcome(parse_alist, data)
        assert got == parse_outcome(parse_alist_reference, data), data
        if isinstance(got, TannerGraph):
            accepted += 1
        else:
            assert got[0] == "AlistError"
            refused += 1
    assert accepted > 500 and refused > 1200


def test_parse_alist_peak_memory():
    # each line gives way to its sorted id tuple as it is read, and the
    # id table goes once the body is read.  Seed-1 SC L=160 peaks near
    # 165 KB; holding the lines, the table and every id list, then a
    # transpose and sorted copies, at once took 386 KB
    g = generate_sc_ldpc(ScLdpcParams(3, 4, 160, 2, var_degree=3, seed=1))
    data = serialize_alist(g).encode()
    tracemalloc.start()
    try:
        assert parse_alist(data) == g
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 240 * 1024, peak


def test_records_are_immutable_named_tuples():
    g = TannerGraph.from_matrix(H23)
    p = ScLdpcParams(3, 4, 10, 2, var_degree=3, seed=5)
    for obj, field in ((g, "n_var"), (g, "var_masks"), (p, "seed")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
    assert g.var_masks == (1, 3, 2) and g.chk_masks == (3, 6)
    assert hash(g) == hash(TannerGraph.from_check_adj(3, 2, [[1, 0], [2, 1]]))
    assert p == ScLdpcParams(3, 4, 10, 2, 3, 5) and hash(p) == hash(tuple(p))
    assert p._fields[-1] == "seed" and ScLdpcParams(3, 4, 10, 2, 3).seed == 0


def test_serialize_minimal_and_degenerate():
    g = TannerGraph.from_check_adj(1, 1, [[0]])
    lines = serialize_alist(g).splitlines()
    assert lines == ["1 1", "1 1", "1", "1", "1", "1"]
    g0 = TannerGraph.from_check_adj(2, 1, [[]])
    lines0 = serialize_alist(g0).splitlines()
    assert lines0[2] == "0 0" and lines0[3] == "0"


@pytest.mark.parametrize("n_chk, text", [(0, "0 0\n0 0\n\n\n"),
                                          (2, "0 2\n0 0\n\n0 0\n\n\n")])
def test_alist_round_trip_without_variables(n_chk, text):
    # with no variables every row is empty, and the bound on row ids must
    # hold when there is no id at all
    g = TannerGraph.from_check_adj(0, n_chk, [[]] * n_chk)
    assert serialize_alist(g) == text
    assert parse_alist(text) == g == parse_alist_reference(text)
    assert serialize_alist(parse_alist(text)) == text


def test_alist_round_trip_fuzz():
    rng = random.Random(42)
    for _ in range(200):
        g = random_graph(rng)
        text = serialize_alist(g)
        g2 = parse_alist(text)
        assert g2 == g
        assert serialize_alist(g2) == text


def test_sc_params_validation():
    with pytest.raises(ValueError):
        ScLdpcParams(3, 4, 10, 2, var_degree=7)
    with pytest.raises(ValueError):
        ScLdpcParams(0, 4, 10, 2, var_degree=1)
    with pytest.raises(ValueError):
        ScLdpcParams(3, 4, 0, 2, var_degree=3)


def test_generate_sc_ldpc_shape_and_regularity():
    p = ScLdpcParams(3, 4, 10, 2, var_degree=3, seed=5)
    g = generate_sc_ldpc(p)
    assert (g.n_var, g.n_chk) == (40, 33)
    assert all(len(a) == 3 for a in g.var_adj)


def test_generate_sc_ldpc_window_structure():
    rng = random.Random(3)
    for _ in range(20):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        w = rng.randint(1, 3)
        L = rng.randint(1, 6)
        deg = rng.randint(1, r * w)
        g = generate_sc_ldpc(ScLdpcParams(r, c, L, w, deg, seed=rng.randint(0, 99)))
        for chk in range(g.n_chk):
            t = chk // r
            for v in g.chk_adj[chk]:
                j = v // c
                assert t - w + 1 <= j <= t


def test_generate_sc_ldpc_deterministic():
    p = ScLdpcParams(3, 4, 10, 2, var_degree=3, seed=7)
    a = serialize_alist(generate_sc_ldpc(p))
    b = serialize_alist(generate_sc_ldpc(p))
    assert a == b


def test_generate_sc_ldpc_single_block():
    p = ScLdpcParams(3, 4, 1, 1, var_degree=2, seed=1)
    g = generate_sc_ldpc(p)
    assert (g.n_var, g.n_chk) == (4, 3)
