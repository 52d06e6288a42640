import gc
import random
import sys
import tracemalloc
from array import array
from itertools import chain
from pathlib import Path

import pytest

from trapgraph.decomp import (
    FORGET_CHK,
    FORGET_VAR,
    INTRO_CHK,
    INTRO_VAR,
    JOIN,
    K_FORGET_CHK,
    K_FORGET_VAR,
    K_INTRO_CHK,
    K_INTRO_VAR,
    K_JOIN,
    K_LEAF,
    LEAF,
    InvalidDecompositionError,
    NiceTreeDecomposition,
    TdFormatError,
    TreeDecomposition,
    _eliminate,
    heuristic_decomposition,
    heuristic_nice,
    make_nice,
    parse_td,
    sc_path_decomposition,
    sc_path_nice,
    serialize_td,
    validate,
    width,
)
from trapgraph.dpcore import run_dp
from trapgraph.oracle import brute_force_spectrum
from trapgraph.tanner import (
    ScLdpcParams,
    TannerGraph,
    bit_ids,
    generate_sc_ldpc,
)
from helpers import (
    check_masks,
    min_fill_reference,
    nice_nodes_reference,
    random_graph,
    random_td,
    rooted_tree_reference,
    single_bag_td,
    validate_reference,
    walk_fault,
)

DATA = Path(__file__).parent / "data"


def bipartite_example():
    # small graph with enough structure to exercise bags of mixed kinds
    return TannerGraph.from_matrix([
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
    ])


def test_width():
    g = bipartite_example()
    td = single_bag_td(g)
    assert width(td) == g.n_var + g.n_chk - 1
    td1 = TreeDecomposition(2, (frozenset({0}), frozenset({1})), ((0, 1),))
    assert width(td1) == 0


def test_validate_accepts_good_decomposition():
    g = bipartite_example()
    assert validate(g, single_bag_td(g)).ok
    rng = random.Random(0)
    for _ in range(50):
        gr = random_graph(rng, max_var=8, max_chk=6)
        assert validate(gr, random_td(gr, rng)).ok


def test_validate_reports_uncovered_edge():
    g = TannerGraph.from_matrix([[1, 1]])
    # v0 and v1 each share a bag with the check, but bag {v0, v1} is missing
    td = TreeDecomposition(3, (frozenset({0, 2}), frozenset({1})), ((0, 1),))
    report = validate(g, td)
    assert any("covered by no bag" in v for v in report.violations)


def test_validate_reports_missing_node_and_disconnection():
    g = TannerGraph.from_check_adj(2, 1, [[]])
    td = TreeDecomposition(3, (frozenset({0}), frozenset({2})), ((0, 1),))
    assert any("appears in no bag" in v for v in validate(g, td).violations)
    td2 = TreeDecomposition(
        3, (frozenset({0}), frozenset({1, 2}), frozenset({0})),
        ((0, 1), (1, 2)))
    assert any("disconnected" in v for v in validate(g, td2).violations)


def test_validate_reports_non_tree():
    g = TannerGraph.from_check_adj(1, 1, [[0]])
    td = TreeDecomposition(2, (frozenset({0, 1}), frozenset({0, 1})), ())
    assert any("tree" in v for v in validate(g, td).violations)


def test_validate_reports_out_of_range_tree_edge():
    g = TannerGraph.from_check_adj(1, 1, [[0]])
    bags = (frozenset({0, 1}), frozenset({0, 1}))
    for edge in ((0, 5), (0, -1)):
        td = TreeDecomposition(2, bags, (edge,))
        violation = f"tree structure: tree edge {edge} out of range"
        assert validate(g, td).violations == (violation,)
        with pytest.raises(InvalidDecompositionError) as exc:
            make_nice(g, td)
        assert exc.value.violations == (violation,)


def test_validate_reports_out_of_range_root():
    # make_nice roots the tree at td.root, so a root outside the bags must
    # be refused before it indexes them (-1 would silently pick the last)
    g = TannerGraph.from_check_adj(1, 1, [[0]])
    for root in (5, 1, -1):
        td = TreeDecomposition(2, (frozenset({0, 1}),), (), root=root)
        violation = f"tree structure: root {root} out of range"
        assert validate(g, td).violations == (violation,)
        with pytest.raises(InvalidDecompositionError) as exc:
            make_nice(g, td)
        assert exc.value.violations == (violation,)
    assert validate(g, TreeDecomposition(2, (frozenset({0, 1}),), (),
                                         root=0)).ok


def test_validate_reports_node_count_mismatch():
    # a .td header may claim more nodes than the graph has while every bag
    # stays in range
    g = TannerGraph.from_check_adj(1, 1, [[0]])
    for n_nodes in (9, 1):
        td = TreeDecomposition(n_nodes, (frozenset({0, 1}),), ())
        violation = f"decomposition has {n_nodes} nodes, graph has 2"
        assert validate(g, td).violations == (violation,)
        with pytest.raises(InvalidDecompositionError) as exc:
            make_nice(g, td)
        assert exc.value.violations == (violation,)


def mutate_td(rng: random.Random, g: TannerGraph,
              td: TreeDecomposition) -> TreeDecomposition:
    """td with up to three random faults, or reorientations that keep it
    valid."""
    total = g.n_var + g.n_chk
    bags = [set(b) for b in td.bags]
    edges = list(td.edges)
    n_nodes, root = td.n_nodes, td.root
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(10)
        i = rng.randrange(len(bags))
        if kind == 0 and bags[i]:                     # drop a node
            bags[i].discard(rng.choice(sorted(bags[i])))
        elif kind == 1:                               # add a node
            bags[i].add(rng.choice([rng.randrange(total), -1, total,
                                    total + 3]))
        elif kind == 2 and edges:                     # drop an edge
            del edges[rng.randrange(len(edges))]
        elif kind == 3:                               # add an edge
            edges.append((i, rng.choice([rng.randrange(len(bags)), i,
                                         -1, len(bags)])))
        elif kind == 4 and len(edges) > 1:            # an edge twice
            k = rng.randrange(len(edges))
            edges[k] = edges[k - 1][::rng.choice([1, -1])]
        elif kind == 5:                               # reoriented edges
            edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
            rng.shuffle(edges)
        elif kind == 6:                               # another root
            root = rng.choice([None, i, len(bags), -1])
        elif kind == 7:                               # another node count
            n_nodes = total + rng.choice([-1, 1])
        elif kind == 8:                               # an emptied bag
            bags[i] = set()
        elif kind == 9 and edges:                     # an edge moved
            k = rng.randrange(len(edges))
            x, y = edges[k]
            if rng.random() < 0.5:
                edges[k] = (rng.choice([rng.randrange(len(bags)), -1]), y)
            else:
                edges[k] = (x, rng.choice([rng.randrange(len(bags)),
                                           len(bags)]))
    return TreeDecomposition(n_nodes, tuple(map(frozenset, bags)),
                             tuple(edges), root)


def test_validate_matches_membership_reference():
    # the bulk checks must report exactly the violations, in the same
    # order, that the reference finds one membership at a time
    rng = random.Random(17)
    valid = invalid = 0
    for k in range(2400):
        g = random_graph(rng, max_var=10, max_chk=8)
        if k % 100 == 0:
            p = ScLdpcParams(3, 4, rng.randint(1, 8), 2, var_degree=3,
                             seed=k)
            g = generate_sc_ldpc(p)
            td = sc_path_decomposition(g, p)
        else:
            td = rng.choice([random_td, lambda g, rng: single_bag_td(g),
                             lambda g, rng: heuristic_decomposition(g)])(g, rng)
        td = mutate_td(rng, g, td)
        got = validate(g, td).violations
        assert got == validate_reference(g, td).violations, td
        valid += not got
        invalid += bool(got)
    assert valid > 500 and invalid > 1200


def test_validate_reports_a_node_listed_twice():
    # a tuple bag can list an id twice, which a frozenset cannot; the
    # report names the bag and the node once, and make_nice refuses the
    # bag rather than count the repeat in the width
    g = TannerGraph.from_matrix([[1, 1]])
    td = TreeDecomposition(3, ((0, 2), (0, 1, 2, 1)), ((0, 1),))
    violation = "bag 1: node 1 listed twice"
    assert validate(g, td).violations == (violation,)
    with pytest.raises(InvalidDecompositionError) as exc:
        make_nice(g, td)
    assert exc.value.violations == (violation,)
    # along a path, bags listing x once, twice and once pass the
    # running-intersection counts, so only the repeat check catches them;
    # nodes are named in the order the bag first lists them
    td = TreeDecomposition(3, ((0, 1, 2), (2, 0, 1, 0, 2), (0, 1, 2)),
                           ((0, 1), (1, 2)))
    assert validate(g, td).violations == ("bag 1: node 2 listed twice",
                                          "bag 1: node 0 listed twice")


def test_validate_reports_repeats_as_the_reference():
    # faulty tuple bags, some listing a node twice, get the violations the
    # reference finds one membership at a time
    rng = random.Random(23)
    repeats = 0
    for _ in range(400):
        g = random_graph(rng, max_var=8, max_chk=6)
        td = mutate_td(rng, g, random_td(g, rng))
        bags = [list(b) for b in td.bags]
        for _ in range(rng.randint(0, 2)):
            bag = rng.choice(bags)
            if bag:
                bag.insert(rng.randrange(len(bag) + 1), rng.choice(bag))
        td = td._replace(bags=tuple(map(tuple, bags)))
        got = validate(g, td).violations
        assert got == validate_reference(g, td).violations, td
        repeats += any("listed twice" in v for v in got)
    assert repeats > 200


def test_validate_roots_the_tree_as_the_reference():
    # the report's tree is the breadth-first walk from td.root, or else
    # from the smallest-index bag of tree-degree at most one, with each
    # bag's children in ascending index; td.root set and unset
    rng = random.Random(23)
    tds = []
    for _ in range(300):
        g = random_graph(rng, max_var=10, max_chk=8)
        tds += [(g, random_td(g, rng)), (g, single_bag_td(g)),
                (g, heuristic_decomposition(g))]
    for length in (1, 2, 5, 40):
        p = ScLdpcParams(3, 4, length, 2, var_degree=3, seed=length)
        g = generate_sc_ldpc(p)
        tds += [(g, sc_path_decomposition(g, p)), (g, heuristic_decomposition(g))]
    rooted = branching = 0
    for g, td in tds:
        for root in (None, td.root, rng.randrange(len(td.bags))):
            td = td._replace(root=root)
            tree = validate(g, td).tree
            assert tree == rooted_tree_reference(td)
            rooted += root is not None
            branching += any(len(kids) > 1 for kids in tree.children)
    assert rooted > 800 and branching > 1000
    # no tree when the shape is invalid
    g = TannerGraph.from_check_adj(1, 1, [[0]])
    for td in (TreeDecomposition(2, (frozenset({0, 1}),), (), root=1),
               TreeDecomposition(2, (frozenset({0, 1}),) * 2, ())):
        report = validate(g, td)
        assert not report.ok and report.tree is None


def test_td_parse_rejects_a_repeated_node():
    # a b line listing a node twice is refused at that line, not read as
    # the set of its distinct nodes
    with pytest.raises(TdFormatError,
                       match="line 2: bag 1: node 1 listed twice"):
        parse_td("s td 1 2 2\nb 1 1 1 2\n")
    with pytest.raises(TdFormatError,
                       match="line 3: bag 2: node 3 listed twice"):
        parse_td("s td 2 3 3\nb 1 1 2\nb 2 2 3 1 3\n1 2\n")
    assert parse_td("s td 1 2 2\nb 1 2 1\n").bags == ((0, 1),)


def test_td_round_trip_simple():
    td = parse_td("s td 1 1 1\nb 1 1\n")
    assert td.bags == ((0,),)
    assert serialize_td(td) == "s td 1 1 1\nb 1 1\n"


def test_td_parse_rejects_cycles_and_garbage():
    with pytest.raises(TdFormatError, match="tree"):
        parse_td("s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 3\n3 1\n")
    with pytest.raises(TdFormatError, match="header"):
        parse_td("b 1 1\n")
    with pytest.raises(TdFormatError, match="out of range"):
        parse_td("s td 1 1 2\nb 1 5\n")


def test_td_parse_names_the_line_of_a_bad_tree_edge():
    # tree-edge faults name the file's 1-based bag ids and the faulty line,
    # or the header line for a wrong edge count
    with pytest.raises(TdFormatError,
                       match=r"line 3: tree edge \(1,1\) is a self-loop") as exc:
        parse_td("s td 1 1 1\nb 1 1\n1 1\n")
    assert exc.value.line == 3
    with pytest.raises(TdFormatError, match=r"line 6: tree edge \(2,1\) "
                                            "repeats an earlier edge"):
        parse_td("s td 2 1 2\nb 1 1\nb 2 2\n1 2\nc again\n2 1\n")
    with pytest.raises(TdFormatError, match=r"line 2: 1 tree edges for 3 "
                                            r"bags \(a tree needs 2\)"):
        parse_td("c three bags\ns td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n2 3\n")
    with pytest.raises(TdFormatError, match="line 1: 3 tree edges for 3 bags"):
        parse_td("s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 3\n3 1\n")
    # the right number of edges around a cycle leaves a bag out, which no
    # single line causes
    with pytest.raises(TdFormatError, match="do not connect") as exc:
        parse_td("s td 4 1 4\nb 1 1\nb 2 2\nb 3 3\nb 4 4\n1 2\n2 3\n3 1\n")
    assert exc.value.line is None


def test_td_parse_checks_the_max_bag_field():
    # the header's max-bag field must be the largest bag's size: a larger
    # bag fails at its b line, a smaller largest bag at the header
    with pytest.raises(TdFormatError,
                       match="line 2: bag 1 has 5 nodes, the header allows 1"):
        parse_td("s td 1 1 5\nb 1 1 2 3 4 5\n")
    with pytest.raises(TdFormatError, match="line 1: header says bags have "
                                            "up to 6 nodes, the largest has 5"):
        parse_td("s td 1 6 5\nb 1 1 2 3 4 5\n")
    assert width(parse_td("s td 1 5 5\nb 1 1 2 3 4 5\n")) == 4


def test_td_parse_rejects_a_bag_without_b_line():
    # a bag with no b line is refused, not read as the empty set, which
    # validate would accept when its neighbours cover everything
    text = "s td 2 5 5\nb 1 1 2 3 4 5\n1 2\n"
    with pytest.raises(TdFormatError, match="line 1: bag 2 has no 'b' line"):
        parse_td(text)
    with pytest.raises(TdFormatError, match="line 2: bag 1 has no 'b' line"):
        parse_td("c two bags\ns td 2 1 1\nb 2 1\n1 2\n")
    td = parse_td(text.replace("1 2\n", "b 2\n1 2\n"))
    assert td.bags == (tuple(range(5)), ())


def test_td_round_trip_fuzz():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, max_var=8, max_chk=6)
        td = random_td(g, rng)
        text = serialize_td(td)
        td2 = parse_td(text)
        assert serialize_td(td2) == text
        assert set(map(frozenset, td2.bags)) == set(td.bags)


def check_nice_structure(g, td, ntd):
    assert ntd.width() == width(td)
    n = len(ntd.nodes)
    root = ntd.root
    assert ntd.nodes[root].bag_size == 0
    for i, node in enumerate(ntd.nodes):
        for ch in node.children:
            assert ch < i          # post-order
        if node.kind == LEAF:
            assert node.children == ()
            assert node.bag_size == 0
        elif node.kind == JOIN:
            assert len(node.children) == 2
            for ch in node.children:
                child = ntd.nodes[ch]
                assert (child.bag_v, child.bag_c) == (node.bag_v, node.bag_c)
        else:
            (ch,) = node.children
            child = ntd.nodes[ch]
            bit = 1 << node.elem
            if node.kind == "intro_var":
                assert node.bag_v == child.bag_v | bit and not child.bag_v & bit
                assert node.bag_c == child.bag_c
            elif node.kind == "forget_var":
                assert node.bag_v == child.bag_v ^ bit and child.bag_v & bit
                assert node.bag_c == child.bag_c
            elif node.kind == "intro_chk":
                assert node.bag_c == child.bag_c | bit and not child.bag_c & bit
                assert node.bag_v == child.bag_v
            else:
                assert node.bag_c == child.bag_c ^ bit and child.bag_c & bit
                assert node.bag_v == child.bag_v
    # every node except the root is someone's child exactly once
    seen = [0] * n
    for node in ntd.nodes:
        for ch in node.children:
            seen[ch] += 1
    assert seen[root] == 0 and all(s == 1 for s in seen[:root])
    # the nice form is itself a valid decomposition
    assert validate(g, ntd.as_tree_decomposition()).ok


def test_make_nice_trivial_cases():
    g0 = TannerGraph.from_check_adj(0, 0, [])
    td0 = TreeDecomposition(0, (frozenset(),), ())
    ntd0 = make_nice(g0, td0)
    assert len(ntd0.nodes) == 1 and ntd0.nodes[0].kind == LEAF
    g1 = TannerGraph.from_check_adj(1, 0, [])
    td1 = TreeDecomposition(1, (frozenset({0}),), ())
    ntd1 = make_nice(g1, td1)
    assert [n.kind for n in ntd1.nodes] == [LEAF, "intro_var", "forget_var"]


def test_make_nice_random():
    rng = random.Random(21)
    for _ in range(100):
        g = random_graph(rng, max_var=8, max_chk=6)
        td = random_td(g, rng)
        check_nice_structure(g, td, make_nice(g, td))


def test_make_nice_reads_frozenset_and_tuple_bags_alike():
    # make_nice reads a bag only by iteration and membership, so the same
    # bags as frozensets or as sorted tuples give the same nice form
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, max_var=8, max_chk=6)
        td = random_td(g, rng)
        tuples = td._replace(bags=tuple(tuple(sorted(b)) for b in td.bags))
        assert make_nice(g, td).nodes == make_nice(g, tuples).nodes


def test_make_nice_rejects_invalid():
    g = TannerGraph.from_matrix([[1, 1]])
    bad = TreeDecomposition(3, (frozenset({0}),), ())
    with pytest.raises(InvalidDecompositionError, match="invalid") as exc:
        make_nice(g, bad)
    assert exc.value.violations == validate(g, bad).violations


def fold_case(bags, edges):
    """The nice form of hand-built bags over the chain code c0 = {v0, v1},
    c1 = {v1, v2} (ids v0..v2 = 0..2, c0 = 3, c1 = 4), rooted at bag 0,
    checked for structure and against brute force at b = 0..2."""
    g = TannerGraph.from_check_adj(3, 2, [[0, 1], [1, 2]])
    td = TreeDecomposition(5, bags, edges, root=0)
    ntd = make_nice(g, td)
    check_nice_structure(g, td, ntd)
    check_slot_layout(ntd)
    whole = make_nice(g, single_bag_td(g))
    for b in (0, 1, 2):
        res = run_dp(g, ntd, b)
        assert ((res.a_min, res.count) if res.found else None) == \
            brute_force_spectrum(g, b)
        assert res.root_table.answer(b) == \
            run_dp(g, whole, b).root_table.answer(b)
    return ntd


def test_make_nice_folds_a_leaf_that_fits():
    # leaf (v0, c0) adds v0 beside its parent (v1, c0), within the largest
    # bag (v1, v2, c1); that other leaf does not fit and starts the chain,
    # and v0 is introduced and forgotten after its bridge, so no join is
    # left
    ntd = fold_case(((1, 3), (0, 3), (1, 2, 4)), ((1, 0), (2, 0)))
    assert [n.kind for n in ntd.nodes] == [
        LEAF, INTRO_VAR, INTRO_VAR, INTRO_CHK,          # up to (v1, v2, c1)
        FORGET_VAR, FORGET_CHK, INTRO_CHK,              # on to (v1, c0)
        INTRO_VAR, FORGET_VAR,                          # the folded v0
        FORGET_VAR, FORGET_CHK]                         # the empty root
    assert ntd.width() == 2


def test_make_nice_keeps_a_leaf_that_does_not_fit():
    # the parent (v1, c0, c1) is a largest bag, so neither leaf's extra
    # member fits beside it: both keep their branch, joined once
    ntd = fold_case(((1, 3, 4), (0, 3), (2, 4)), ((1, 0), (2, 0)))
    kinds = [n.kind for n in ntd.nodes]
    assert kinds.count(LEAF) == 2 and kinds.count(JOIN) == 1
    assert ntd.width() == 2


def test_make_nice_folds_a_leaf_without_extra_members_into_nothing():
    # leaf (v0, c0) lies inside its parent (v0, v1, c0): the nice form is
    # the one of the bags without it
    ntd = fold_case(((0, 1, 3), (0, 3), (1, 2, 4)), ((1, 0), (2, 0)))
    bare = make_nice(TannerGraph.from_check_adj(3, 2, [[0, 1], [1, 2]]),
                     TreeDecomposition(5, ((0, 1, 3), (1, 2, 4)), ((1, 0),),
                                       root=0))
    for column in ("kind", "elem", "slot", "child", "child2"):
        assert getattr(ntd, column) == getattr(bare, column)


def test_make_nice_starts_the_chain_with_the_first_leaf_when_all_fit():
    # both leaves of (v1, c0) fit below the largest bag, so the first,
    # (v0, c0), keeps its branch and the second, inside the parent, adds
    # nothing
    ntd = fold_case(((1, 2, 3, 4), (1, 3), (0, 3), (1, 3)),
                    ((1, 0), (2, 1), (3, 1)))
    kinds = [n.kind for n in ntd.nodes]
    assert kinds.count(LEAF) == 1 and JOIN not in kinds
    assert kinds[:3] == [LEAF, INTRO_VAR, INTRO_CHK]


def check_slot_layout(ntd):
    """Rebuild every bag's slot layout bottom-up and check its invariants.

    A join's two children must carry the same layout; an introduce takes a
    free slot; a forget releases the slot its element held; every slot lies
    below the namespace's slot count, and a forget's slot below its child's
    count in that namespace (the lowest-free rule read downward).  The
    rebuilt layouts must equal the ``var_at`` and ``chk_at`` every node
    stores.
    """
    counts = (ntd.var_slots, ntd.chk_slots)
    assert counts == (max(n.bag_v.bit_count() for n in ntd.nodes),
                      max(n.bag_c.bit_count() for n in ntd.nodes))
    layouts = []
    for node in ntd.nodes:
        if node.kind == LEAF:
            layout = ({}, {})
        elif node.kind == JOIN:
            left, right = (layouts[c] for c in node.children)
            assert left == right
            layout = left
        else:
            layout = tuple(dict(m) for m in layouts[node.children[0]])
            ns = int(node.kind in (INTRO_CHK, FORGET_CHK))
            where = layout[ns]
            if node.kind in (INTRO_VAR, INTRO_CHK):
                assert node.slot not in where.values()
                where[node.elem] = node.slot
            else:
                assert node.kind in (FORGET_VAR, FORGET_CHK)
                assert node.slot < len(where)
                assert where.pop(node.elem) == node.slot
        stored = (node.var_at, node.chk_at)
        for where, at, bag, count in zip(layout, stored,
                                         (node.bag_v, node.bag_c), counts):
            assert set(where) == set(bit_ids(bag))
            assert all(s < count for s in where.values())
            expected = [-1] * count
            for x, s in where.items():
                expected[s] = x
            assert at == tuple(expected)
        if node.kind not in (LEAF, JOIN):
            # the namespace the node leaves alone keeps its child's tuple
            child = ntd.nodes[node.children[0]]
            untouched = 1 - int(node.kind in (INTRO_CHK, FORGET_CHK))
            assert stored[untouched] is (child.var_at, child.chk_at)[untouched]
        layouts.append(layout)
    assert layouts[ntd.root] == ({}, {})


def test_slot_layout_random():
    rng = random.Random(23)
    for _ in range(200):
        g = random_graph(rng, max_var=12, max_chk=9)
        check_slot_layout(make_nice(g, random_td(g, rng)))
    params = ScLdpcParams(3, 4, 10, 2, var_degree=3, seed=7)
    g = generate_sc_ldpc(params)
    for td in (sc_path_decomposition(g, params), heuristic_decomposition(g)):
        check_slot_layout(make_nice(g, td))


def test_nodes_view_equals_tuple_reference():
    # the slot column and the view rebuilt from it give every node the
    # layouts and slot that a tuple-per-node layout gives
    rng = random.Random(86)
    for _ in range(300):
        g = random_graph(rng, max_var=9, max_chk=7)
        for td in (random_td(g, rng), single_bag_td(g),
                   heuristic_decomposition(g)):
            ntd = make_nice(g, td)
            assert ntd.nodes == nice_nodes_reference(ntd)
    params = ScLdpcParams(3, 4, 40, 2, var_degree=3, seed=1)
    g = generate_sc_ldpc(params)
    for td in (sc_path_decomposition(g, params), heuristic_decomposition(g)):
        ntd = make_nice(g, td)
        assert ntd.nodes == nice_nodes_reference(ntd)


def test_min_fill_build_peak_memory():
    # the build keeps the bags and nothing else of an eliminated node: its
    # adjacency set goes with its step and bag parents are read off the
    # bags.  Seed-1 SC L=160 peaks near 575 KB; keeping every eliminated
    # set until the end took about 1025 KB
    g = generate_sc_ldpc(ScLdpcParams(3, 4, 160, 2, var_degree=3, seed=1))
    tracemalloc.start()
    try:
        heuristic_decomposition(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 750 * 1024, peak


@pytest.mark.parametrize("route", ["path", "min-fill"])
def test_decomposition_keeps_few_bytes_per_bag_entry(route):
    # a bag is a sorted tuple of ids shared by the whole decomposition:
    # on seed-1 SC L=160, tree edges included, about 29 bytes per bag
    # entry on the path route and 40 on min-fill; frozenset bags kept
    # about 90 and 105.  gc.collect() empties CPython's free lists, whose
    # freed small tuples tracemalloc would count as kept
    params = ScLdpcParams(3, 4, 160, 2, var_degree=3, seed=1)
    g = generate_sc_ldpc(params)
    tracemalloc.start()
    try:
        td = sc_path_decomposition(g, params) if route == "path" \
            else heuristic_decomposition(g)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = sum(map(len, td.bags))
    assert kept <= 60 * entries, kept / entries


@pytest.mark.parametrize("route", ["path", "min-fill"])
def test_make_nice_keeps_few_bytes_per_node(route):
    # the nice form is flat columns, about 17 bytes per node; a tuple per
    # node with its own layout tuples kept about 290.  gc.collect() empties
    # CPython's free lists, whose freed small tuples tracemalloc would
    # count as kept
    params = ScLdpcParams(3, 4, 160, 2, var_degree=3, seed=1)
    g = generate_sc_ldpc(params)
    td = sc_path_decomposition(g, params) if route == "path" \
        else heuristic_decomposition(g)
    tracemalloc.start()
    try:
        ntd = make_nice(g, td)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 40 * len(ntd.nodes), kept / len(ntd.nodes)


def nice_node_bytes(ntd):
    """Mean bytes per nice node: the node and each of its non-str fields."""
    total = 0
    for node in ntd.nodes:
        total += sys.getsizeof(node) + sum(
            sys.getsizeof(f) for f in node if not isinstance(f, str))
    return total / len(ntd.nodes)


@pytest.mark.parametrize("route", ["path", "min-fill"])
def test_nice_node_bytes_do_not_grow_with_length(route):
    # a node stores O(width) data, so 16x the code length leaves its size
    # flat; global-id bag masks would grow it with n
    sizes = []
    for length in (40, 640):
        params = ScLdpcParams(3, 4, length, 2, var_degree=3, seed=1)
        g = generate_sc_ldpc(params)
        td = sc_path_decomposition(g, params) if route == "path" \
            else heuristic_decomposition(g)
        sizes.append(nice_node_bytes(make_nice(g, td)))
    assert sizes[1] <= 1.1 * sizes[0], sizes


def join_subtree_unions(ntd):
    """Per node, the union of (bag_v, bag_c) over its descendant subtree."""
    unions = []
    for i, node in enumerate(ntd.nodes):
        uv, uc = node.bag_v, node.bag_c
        for ch in node.children:
            uv |= unions[ch][0]
            uc |= unions[ch][1]
        unions.append((uv, uc))
    return unions


def test_join_separation_properties():
    rng = random.Random(22)
    for _ in range(60):
        g = random_graph(rng, max_var=8, max_chk=6)
        ntd = make_nice(g, random_td(g, rng))
        unions = join_subtree_unions(ntd)
        for node in ntd.nodes:
            if node.kind != JOIN:
                continue
            (lv, lc), (rv, rc) = (unions[c] for c in node.children)
            assert lv & rv == node.bag_v and lc & rc == node.bag_c
            ex_lv, ex_lc = lv & ~node.bag_v, lc & ~node.bag_c
            ex_rv, ex_rc = rv & ~node.bag_v, rc & ~node.bag_c
            for c in range(g.n_chk):
                cm = g.chk_masks[c]
                if ex_lc & (1 << c):
                    assert not cm & ex_rv
                if ex_rc & (1 << c):
                    assert not cm & ex_lv


def test_sc_path_decomposition():
    p = ScLdpcParams(3, 4, 10, 2, var_degree=3, seed=2)
    g = generate_sc_ldpc(p)
    td = sc_path_decomposition(g, p)
    assert len(td.bags) == 11
    assert width(td) == 10
    assert validate(g, td).ok
    ntd = make_nice(g, td)
    assert ntd.width() == 10
    assert all(n.kind != JOIN for n in ntd.nodes)


def test_sc_path_decomposition_no_coupling():
    p = ScLdpcParams(2, 3, 4, 1, var_degree=2, seed=2)
    g = generate_sc_ldpc(p)
    td = sc_path_decomposition(g, p)
    assert width(td) == p.base_rows + p.base_cols - 1
    assert validate(g, td).ok


def test_sc_path_decomposition_fuzz_valid():
    rng = random.Random(30)
    for _ in range(100):
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        w = rng.randint(1, 3)
        L = rng.randint(1, 6)
        p = ScLdpcParams(r, c, L, w, rng.randint(1, r * w), seed=rng.randint(0, 99))
        g = generate_sc_ldpc(p)
        assert validate(g, sc_path_decomposition(g, p)).ok


def test_sc_path_decomposition_rejects_mismatch():
    # both window builders share the shape and coupling-window checks
    p = ScLdpcParams(3, 4, 10, 2, var_degree=3, seed=2)
    g = generate_sc_ldpc(p)
    other = ScLdpcParams(3, 4, 9, 2, var_degree=3, seed=2)
    # check 0 (block 0) meets variable 2 (block 2), outside a window of 2
    outside = TannerGraph.from_check_adj(3, 4, [[0, 2], [0, 1], [1, 2], [2]])
    for build in (sc_path_decomposition, sc_path_nice):
        with pytest.raises(ValueError, match="parameters say"):
            build(g, other)
        with pytest.raises(ValueError, match="check 0 \\(block 0\\) adjacent "
                           "to variable 2 outside its coupling window"):
            build(outside, ScLdpcParams(1, 1, 3, 2, var_degree=1))


def window_sweep():
    """SC codes over base shapes (r, c) in {(3,4), (2,5), (1,1)}, coupling
    lengths L in {1, 2, 3, 7} and widths w in 1..4, so w > L, L = 1 and
    r = c = 1 are all covered, plus the benchmark's L = 640."""
    for r, c in ((3, 4), (2, 5), (1, 1)):
        for L in (1, 2, 3, 7):
            for w in range(1, 5):
                p = ScLdpcParams(r, c, L, w, var_degree=min(3, r * w),
                                 seed=L + w)
                yield p, generate_sc_ldpc(p)
    p = ScLdpcParams(3, 4, 640, 2, var_degree=3, seed=1)
    yield p, generate_sc_ldpc(p)


def test_sc_path_nice_equals_make_nice_of_the_window():
    # the window emitter writes make_nice's columns, slots and masks with
    # no TreeDecomposition, and the window it skips validates
    shapes = 0
    for p, g in window_sweep():
        td = sc_path_decomposition(g, p)
        assert validate(g, td).ok
        want = make_nice(g, td)
        got, tw = sc_path_nice(g, p)
        assert tw == width(td) == got.width() == want.width()
        for column in ("kind", "elem", "slot", "mask", "child", "child2",
                       "var_slots", "chk_slots"):
            assert getattr(got, column) == getattr(want, column), column
        if p.coupling_len < 640:
            check_nice_structure(g, td, got)
            check_masks(g, got)
        shapes += 1
    assert shapes == 49


def test_heuristic_decomposition_tree_graph():
    # a Tanner graph that is a tree has treewidth 1
    g = TannerGraph.from_check_adj(3, 2, [[0, 1], [1, 2]])
    td = heuristic_decomposition(g)
    assert validate(g, td).ok
    assert width(td) == 1


def test_heuristic_decomposition_k22():
    g = TannerGraph.from_matrix([[1, 1], [1, 1]])
    td = heuristic_decomposition(g)
    assert validate(g, td).ok
    assert width(td) <= 3


def test_heuristic_decomposition_fuzz():
    rng = random.Random(31)
    for _ in range(50):
        g = random_graph(rng, max_var=10, max_chk=8)
        td = heuristic_decomposition(g)
        assert validate(g, td).ok


def test_heuristic_decomposition_equals_from_scratch_min_fill():
    # the incremental fill-in updates must keep every score exact, so the
    # elimination order, bags and edges are those of recounting each score
    rng = random.Random(33)
    graphs = [TannerGraph.from_check_adj(0, 0, []),
              TannerGraph.from_check_adj(3, 0, []),
              TannerGraph.from_check_adj(0, 2, [[], []]),
              TannerGraph.from_check_adj(4, 3, [[], [0, 2], []])]
    for _ in range(600):
        graphs.append(random_graph(rng, max_var=rng.choice((6, 14, 30)),
                                   max_chk=rng.choice((4, 10, 20))))
    empty_chk = sum(any(not vs for vs in g.chk_adj) for g in graphs)
    isolated_var = sum(any(not cs for cs in g.var_adj) for g in graphs)
    assert empty_chk > 100 and isolated_var > 100
    for g in graphs:
        assert heuristic_decomposition(g) == min_fill_reference(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("length", [40, 160])
def test_heuristic_decomposition_equals_from_scratch_min_fill_sc(seed, length):
    g = generate_sc_ldpc(ScLdpcParams(3, 4, length, 2, var_degree=3,
                                      seed=seed))
    assert heuristic_decomposition(g) == min_fill_reference(g)


def test_heuristic_decomposition_width_matches_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.approximation import treewidth_min_fill_in

    def nx_min_fill(g):
        gx = nx.Graph()
        gx.add_nodes_from(range(g.n_var + g.n_chk))
        gx.add_edges_from((v, g.n_var + c)
                          for c in range(g.n_chk) for v in g.chk_adj[c])
        return treewidth_min_fill_in(gx)

    rng = random.Random(32)
    graphs = [random_graph(rng) for _ in range(200)]
    graphs += [generate_sc_ldpc(ScLdpcParams(3, 4, L, 2, var_degree=3, seed=L))
               for L in (10, 40, 80)]
    for g in graphs:
        td = heuristic_decomposition(g)
        assert validate(g, td).ok
        nx_width, nx_tree = nx_min_fill(g)
        assert width(td) == nx_width
        # networkx stops once the rest is a clique and keeps it as one bag;
        # every bag it makes up to there is an elimination bag here too
        assert set(nx_tree.nodes) <= set(map(frozenset, td.bags))


def nice_route_corpus():
    """Graphs for the default route: the empty graph, isolated variables,
    checks with no neighbour, disconnected random graphs and SC codes."""
    rng = random.Random(47)
    graphs = [TannerGraph.from_check_adj(0, 0, []),
              TannerGraph.from_check_adj(3, 0, []),
              TannerGraph.from_check_adj(0, 2, [[], []]),
              TannerGraph.from_check_adj(4, 3, [[], [0, 2], []]),
              TannerGraph.from_check_adj(4, 2, [[0, 1], [2, 3]])]
    graphs += [random_graph(rng, max_var=10, max_chk=8) for _ in range(150)]
    graphs += [generate_sc_ldpc(ScLdpcParams(3, 4, length, 2, var_degree=3,
                                             seed=seed))
               for seed in (1, 2, 3) for length in (40, 160)]
    return graphs


def test_heuristic_nice_equals_make_nice_of_the_decomposition():
    # the default route reads the min-fill elimination straight into nice
    # form: a valid nice form of the same width, whose root answers (f,
    # count and minimizer) at b = 0..3 are those of make_nice on
    # heuristic_decomposition
    chained = 0
    for g in nice_route_corpus():
        td = heuristic_decomposition(g)
        ntd, tw = heuristic_nice(g)
        assert tw == width(td)
        check_nice_structure(g, td, ntd)
        got = run_dp(g, ntd, 3).root_table
        want = run_dp(g, make_nice(g, td), 3).root_table
        assert [got.answer(b) for b in range(4)] == \
            [want.answer(b) for b in range(4)]
        # a bag of one node has no parent: more than one, and the route
        # chains them
        chained += sum(len(bag) == 1 for bag in td.bags) > 1
    assert chained > 20


def test_elimination_record_forgets_each_bags_node():
    # a bag forgets toward its parent exactly the node it eliminated, and
    # the parentless bags are singletons chained in elimination order up
    # to the last-eliminated root; the record still gives the from-scratch
    # min-fill decomposition
    for g in nice_route_corpus():
        bags, gone, parent = _eliminate(g)
        total = g.n_var + g.n_chk
        assert len(gone) == len(parent) == len(bags) == max(total, 1)
        assert sorted(chain.from_iterable(gone)) == list(range(total))
        for k, (bag, out, p) in enumerate(zip(bags, gone, parent)):
            assert len(out) == min(total, 1) and set(out) <= set(bag)
            if p >= 0:
                assert p > k
                assert set(bag) - set(bags[p]) == set(out)
        root = len(bags) - 1
        assert gone[root] == bags[root] and parent[root] == -1
        singles = [k for k, bag in enumerate(bags) if len(bag) <= 1]
        assert [parent[k] for k in singles] == singles[1:] + [-1]
        assert heuristic_decomposition(g) == min_fill_reference(g)


def test_default_route_nice_form_matches_golden():
    # pins the whole nice form the default route reads from the min-fill
    # elimination, byte for byte: its root, the order of its nodes and
    # every bag
    ntd, _ = heuristic_nice(sc40())
    assert serialize_td(ntd.as_tree_decomposition()) == \
        (DATA / "nice_sc40_seed1_default_route.td").read_text()


def nice_columns_with(g, ntd, tw, kind=None, elem=None):
    """A fresh nice form of ``g`` on a copy of the columns of ``ntd``, with
    ``kind`` or ``elem`` replaced, checked by its constructor at width
    ``tw``."""
    return NiceTreeDecomposition(
        g, ntd.kind if kind is None else kind,
        array("i", ntd.elem if elem is None else elem), ntd.child,
        ntd.child2, ntd.var_slots, ntd.chk_slots, tw)


SC40 = ScLdpcParams(3, 4, 40, 2, var_degree=3, seed=1)


def sc40():
    return generate_sc_ldpc(SC40)


def sc40_routes(g):
    """The nice forms and widths of both built-in routes on ``sc40()``."""
    return heuristic_nice(g), sc_path_nice(g, SC40)


def test_nice_columns_check_passes_the_route_and_catches_an_uncovered_edge():
    g = sc40()
    # one more edge, between the first variable and the last check, lies in
    # no bag of either route's nice form, as validate confirms
    adj = [list(vs) for vs in g.chk_adj]
    adj[-1] = [0, *adj[-1]]
    wider = TannerGraph.from_check_adj(g.n_var, g.n_chk, adj)
    for ntd, tw in sc40_routes(g):
        again = nice_columns_with(g, ntd, tw)
        assert (again.slot, again.mask) == (ntd.slot, ntd.mask)
        assert not validate(wider, ntd.as_tree_decomposition()).ok
        with pytest.raises(InvalidDecompositionError) as exc:
            nice_columns_with(wider, ntd, tw)
        assert exc.value.violations == (
            f"Tanner edges in no nice bag: 1 of {sum(map(len, adj))}",)
        with pytest.raises(InvalidDecompositionError, match="width"):
            nice_columns_with(g, ntd, tw + 1)


def test_a_copy_of_make_nice_columns_is_laid_out_at_construction():
    # the columns make_nice writes for H = [[1, 1]], copied into a fresh
    # form: its constructor writes the same slots and masks, so the DP
    # answers (2, 1); with no walk the masks stay 0 and it answers (1, 1)
    g = TannerGraph.from_matrix([[1, 1]])
    td = heuristic_decomposition(g)
    ntd = make_nice(g, td)
    copy = nice_columns_with(g, ntd, width(td))
    assert (copy.slot, copy.mask) == (ntd.slot, ntd.mask)
    assert any(copy.mask) and max(copy.slot) == 0
    result = run_dp(g, copy, 0)
    assert (result.a_min, result.count) == (2, 1)


def test_nice_columns_check_catches_a_bag_larger_than_its_slots():
    # leaf, intro v0, intro v1, forget v0, forget v1: read from the root
    # down, the forget of v0 finds v1 in the one variable slot
    g = TannerGraph.from_matrix([[1, 1]])
    nodes = [(K_LEAF, -1, ()), (K_INTRO_VAR, 0, (0,)), (K_INTRO_VAR, 1, (1,)),
             (K_FORGET_VAR, 0, (2,)), (K_FORGET_VAR, 1, (3,))]
    assert walk_fault(g, nodes, 1, 0) == (
        "node 3: the bag below it holds more variables than var_slots = 1",)
    checks = TannerGraph.from_check_adj(0, 2, [[], []])
    nodes = [(K_LEAF, -1, ()), (K_INTRO_CHK, 0, (0,)), (K_INTRO_CHK, 1, (1,)),
             (K_FORGET_CHK, 0, (2,)), (K_FORGET_CHK, 1, (3,))]
    assert walk_fault(checks, nodes, 0, 1) == (
        "node 3: the bag below it holds more checks than chk_slots = 1",)


def test_nice_columns_check_catches_an_element_out_of_range():
    # an element id equal to its namespace's size, at a forget and at an
    # introduce, and a child index past the last node
    g = TannerGraph.from_matrix([[1, 1]])
    nodes = [(K_LEAF, -1, ()), (K_INTRO_VAR, 0, (0,)), (K_FORGET_VAR, 0, (1,)),
             (K_INTRO_VAR, 1, (2,)), (K_FORGET_VAR, 2, (3,))]
    assert walk_fault(g, nodes, 1, 0) == (
        "node 4: v2 is out of range",)
    nodes = [(K_LEAF, -1, ()), (K_INTRO_CHK, 1, (0,)), (K_FORGET_CHK, 0, (1,))]
    assert walk_fault(g, nodes, 0, 1) == (
        "node 1: c1 is out of range",)
    nodes = [(K_LEAF, -1, ()), (K_FORGET_VAR, 0, (2,))]
    assert walk_fault(g, nodes, 1, 0) == ("child 2 is no node",)


def test_nice_columns_check_catches_a_negative_element():
    # v-1 would read and write the last variable's slot: these columns
    # used to construct, and run_dp then failed with a bare ValueError
    g = TannerGraph.from_matrix([[1, 1]])
    nodes = [(K_LEAF, -1, ()), (K_INTRO_CHK, 0, (0,)), (K_INTRO_VAR, -1, (1,)),
             (K_FORGET_VAR, -1, (2,)), (K_INTRO_VAR, 0, (3,)),
             (K_FORGET_VAR, 0, (4,)), (K_FORGET_CHK, 0, (5,))]
    assert walk_fault(g, nodes, 1, 1) == ("node 3: v-1 is out of range",)
    nodes[2:4] = [(K_INTRO_VAR, -2, (1,)), (K_FORGET_VAR, -2, (2,))]
    assert walk_fault(g, nodes, 1, 1) == ("node 2: v-2 is out of range",)
    checks = TannerGraph.from_check_adj(0, 1, [[]])
    nodes = [(K_LEAF, -1, ()), (K_INTRO_CHK, -1, (0,)), (K_FORGET_CHK, -1, (1,)),
             (K_INTRO_CHK, 0, (2,)), (K_FORGET_CHK, 0, (3,))]
    assert walk_fault(checks, nodes, 0, 1) == ("node 2: c-1 is out of range",)


def test_nice_columns_check_catches_a_join_child_not_below_it():
    # a join whose children are -1 wrapped to the root, itself, and the
    # walk spun with a growing stack; a join that is its own second child
    # would cycle as well
    empty = TannerGraph.from_check_adj(0, 0, [])
    assert walk_fault(empty, [(K_JOIN, -1, (-1, -1))], 0, 0) == (
        "join 0 has a child that is not below it",)
    g = TannerGraph.from_matrix([[1, 1]])
    nodes = [(K_LEAF, -1, ()), (K_JOIN, -1, (0, 1)), (K_INTRO_VAR, 0, (1,)),
             (K_FORGET_VAR, 0, (2,))]
    assert walk_fault(g, nodes, 1, 0) == (
        "join 1 has a child that is not below it",)


def test_nice_columns_check_catches_an_unknown_kind_byte():
    # kind byte 99 at the root of a nice form of H = [[1, 1]], which the
    # walk reaches first; not read as a leaf
    g = TannerGraph.from_matrix([[1, 1]])
    td = heuristic_decomposition(g)
    ntd = make_nice(g, td)
    with pytest.raises(InvalidDecompositionError) as exc:
        nice_columns_with(g, ntd, width(td),
                          kind=ntd.kind[:-1] + bytes([99]))
    assert exc.value.violations == (
        f"node {ntd.root} has unknown kind byte 99",)


def test_nice_columns_check_catches_an_element_forgotten_twice():
    g = sc40()
    for ntd, tw in sc40_routes(g):
        x1, x2 = [x for x, k in enumerate(ntd.kind) if k == K_FORGET_VAR][:2]
        v1 = ntd.elem[x1]
        elem = list(ntd.elem)
        elem[x2] = v1
        with pytest.raises(InvalidDecompositionError) as exc:
            nice_columns_with(g, ntd, tw, elem=elem)
        assert exc.value.violations == (f"v{v1} is forgotten twice",)


def test_nice_columns_check_catches_an_element_never_forgotten():
    # v1 is in no bag of the columns leaf, intro v0, forget v0
    g = TannerGraph.from_check_adj(2, 0, [])
    nodes = [(K_LEAF, -1, ()), (K_INTRO_VAR, 0, (0,)), (K_FORGET_VAR, 0, (1,))]
    assert walk_fault(g, nodes, 1, 0) == ("v1 is never forgotten",)


def test_nice_columns_check_catches_an_introduce_with_no_forget_above():
    g = sc40()
    for ntd, tw in sc40_routes(g):
        forget_at = {ntd.elem[x]: x for x, k in enumerate(ntd.kind)
                     if k == K_FORGET_VAR}
        # an introduce of a variable forgotten below it, so on no path above
        x = next(x for x, k in enumerate(ntd.kind) if k == K_INTRO_VAR
                 and any(f < x for f in forget_at.values()))
        u = next(v for v, f in forget_at.items() if f < x)
        elem = list(ntd.elem)
        elem[x] = u
        with pytest.raises(InvalidDecompositionError) as exc:
            nice_columns_with(g, ntd, tw, elem=elem)
        assert exc.value.violations == (
            f"node {x} introduces v{u}, which no forget above it holds",)


def test_nice_columns_check_catches_a_forget_with_no_introduce_below():
    # a leaf under the forget of v0 holds v0, read from the root down
    g = TannerGraph.from_check_adj(1, 0, [])
    nodes = [(K_LEAF, -1, ()), (K_FORGET_VAR, 0, (0,))]
    assert walk_fault(g, nodes, 1, 0) == (
        "leaf 0 has a nonempty bag",)
