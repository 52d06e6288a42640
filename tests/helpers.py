"""Shared test utilities: random instances and independent oracles.

The oracles here are deliberately written along different routes than the
library code they check: the minimum-distance oracle works on GF(2) null
spaces, ``run_dp_b0`` is a separate d-free dynamic program,
``trellis_spectrum`` sweeps the variables in index order with no tree
decomposition at all, ``min_fill_reference`` recounts every min-fill
score from scratch, ``nice_nodes_reference`` lays every nice bag out as
tuples where the library keeps one slot column, ``forget_mask_reference``
rebuilds a forget's key mask from those layouts and the graph's global
bitmasks, ``parse_alist_reference``
and ``validate_reference`` read their input one line, or one membership,
at a time where the library checks it in bulk, and
``rooted_tree_reference`` roots the bag tree with a queue and a parent per
bag.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter, deque

from array import array

import pytest

from trapgraph.decomp import (
    INTRO_CHK,
    INTRO_VAR,
    FORGET_CHK,
    FORGET_VAR,
    JOIN,
    KINDS,
    LEAF,
    InvalidDecompositionError,
    NiceNode,
    NiceTreeDecomposition,
    TreeDecomposition,
    ValidationReport,
)
from trapgraph.tanner import AlistError, TannerGraph

HAMMING_74 = [
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]


def gamma_odd_mask(var_masks, q_mask: int, restrict_mask: int) -> int:
    """Checks of ``restrict_mask`` with an odd number of neighbours among
    the variables of ``q_mask``, as a mask: ``tanner.gamma_odd`` over
    bitmasks, with ``var_masks`` the graph's per-variable check masks."""
    x = 0
    while q_mask:
        low = q_mask & -q_mask
        x ^= var_masks[low.bit_length() - 1]
        q_mask ^= low
    return x & restrict_mask


def random_graph(rng: random.Random, max_var=14, max_chk=10) -> TannerGraph:
    n = rng.randint(1, max_var)
    m = rng.randint(1, max_chk)
    p = rng.uniform(0.05, 0.4)
    adj = [[v for v in range(n) if rng.random() < p] for _ in range(m)]
    return TannerGraph.from_check_adj(n, m, adj)


def random_td(g: TannerGraph, rng: random.Random,
              min_degree: bool = False) -> TreeDecomposition:
    """Valid decomposition from a random elimination ordering.

    Each eliminated node forms a bag with its current neighborhood, which is
    then turned into a clique; a bag's parent is the bag of its
    earliest-eliminated neighbor, and parentless bags are chained together.
    With ``min_degree`` every step eliminates a node of least current
    degree, ties broken at random: a route apart from the library's min-fill
    whose width stays low on codes beyond brute force.
    """
    total = g.n_var + g.n_chk
    if total == 0:
        return TreeDecomposition(0, (frozenset(),), ())
    adj: dict[int, set[int]] = {x: set() for x in range(total)}
    for c in range(g.n_chk):
        for v in g.chk_adj[c]:
            adj[v].add(g.n_var + c)
            adj[g.n_var + c].add(v)
    order = list(range(total))
    rng.shuffle(order)
    bag_of = {}
    bags: list[frozenset[int]] = []
    pending: list[tuple[int, set[int]]] = []
    parentless: list[int] = []
    for i in range(total):
        if min_degree:
            j = min(range(i, total), key=lambda j: len(adj[order[j]]))
            order[i], order[j] = order[j], order[i]
        x = order[i]
        nbrs = set(adj[x])
        bag_of[x] = i
        bags.append(frozenset({x} | nbrs))
        for a in nbrs:
            adj[a].discard(x)
            adj[a] |= nbrs - {a}
        if nbrs:
            pending.append((i, nbrs))     # their bags do not exist yet
        else:
            parentless.append(i)
    edges = [(i, min(bag_of[u] for u in nbrs)) for i, nbrs in pending]
    edges.extend(zip(parentless, parentless[1:]))
    return TreeDecomposition(total, tuple(bags), tuple(edges))


def min_fill_reference(g: TannerGraph) -> TreeDecomposition:
    """Greedy min-fill that counts every fill-in from scratch.

    The oracle for ``decomp.heuristic_decomposition``, which keeps its
    fill-ins by incremental updates: the same rule (eliminate the smallest
    (fill-in, current degree, id)), the same sorted-tuple bags, order and
    edges.  After each elimination it recounts every node the step can
    have changed, the eliminated node's neighbours and theirs.
    """
    total = g.n_var + g.n_chk
    if total == 0:
        return TreeDecomposition(0, ((),), ())
    adj: list[set[int]] = [set() for _ in range(total)]
    for c, vs in enumerate(g.chk_adj):
        for v in vs:
            adj[v].add(g.n_var + c)
            adj[g.n_var + c].add(v)

    def key(x: int) -> tuple[int, int, int]:
        nbrs = adj[x]
        # each missing pair is seen from both ends; -1 drops a itself
        fill = sum(len(nbrs - adj[a]) - 1 for a in nbrs) // 2
        return fill, len(nbrs), x

    # lazy heap: an entry is live while it equals current[x]
    current = [key(x) for x in range(total)]
    heap = list(current)
    heapq.heapify(heap)
    position = [-1] * total
    bags: list[tuple[int, ...]] = []
    eliminated_nbrs: list[set[int]] = []
    while heap:
        k = heapq.heappop(heap)
        x = k[2]
        if position[x] >= 0 or k != current[x]:
            continue
        position[x] = len(bags)
        nbrs = adj[x]
        bags.append(tuple(sorted(nbrs | {x})))
        eliminated_nbrs.append(nbrs)
        for a in nbrs:
            adj[a] |= nbrs
            adj[a].discard(a)
            adj[a].discard(x)
        touched = set(nbrs)
        for a in nbrs:
            touched |= adj[a]
        for y in touched:
            k = key(y)
            if k != current[y]:
                current[y] = k
                heapq.heappush(heap, k)

    edges, parentless = [], []
    for i, nbrs in enumerate(eliminated_nbrs):
        if nbrs:
            edges.append((i, min(position[u] for u in nbrs)))
        else:
            parentless.append(i)
    edges.extend(zip(parentless, parentless[1:]))
    return TreeDecomposition(total, tuple(bags), tuple(edges))


def single_bag_td(g: TannerGraph) -> TreeDecomposition:
    total = g.n_var + g.n_chk
    return TreeDecomposition(total, (frozenset(range(total)),), ())


NULLSPACE_MAX_DIM = 20


def gf2_nullspace_weights(h_rows: list[list[int]]) -> dict[int, int]:
    """Hamming-weight histogram of the nonzero null space of H over GF(2).

    Gaussian elimination for a basis, then enumeration of all 2^(n - rank)
    combinations; raises ValueError when n - rank exceeds
    ``NULLSPACE_MAX_DIM``, before enumerating anything.
    """
    if not h_rows:
        raise ValueError("empty matrix")
    n = len(h_rows[0])
    rows = []
    for r in h_rows:
        mask = 0
        for j, x in enumerate(r):
            if x % 2:
                mask |= 1 << j
        rows.append(mask)
    pivots = []
    for col in range(n):
        pivot = None
        for i, r in enumerate(rows):
            if r & (1 << col):
                pivot = i
                break
        if pivot is None:
            continue
        prow = rows.pop(pivot)
        rows = [r ^ prow if r & (1 << col) else r for r in rows]
        pivots.append((col, prow))
    free_cols = sorted(set(range(n)) - {c for c, _ in pivots})
    if len(free_cols) > NULLSPACE_MAX_DIM:
        raise ValueError(f"null space of dimension {len(free_cols)} exceeds "
                         f"{NULLSPACE_MAX_DIM}")
    basis = []
    for fc in free_cols:
        vec = 1 << fc
        for col, prow in reversed(pivots):
            if (prow & vec).bit_count() % 2:
                vec |= 1 << col
        basis.append(vec)
    hist: dict[int, int] = {}
    for r in range(1, 1 << len(basis)):
        x = 0
        rr = r
        while rr:
            low = rr & -rr
            x ^= basis[low.bit_length() - 1]
            rr ^= low
        w = x.bit_count()
        hist[w] = hist.get(w, 0) + 1
    return hist


def min_weight_and_count(h_rows: list[list[int]]) -> tuple[int, int] | None:
    hist = gf2_nullspace_weights(h_rows)
    if not hist:
        return None
    w = min(hist)
    return w, hist[w]


def is_codeword_support(g: TannerGraph, members) -> bool:
    qm = 0
    for v in members:
        qm |= 1 << v
    return gamma_odd_mask(g.var_masks, qm, (1 << g.n_chk) - 1) == 0 \
        if g.n_chk else True


# ---------------------------------------------------------------------------
# independent b=0 dynamic program (keys (R, Q), no d dimension)

def run_dp_b0(g: TannerGraph, ntd: NiceTreeDecomposition):
    """Self-oracle for the b=0 slice of the general engine."""
    var_masks = g.var_masks
    tables: list[dict | None] = [None] * len(ntd.nodes)

    def merge(tab, key, f, cnt):
        old = tab.get(key)
        if old is None or f < old[0]:
            tab[key] = (f, cnt)
        elif f == old[0]:
            tab[key] = (f, old[1] + cnt)

    for idx, node in enumerate(ntd.nodes):
        kind = node.kind
        if kind == LEAF:
            tab = {}
        elif kind == INTRO_VAR:
            child = tables[node.children[0]]
            v = node.elem
            vb = 1 << v
            iv = var_masks[v] & node.bag_c
            tab = dict(child)
            for (r, q), (f, cnt) in child.items():
                if (r, q) != (0, 0):
                    tab[(r ^ iv, q | vb)] = (f + 1, cnt)
            tab[(iv, vb)] = (1, 1)
        elif kind == FORGET_VAR:
            child = tables[node.children[0]]
            vb = 1 << node.elem
            tab = {}
            for (r, q), (f, cnt) in child.items():
                merge(tab, (r, q & ~vb), f, cnt)
        elif kind == INTRO_CHK:
            child = tables[node.children[0]]
            c = node.elem
            cb = 1 << c
            cmask = g.chk_masks[c]
            tab = {}
            for (r, q), ent in child.items():
                if (cmask & q).bit_count() & 1:
                    tab[(r | cb, q)] = ent
                else:
                    tab[(r, q)] = ent
        elif kind == FORGET_CHK:
            child = tables[node.children[0]]
            cb = 1 << node.elem
            tab = {}
            for (r, q), (f, cnt) in child.items():
                if r & cb:
                    continue      # its odd check leaves the bag: dead for b=0
                merge(tab, (r, q), f, cnt)
        else:  # join
            left = tables[node.children[0]]
            right = tables[node.children[1]]
            tab = {}
            by_q: dict[int, list] = {}
            for (r2, q2), (f2, g2) in right.items():
                by_q.setdefault(q2, []).append((r2, f2, g2))
            bag_c = node.bag_c            # derived from the layout per read
            for (r1, q), (f1, g1) in left.items():
                gam = gamma_odd_mask(var_masks, q, bag_c)
                for r2, f2, g2 in by_q.get(q, ()):
                    merge(tab, (r1 ^ r2 ^ gam, q),
                          f1 + f2 - q.bit_count(), g1 * g2)
            for (r, q), (f, cnt) in left.items():
                if q == 0:
                    merge(tab, (r, q), f, cnt)
            for (r, q), (f, cnt) in right.items():
                if q == 0:
                    merge(tab, (r, q), f, cnt)
        tables[idx] = tab
        for ch in node.children:
            tables[ch] = None
    root = tables[ntd.root].get((0, 0))
    return None if root is None else root


# ---------------------------------------------------------------------------
# tuple-per-node slot layouts of a nice form

def nice_nodes_reference(ntd: NiceTreeDecomposition) -> tuple[NiceNode, ...]:
    """Every nice node with its slot layouts and slot, laid out anew.

    The oracle for ``NiceTreeDecomposition.nodes`` and the slot pass of
    ``make_nice``: it takes only the tree's shape from the columns (kind,
    element and children per node), not their slots, and lays the bags out
    top-down from the empty root with one frozen tuple per layout and node.
    Read downward, a forget puts its element in the lowest free slot of its
    namespace's layout, an introduce frees its element's slot there, and a
    join hands both layouts to both children; a layout an operation leaves
    alone is passed on as the same tuple.
    """
    kinds = [KINDS[code] for code in ntd.kind]
    forget_ns = {FORGET_VAR: 0, FORGET_CHK: 1}
    intro_ns = {INTRO_VAR: 0, INTRO_CHK: 1}
    out: list[NiceNode | None] = [None] * len(kinds)
    stack = [(ntd.root, (-1,) * ntd.var_slots, (-1,) * ntd.chk_slots)]
    while stack:
        x, var_at, chk_at = stack.pop()
        at = [var_at, chk_at]
        lists = [list(var_at), list(chk_at)]
        while True:
            kind, c1 = kinds[x], ntd.child[x]
            if kind in forget_ns or kind in intro_ns:
                elem = ntd.elem[x]
                forget = kind in forget_ns
                ns = forget_ns[kind] if forget else intro_ns[kind]
                layout = lists[ns]
                slot = layout.index(-1 if forget else elem)
                out[x] = NiceNode(kind, elem, at[0], at[1], (c1,), slot)
                layout[slot] = elem if forget else -1
                at[ns] = tuple(layout)
            elif kind == JOIN:
                out[x] = NiceNode(kind, None, at[0], at[1],
                                  (c1, ntd.child2[x]), None)
                stack.append((ntd.child2[x], at[0], at[1]))
            else:
                out[x] = NiceNode(kind, None, at[0], at[1], (), None)
                break
            x = c1
    return tuple(out)


def forget_mask_reference(g: TannerGraph, kind: str, elem: int,
                          var_at: tuple[int, ...],
                          chk_at: tuple[int, ...]) -> int:
    """The key mask of forgetting ``elem`` from the bag laid out as
    ``var_at`` and ``chk_at``, from the graph's global bitmasks: the
    element's own key bit (J for a check, Q for a variable) and the key
    bits of its neighbours in the bag."""
    kc = len(chk_at)
    if kind == FORGET_VAR:
        nbrs = g.var_masks[elem]
        return 1 << (kc + var_at.index(elem)) | sum(
            1 << s for s, c in enumerate(chk_at) if c >= 0 and nbrs >> c & 1)
    assert kind == FORGET_CHK
    nbrs = g.chk_masks[elem]
    return 1 << chk_at.index(elem) | sum(
        1 << s for s, v in enumerate(var_at, kc) if v >= 0 and nbrs >> v & 1)


def check_masks(g: TannerGraph, ntd: NiceTreeDecomposition) -> None:
    """Every forget's mask is the one rebuilt from its child's layouts and
    the graph's global bitmasks, and every other node's is 0."""
    nodes = ntd.nodes
    for x, node in enumerate(nodes):
        if node.kind in (FORGET_VAR, FORGET_CHK):
            below = nodes[node.children[0]]
            assert ntd.mask[x] == forget_mask_reference(
                g, node.kind, node.elem, below.var_at, below.chk_at)
        else:
            assert ntd.mask[x] == 0


def hand_nice(g: TannerGraph, nodes, var_slots: int, chk_slots: int,
              tw: int) -> NiceTreeDecomposition:
    """The nice form of columns built by hand from ``(kind code, element,
    children)`` per node in post-order, checked by its constructor."""
    children = [tuple(ch) + (-1, -1) for _, _, ch in nodes]
    return NiceTreeDecomposition(
        g, bytes(code for code, _, _ in nodes),
        array("i", [e for _, e, _ in nodes]),
        array("i", [ch[0] for ch in children]),
        array("i", [ch[1] for ch in children]), var_slots, chk_slots, tw)


def walk_fault(g: TannerGraph, nodes, var_slots: int,
               chk_slots: int) -> tuple[str, ...]:
    """The violations the column walk raises when ``hand_nice`` constructs
    the columns ``nodes`` at width var_slots + chk_slots - 1."""
    with pytest.raises(InvalidDecompositionError) as exc:
        hand_nice(g, nodes, var_slots, chk_slots, var_slots + chk_slots - 1)
    return exc.value.violations


# ---------------------------------------------------------------------------
# syndrome trellis: every b, no tree decomposition

TRELLIS_MAX_OPEN = 20


def trellis_spectrum(g: TannerGraph, b: int) -> list[tuple | None]:
    """(f, count, w) of the smallest (f, d)-trapping sets for d = 0..b, or
    None where there is none; w is the integer-smallest minimizer.

    The classical code trellis of Bahl, Cocke, Jelinek and Raviv (1974)
    with d added: the variables are swept in index order, and a state is
    (parity of the open checks as a global-id mask, d, nonempty), mapped to
    (f, count, w).  A check opens at its first neighbour and closes at its
    last, where its parity moves into d.  Raises ValueError when more than
    ``TRELLIS_MAX_OPEN`` checks are open at once, before sweeping.
    """
    closing = [0] * g.n_var           # checks whose last neighbour is v
    opened = [0] * g.n_var            # +1 at a first neighbour, -1 at a last
    for c, vs in enumerate(g.chk_adj):
        if vs:
            closing[max(vs)] |= 1 << c
            opened[min(vs)] += 1
            opened[max(vs)] -= 1
    now = 0
    for v in range(g.n_var):
        now += opened[v]
        if now > TRELLIS_MAX_OPEN:
            raise ValueError(f"{now} open checks at v{v} exceed "
                             f"{TRELLIS_MAX_OPEN}")
    states = {(0, 0, False): (0, 1, 0)}
    for v in range(g.n_var):
        vb, flip, close = 1 << v, g.var_masks[v], closing[v]
        nxt: dict[tuple, tuple] = {}
        for (par, d, nonempty), (f, cnt, w) in states.items():
            for par2, ent, ne in ((par, (f, cnt, w), nonempty),
                                  (par ^ flip, (f + 1, cnt, w | vb), True)):
                d2 = d + (par2 & close).bit_count()
                if d2 > b:
                    continue
                key = (par2 & ~close, d2, ne)
                old = nxt.get(key)
                if old is None or ent[0] < old[0]:
                    nxt[key] = ent
                elif ent[0] == old[0]:
                    nxt[key] = (ent[0], old[1] + ent[1],
                                min(old[2], ent[2]))
        states = nxt
    return [states.get((0, d, True)) for d in range(b + 1)]


def all_nonempty_subsets(n: int):
    for a in range(1, n + 1):
        yield from itertools.combinations(range(n), a)


# ---------------------------------------------------------------------------
# line-by-line input checks

def parse_alist_reference(text: str | bytes) -> TannerGraph:
    """Parse a parity-check matrix in MacKay alist format.

    The oracle for ``tanner.parse_alist``, which checks the neighbor lists
    in bulk: this one reads them line by line.

    Zero padding in the neighbor lists is tolerated and stripped.  The
    declared maximum degrees must be the largest listed ones, and the column
    and row lists are cross-checked against each other.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise AlistError(f"non-ASCII byte 0x{text[exc.start]:02x}",
                             text.count(b"\n", 0, exc.start) + 1) from None
    lines = text.splitlines()

    def ints(i: int, what: str) -> list[int]:
        if i >= len(lines):
            raise AlistError(f"unexpected end of input, expected {what}", i + 1)
        try:
            return [int(tok) for tok in lines[i].split()]
        except ValueError:
            raise AlistError(f"non-integer token in {what}", i + 1) from None

    header = ints(0, "header 'n m'")
    if len(header) != 2 or header[0] < 0 or header[1] < 0:
        raise AlistError("header must be two non-negative integers 'n m'", 1)
    n, m = header
    maxdeg = ints(1, "max degrees")
    if len(maxdeg) != 2:
        raise AlistError("expected 'max_col_degree max_row_degree'", 2)
    col_deg = ints(2, "column degrees")
    if len(col_deg) != n:
        raise AlistError(f"expected {n} column degrees, got {len(col_deg)}", 3)
    row_deg = ints(3, "row degrees")
    if len(row_deg) != m:
        raise AlistError(f"expected {m} row degrees, got {len(row_deg)}", 4)
    largest = [max(col_deg, default=0), max(row_deg, default=0)]
    if maxdeg != largest:
        raise AlistError(f"max degrees {maxdeg[0]} {maxdeg[1]}, but the "
                         f"listed degrees reach {largest[0]} {largest[1]}", 2)

    cols: list[list[int]] = []
    for j in range(n):
        lineno = 5 + j
        entries = [x for x in ints(4 + j, f"column {j} list") if x != 0]
        if len(entries) != col_deg[j]:
            raise AlistError(
                f"column {j}: {len(entries)} entries, degree says {col_deg[j]}",
                lineno)
        for x in entries:
            if not 1 <= x <= m:
                raise AlistError(f"column {j}: check id {x} out of range 1..{m}",
                                 lineno)
        if len(set(entries)) != len(entries):
            raise AlistError(f"column {j}: duplicate check id", lineno)
        cols.append(sorted(x - 1 for x in entries))

    rows: list[list[int]] = []
    for i in range(m):
        lineno = 5 + n + i
        entries = [x for x in ints(4 + n + i, f"row {i} list") if x != 0]
        if len(entries) != row_deg[i]:
            raise AlistError(
                f"row {i}: {len(entries)} entries, degree says {row_deg[i]}",
                lineno)
        for x in entries:
            if not 1 <= x <= n:
                raise AlistError(f"row {i}: variable id {x} out of range 1..{n}",
                                 lineno)
        if len(set(entries)) != len(entries):
            raise AlistError(f"row {i}: duplicate variable id", lineno)
        rows.append(sorted(x - 1 for x in entries))

    # row and column views must transpose into each other
    from_cols = sorted((c, v) for v, cs in enumerate(cols) for c in cs)
    from_rows = sorted((c, v) for c, vs in enumerate(rows) for v in vs)
    if from_cols != from_rows:
        raise AlistError("row lists and column lists are inconsistent", 5 + n)

    return TannerGraph(n, m, tuple(tuple(r) for r in rows),
                       tuple(tuple(c) for c in cols))


def _tree_ok_reference(num_bags: int, edges) -> str | None:
    """Return a violation string if the edge set is not a tree, else None;
    every edge is checked and the tree searched breadth first."""
    if num_bags == 0:
        return "no bags"
    seen = set()
    adj = {i: [] for i in range(num_bags)}
    for i, j in edges:
        if not (0 <= i < num_bags and 0 <= j < num_bags):
            return f"tree edge {(i, j)} out of range"
        if i == j:
            return f"self-loop on bag {i}"
        key = (min(i, j), max(i, j))
        if key in seen:
            return f"duplicate tree edge {key}"
        seen.add(key)
        adj[i].append(j)
        adj[j].append(i)
    if len(seen) != num_bags - 1:
        return f"{len(seen)} edges for {num_bags} bags (tree needs {num_bags - 1})"
    reached = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in reached:
                reached.add(y)
                queue.append(y)
    if len(reached) != num_bags:
        return "tree edges do not connect all bags"
    return None


def rooted_tree_reference(
        td: TreeDecomposition) -> tuple[list[int], list[list[int]]]:
    """Breadth-first order and ascending children of a valid bag tree.

    The oracle for the tree in ``decomp.validate``'s report: rooted at
    ``td.root``, or else at the smallest-index bag of tree-degree at most
    one, and searched with a queue and a parent per bag.
    """
    nbrs: dict[int, set[int]] = {i: set() for i in range(len(td.bags))}
    for i, j in td.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    root = td.root if td.root is not None \
        else min(i for i in nbrs if len(nbrs[i]) <= 1)
    parent = {root: None}
    order = []
    queue = deque([root])
    while queue:
        x = queue.popleft()
        order.append(x)
        for y in sorted(nbrs[x] - {parent[x]}):
            parent[y] = x
            queue.append(y)
    children = [sorted(nbrs[x] - {parent[x]}) for x in range(len(td.bags))]
    return order, children


def validate_reference(g: TannerGraph,
                       td: TreeDecomposition) -> ValidationReport:
    """Check the decomposition conditions; violations become report entries.

    The oracle for ``decomp.validate``, which checks each condition in
    bulk: this one keeps an occurrence list per node and tests membership
    one by one.
    """
    total = g.n_var + g.n_chk
    violations: list[str] = []
    if td.n_nodes != total:
        violations.append(f"decomposition has {td.n_nodes} nodes, "
                          f"graph has {total}")

    for i, bag in enumerate(td.bags):
        for x in bag:
            if not 0 <= x < total:
                violations.append(f"bag {i}: node id {x} out of range")
    repeated = False
    for i, bag in enumerate(td.bags):
        listed = list(bag)
        for k, x in enumerate(listed):
            if x not in listed[:k] and x in listed[k + 1:]:
                violations.append(f"bag {i}: node {x} listed twice")
                repeated = True

    tree_err = _tree_ok_reference(len(td.bags), td.edges)
    if tree_err is None and td.root is not None \
            and not 0 <= td.root < len(td.bags):
        tree_err = f"root {td.root} out of range"
    if tree_err:
        violations.append(f"tree structure: {tree_err}")
        return ValidationReport(tuple(violations))

    occurrence: dict[int, list[int]] = {x: [] for x in range(total)}
    for i, bag in enumerate(td.bags):
        for x in bag:
            if 0 <= x < total:
                occurrence[x].append(i)

    for x in range(total):
        if not occurrence[x]:
            violations.append(f"node {x} appears in no bag")

    for c in range(g.n_chk):
        cc = g.n_var + c
        for v in g.chk_adj[c]:
            if not any(v in td.bags[i] for i in occurrence.get(cc, ())):
                violations.append(f"edge (v{v}, c{c}) is covered by no bag")

    # connectivity of each node's occurrence set: a subforest of a tree is
    # connected iff #bags == #edges-within + 1; a repeat would count twice
    if repeated:
        return ValidationReport(tuple(violations))
    inside = Counter(x for i, j in td.edges
                     for x in set(td.bags[i]) & set(td.bags[j]))
    for x in range(total):
        occ = occurrence[x]
        if occ and len(occ) != inside[x] + 1:
            violations.append(f"node {x}: occurrence bags are disconnected")

    return ValidationReport(tuple(violations))
