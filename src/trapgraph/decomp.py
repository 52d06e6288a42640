"""Tree decompositions of Tanner graphs and their rooted nice form.

Plain decompositions carry bags in the combined node namespace (variables
0..n-1, checks n..n+m-1).  The nice form splits every bag into a variable
part and a check part, each stored as a slot layout in its own namespace
(the element at each bag-local slot, or -1), and lays the rooted tree out
as a post-order array (children precede parents).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from trapgraph.tanner import ScLdpcParams, TannerGraph

LEAF = "leaf"
INTRO_VAR = "intro_var"
FORGET_VAR = "forget_var"
INTRO_CHK = "intro_chk"
FORGET_CHK = "forget_chk"
JOIN = "join"


class TdFormatError(ValueError):
    """Malformed .td input.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidDecompositionError(ValueError):
    """A decomposition that fails ``validate``; ``violations`` lists why."""

    def __init__(self, violations: tuple[str, ...]):
        super().__init__("invalid tree decomposition: "
                         + "; ".join(violations[:5]))
        self.violations = violations


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags over the combined namespace plus an undirected tree on bag indices."""

    n_nodes: int
    bags: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]
    root: int | None = None


class RootedTree(NamedTuple):
    """The bag tree oriented away from its root, ``order[0]``: the bags in
    breadth-first order, and the children of each bag in ascending index."""

    order: list[int]
    children: list[list[int]]


@dataclass(frozen=True)
class ValidationReport:
    """The violations ``validate`` found, in report order.

    ``tree`` is the bag tree as rooted by the walk that checked its shape
    (see ``RootedTree``), or None when the shape is invalid or the report
    was built elsewhere; ``make_nice`` orients the nice form by it.
    """

    violations: tuple[str, ...]
    tree: RootedTree | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def width(td: TreeDecomposition) -> int:
    """Maximum bag size minus one."""
    if not td.bags:
        raise ValueError("decomposition has no bags")
    return max(len(b) for b in td.bags) - 1


def _walk_tree(num_bags: int, edges, root: int | None) -> RootedTree | str:
    """Check the tree shape and root it in one walk; a violation string
    when the edges do not form a tree on the bags or ``root`` is out of
    range.

    Each edge is checked in order for its range, a self-loop and a
    repeat, then the edge count.  The walk starts at ``root``, or at the
    smallest-index bag of tree-degree at most one when ``root`` is None or
    out of range, and must reach every bag; a root out of range is
    reported only for an otherwise valid tree.
    """
    if num_bags == 0:
        return "no bags"
    adj: list[list[int]] = [[] for _ in range(num_bags)]
    seen = set()
    for i, j in edges:
        if not (0 <= i < num_bags and 0 <= j < num_bags):
            return f"tree edge {(i, j)} out of range"
        if i == j:
            return f"self-loop on bag {i}"
        key = (i, j) if i < j else (j, i)
        if key in seen:
            return f"duplicate tree edge {key}"
        seen.add(key)
        adj[i].append(j)
        adj[j].append(i)
    if len(seen) != num_bags - 1:
        return f"{len(seen)} edges for {num_bags} bags (tree needs {num_bags - 1})"
    # with num_bags - 1 edges some component is a tree, so some bag has
    # tree-degree at most one
    start = root if root is not None and 0 <= root < num_bags \
        else next(i for i, nbrs in enumerate(adj) if len(nbrs) <= 1)
    reached = [False] * num_bags
    reached[start] = True
    order = [start]
    for x in order:
        kids = [y for y in adj[x] if not reached[y]]
        for y in kids:
            reached[y] = True
        kids.sort()
        adj[x] = kids                 # the adjacency becomes the children
        order += kids
    if len(order) != num_bags:
        return "tree edges do not connect all bags"
    if root is not None and root != start:
        return f"root {root} out of range"
    return RootedTree(order, adj)


def validate(g: TannerGraph, td: TreeDecomposition) -> ValidationReport:
    """Check the decomposition conditions; violations become report entries.

    The report lists, in this order: a node count that differs from the
    graph's, every out-of-range bag entry, a tree-structure fault or a
    ``td.root`` out of range (which ends the report), every node in no
    bag, every edge covered by no bag and every node whose bags are
    disconnected.  The tree shape is checked by one walk that also roots
    the tree, at ``td.root`` or else at the smallest-index bag of
    tree-degree at most one; the report carries the rooted tree whenever
    the shape is valid.  The other conditions are checked in bulk:
    occurrences come from one ``Counter`` over all bags, a check's
    uncovered edges from one set difference with the bags that hold it,
    and the running intersection from one ``Counter`` over the
    intersections of adjacent bags.  Entries are listed one by one only
    for a condition that fails.
    """
    n, total = g.n_var, g.n_var + g.n_chk
    bags = td.bags
    violations: list[str] = []
    if td.n_nodes != total:
        violations.append(f"decomposition has {td.n_nodes} nodes, "
                          f"graph has {total}")

    occurrences = Counter(chain.from_iterable(bags))
    stray = bool(occurrences) and (min(occurrences) < 0
                                   or max(occurrences) >= total)
    if stray:
        for i, bag in enumerate(bags):
            for x in bag:
                if not 0 <= x < total:
                    violations.append(f"bag {i}: node id {x} out of range")

    tree = _walk_tree(len(bags), td.edges, td.root)
    if isinstance(tree, str):
        violations.append(f"tree structure: {tree}")
        return ValidationReport(tuple(violations))

    if stray or len(occurrences) != total:
        violations.extend(f"node {x} appears in no bag"
                          for x in range(total) if x not in occurrences)

    holding: list[list[frozenset[int]]] = [[] for _ in range(g.n_chk)]
    checks = set(range(n, total))
    for bag in bags:
        for x in checks.intersection(bag):
            holding[x - n].append(bag)
    for c, (vs, held) in enumerate(zip(g.chk_adj, holding)):
        missed = set(vs).difference(*held)
        if missed:
            violations.extend(f"edge (v{v}, c{c}) is covered by no bag"
                              for v in vs if v in missed)

    # each node's bags are connected iff they span one edge fewer than
    # their number; they never span more, as the tree has no cycle
    inside = Counter(chain.from_iterable(bags[i] & bags[j]
                                         for i, j in td.edges))
    if sum(occurrences.values()) != sum(inside.values()) + len(occurrences):
        violations.extend(f"node {x}: occurrence bags are disconnected"
                          for x in range(total) if x in occurrences
                          and occurrences[x] != inside[x] + 1)

    return ValidationReport(tuple(violations), tree)


def parse_td(text: str | bytes) -> TreeDecomposition:
    """Parse the PACE-2017 .td exchange format (1-indexed, combined namespace).

    Every bag needs its own ``b`` line that lists no node twice, and the
    header's max-bag field must be the size of the largest bag.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise TdFormatError(f"non-ASCII byte 0x{text[exc.start]:02x}",
                                text.count(b"\n", 0, exc.start) + 1) from None
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "s":
            if header is not None:
                raise TdFormatError("duplicate header", lineno)
            if len(toks) != 5 or toks[1] != "td":
                raise TdFormatError("header must be 's td <bags> <max_bag> <nodes>'",
                                    lineno)
            try:
                header = tuple(int(t) for t in toks[2:])
            except ValueError:
                raise TdFormatError("non-integer header field", lineno) from None
            header_line = lineno
        elif toks[0] == "b":
            if header is None:
                raise TdFormatError("bag line before header", lineno)
            try:
                ids = [int(t) for t in toks[1:]]
            except ValueError:
                raise TdFormatError("non-integer bag entry", lineno) from None
            if not ids:
                raise TdFormatError("bag line without bag id", lineno)
            bag_id, contents = ids[0], ids[1:]
            if not 1 <= bag_id <= header[0]:
                raise TdFormatError(f"bag id {bag_id} out of range", lineno)
            if bag_id - 1 in bags:
                raise TdFormatError(f"duplicate bag {bag_id}", lineno)
            for x in contents:
                if not 1 <= x <= header[2]:
                    raise TdFormatError(f"bag {bag_id}: node id {x} out of range",
                                        lineno)
            bag = frozenset(x - 1 for x in contents)
            if len(bag) != len(contents):
                repeated = next(x for i, x in enumerate(contents)
                                if x in contents[:i])
                raise TdFormatError(f"bag {bag_id}: node {repeated} listed "
                                    "twice", lineno)
            if len(bag) > header[1]:
                raise TdFormatError(f"bag {bag_id} has {len(bag)} nodes, the "
                                    f"header allows {header[1]}", lineno)
            bags[bag_id - 1] = bag
        else:
            if header is None:
                raise TdFormatError("edge line before header", lineno)
            try:
                i, j = (int(t) for t in toks)
            except ValueError:
                raise TdFormatError("malformed tree-edge line", lineno) from None
            if not (1 <= i <= header[0] and 1 <= j <= header[0]):
                raise TdFormatError(f"tree edge ({i},{j}) out of range", lineno)
            edges.append((i - 1, j - 1))
    if header is None:
        raise TdFormatError("missing 's td' header")
    num_bags = header[0]
    if len(bags) != num_bags:
        missing = min(set(range(num_bags)) - bags.keys())
        raise TdFormatError(f"bag {missing + 1} has no 'b' line", header_line)
    largest = max(map(len, bags.values()), default=0)
    if largest != header[1]:
        raise TdFormatError(f"header says bags have up to {header[1]} nodes, "
                            f"the largest has {largest}", header_line)
    bag_list = tuple(bags[i] for i in range(num_bags))
    tree = _walk_tree(num_bags, edges, None)
    if isinstance(tree, str):
        raise TdFormatError(f"edge set is not a tree: {tree}")
    return TreeDecomposition(header[2], bag_list, tuple(edges))


def serialize_td(td: TreeDecomposition) -> str:
    """Canonical .td text: bags in index order, sorted contents."""
    max_bag = max((len(b) for b in td.bags), default=0)
    out = [f"s td {len(td.bags)} {max_bag} {td.n_nodes}"]
    for i, bag in enumerate(td.bags):
        items = " ".join(str(x + 1) for x in sorted(bag))
        out.append(f"b {i + 1} {items}".rstrip())
    for i, j in td.edges:
        out.append(f"{i + 1} {j + 1}")
    return "\n".join(out) + "\n"


class NiceNode(NamedTuple):
    """One nice node; its bag is stored only as two slot layouts.

    ``var_at[s]`` and ``chk_at[s]`` are the variable and check at slot s,
    or -1 where the slot is free, as in ``dpcore.DPTable``.
    """

    kind: str
    elem: int | None          # variable or check id in its own namespace
    var_at: tuple[int, ...]
    chk_at: tuple[int, ...]
    children: tuple[int, ...]
    # bag-local slot of elem, in this bag for an introduce and in the
    # child's bag for a forget; None for leaves and joins
    slot: int | None

    # global-id bitmasks of O(n) bits, derived on every read: for readers
    # off the hot path (re-validation, tests), never the DP
    @property
    def bag_v(self) -> int:
        return sum(1 << v for v in self.var_at if v >= 0)

    @property
    def bag_c(self) -> int:
        return sum(1 << c for c in self.chk_at if c >= 0)

    @property
    def bag_size(self) -> int:
        return (len(self.var_at) - self.var_at.count(-1)
                + len(self.chk_at) - self.chk_at.count(-1))


class NiceTreeDecomposition(NamedTuple):
    """Rooted nice decomposition in post-order array form; the root is last.

    Every bag element holds a slot number in its namespace, fixed from the
    forget that removes it (toward the root) down to the introduce that adds
    it; the two children of a join share the join's layouts.
    ``var_slots`` and ``chk_slots`` are the largest variable and check
    counts of any bag, and the lengths of every node's layouts.
    """

    n_var: int
    n_chk: int
    nodes: tuple[NiceNode, ...]
    var_slots: int
    chk_slots: int

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    def width(self) -> int:
        free = min(n.var_at.count(-1) + n.chk_at.count(-1) for n in self.nodes)
        return self.var_slots + self.chk_slots - free - 1

    def as_tree_decomposition(self) -> TreeDecomposition:
        """Combined-namespace view, e.g. for re-validation."""
        bags = []
        edges = []
        for i, node in enumerate(self.nodes):
            bag = {v for v in node.var_at if v >= 0}
            bag |= {self.n_var + c for c in node.chk_at if c >= 0}
            bags.append(frozenset(bag))
            for ch in node.children:
                edges.append((ch, i))
        return TreeDecomposition(self.n_var + self.n_chk, tuple(bags),
                                 tuple(edges), root=self.root)


# the namespace, 0 for variables and 1 for checks, of each forget and
# introduce kind
_FORGET_NS = {FORGET_VAR: 0, FORGET_CHK: 1}
_INTRO_NS = {INTRO_VAR: 0, INTRO_CHK: 1}


def _layout(nodes: list[tuple], var_slots: int,
            chk_slots: int) -> tuple[tuple[NiceNode, ...], int]:
    """Lay out every bag top-down from the empty root and freeze the nodes.

    ``nodes`` holds (kind, elem, children) per nice node, in post-order;
    each entry is cleared once read, so the nodes are built in about the
    memory they replace.
    Read downward, a forget puts its element in the lowest free slot of its
    namespace's layout, an introduce frees its element's slot there, and a
    join hands both layouts to both children: one rule per direction, the
    same for variables and checks.  A layout an operation leaves alone is
    passed on as the same tuple.  Also returns the width, from the fewest
    free slots of any bag.
    """
    out: list[NiceNode | None] = [None] * len(nodes)
    new = tuple.__new__
    fewest = var_slots + chk_slots
    stack = [(len(nodes) - 1, (-1,) * var_slots, (-1,) * chk_slots, fewest)]
    while stack:
        x, var_at, chk_at, free = stack.pop()
        # per namespace, the layout frozen as a tuple and as a list updated
        # in place
        at = [var_at, chk_at]
        lists = [list(var_at), list(chk_at)]
        while True:
            kind, elem, kids = nodes[x]
            nodes[x] = None           # read once; frees memory as we go
            if kind in _FORGET_NS:
                ns = _FORGET_NS[kind]
                layout = lists[ns]
                slot = layout.index(-1)
                out[x] = new(NiceNode, (kind, elem, at[0], at[1], kids, slot))
                layout[slot] = elem
                at[ns] = tuple(layout)
                free -= 1
            elif kind in _INTRO_NS:
                # only an introduce's bag can be the fullest: a forget's
                # child holds one more element, and a join's children its
                # own bag
                if free < fewest:
                    fewest = free
                ns = _INTRO_NS[kind]
                layout = lists[ns]
                slot = layout.index(elem)
                out[x] = new(NiceNode, (kind, elem, at[0], at[1], kids, slot))
                layout[slot] = -1
                at[ns] = tuple(layout)
                free += 1
            else:
                out[x] = new(NiceNode, (kind, elem, at[0], at[1], kids, None))
                if kind == LEAF:
                    break
                stack.append((kids[1], at[0], at[1], free))
            x = kids[0]
    return tuple(out), var_slots + chk_slots - fewest - 1


def make_nice(g: TannerGraph, td: TreeDecomposition) -> NiceTreeDecomposition:
    """Transform a valid decomposition into rooted nice form, width preserved.

    ``validate`` checks the input and roots its tree, at ``td.root`` when
    set, otherwise at the smallest-index bag of tree-degree at most one (for
    a path: an endpoint, which yields a join-free nice form); the nice form
    follows that tree's breadth-first order and ascending children from the
    report, with no second walk.  Multi-child bags become binary join
    cascades; adjacent differing bags are bridged by forget-then-introduce
    chains in ascending id order.  Every node carries its bag's slot layouts
    and every introduce and forget its element's slot (see
    ``NiceTreeDecomposition``).  Raises ``InvalidDecompositionError`` when
    ``validate`` finds violations.
    """
    report = validate(g, td)
    if not report.ok:
        raise InvalidDecompositionError(report.violations)

    order, children = report.tree
    root = order[0]
    n = g.n_var
    nodes: list[tuple] = []           # (kind, elem, children), post-order
    append = nodes.append

    def bridge(idx: int, cur: frozenset[int], target: frozenset[int]) -> int:
        """Bridge node ``idx``, holding bag ``cur``, to bag ``target`` with
        forgets (ascending id) then introduces, one element per node."""
        for x in sorted(cur - target):
            append((FORGET_VAR, x, (idx,)) if x < n
                   else (FORGET_CHK, x - n, (idx,)))
            idx = len(nodes) - 1
        for x in sorted(target - cur):
            append((INTRO_VAR, x, (idx,)) if x < n
                   else (INTRO_CHK, x - n, (idx,)))
            idx = len(nodes) - 1
        return idx

    top: dict[int, int] = {}
    for x in reversed(order):              # post-order over original bags
        bag = td.bags[x]
        kids = children[x]
        if not kids:
            append((LEAF, None, ()))
            top[x] = bridge(len(nodes) - 1, frozenset(), bag)
            continue
        tops = [bridge(top[k], td.bags[k], bag) for k in kids]
        idx = tops[0]
        for other in tops[1:]:
            append((JOIN, None, (idx, other)))
            idx = len(nodes) - 1
        top[x] = idx

    bridge(top[root], td.bags[root], frozenset())
    # every nice bag is a subset of an input bag, so the input bags give
    # the slot counts
    n_vars = list(map(len, map(set(range(n)).intersection, td.bags)))
    var_slots = max(n_vars)
    chk_slots = max(map(int.__sub__, map(len, td.bags), n_vars))
    nice, nice_width = _layout(nodes, var_slots, chk_slots)
    if nice_width != width(td):
        raise ValueError(f"nice form has width {nice_width}, "
                         f"input has width {width(td)}")
    return NiceTreeDecomposition(n, g.n_chk, nice, var_slots, chk_slots)


def sc_path_decomposition(g: TannerGraph, p: ScLdpcParams) -> TreeDecomposition:
    """Sliding-window path decomposition for a spatially coupled code.

    Bag t holds check block t together with the variable blocks of its
    coupling window; rooted at bag 0 so the nice form is join-free.
    """
    if g.n_var != p.n_var or g.n_chk != p.n_chk:
        raise ValueError(
            f"graph is {g.n_var}x{g.n_chk}, parameters say {p.n_var}x{p.n_chk}")
    r, c, L, w = p.base_rows, p.base_cols, p.coupling_len, p.coupling_width
    for chk in range(g.n_chk):
        t = chk // r
        lo, hi = max(0, t - w + 1) * c, min(t, L - 1) * c + c
        for v in g.chk_adj[chk]:
            if not lo <= v < hi:
                raise ValueError(
                    f"check {chk} (block {t}) adjacent to variable {v} "
                    "outside its coupling window")
    bags = []
    for t in range(L + w - 1):
        bag = {g.n_var + r * t + i for i in range(r)}
        for j in range(max(0, t - w + 1), min(t, L - 1) + 1):
            bag |= {j * c + i for i in range(c)}
        bags.append(frozenset(bag))
    edges = tuple((t, t + 1) for t in range(len(bags) - 1))
    return TreeDecomposition(g.n_var + g.n_chk, tuple(bags), edges, root=0)


def heuristic_decomposition(g: TannerGraph) -> TreeDecomposition:
    """Greedy min-fill elimination decomposition; valid for any graph.

    Repeatedly eliminates the node with the smallest (fill-in, current
    degree, id), where fill-in counts the missing edges among its current
    neighbours, and turns that neighbourhood into a clique.  Node x
    eliminated with neighbourhood N gives bag {x} | N, whose parent is the
    bag of the earliest-eliminated node of N; parentless bags are chained
    together.  Bag i belongs to the i-th eliminated node.  No width
    guarantee (Bodlaender & Koster, "Treewidth computations I. Upper
    bounds", Inf. Comput. 2010).

    Every fill-in is kept exact by incremental updates instead of being
    recounted.  A Tanner graph is bipartite, so no two neighbours of a node
    start out adjacent and its initial fill-in is deg * (deg - 1) / 2.
    Eliminating x first drops, at each a in N, the missing pairs (x, c)
    with c outside N.  Each missing pair (a, b) in N then becomes a fill
    edge: a gains the missing pairs (b, c) for c in N(a) - N(b), b likewise,
    and every common neighbour of a and b loses one.  Only N and those
    common neighbours are rescored, so a step costs O(|N|) set operations
    plus O(degree) per fill edge it adds.
    """
    total = g.n_var + g.n_chk
    if total == 0:
        return TreeDecomposition(0, (frozenset(),), ())
    adj: list[set[int]] = [set() for _ in range(total)]
    for c, vs in enumerate(g.chk_adj):
        for v in vs:
            adj[v].add(g.n_var + c)
            adj[g.n_var + c].add(v)

    # the graph is bipartite: every pair of a node's neighbours is missing
    fill = [len(nbrs) * (len(nbrs) - 1) // 2 for nbrs in adj]
    # lazy heap of keys (fill * total + degree) * total + x, which order as
    # the tuples (fill, degree, x) but compare faster; an entry is live
    # while it equals current[x]
    current = [(f * total + len(nbrs)) * total + x
               for x, (f, nbrs) in enumerate(zip(fill, adj))]
    heap = list(current)
    heapq.heapify(heap)
    position = [-1] * total
    bags: list[frozenset[int]] = []
    eliminated_nbrs: list[set[int]] = []
    while heap:
        k = heapq.heappop(heap)
        x = k % total
        if position[x] >= 0 or k != current[x]:
            continue
        position[x] = len(bags)
        nbrs = adj[x]
        bags.append(frozenset(nbrs | {x}))
        eliminated_nbrs.append(nbrs)
        for a in nbrs:
            na = adj[a]
            na.discard(x)
            fill[a] -= len(na - nbrs)
        touched = set(nbrs)
        for a in nbrs:
            na = adj[a]
            for b in nbrs - na:
                if b <= a:            # a itself, or a pair added from b
                    continue
                nb = adj[b]
                fill[a] += len(na - nb)
                fill[b] += len(nb - na)
                common = na & nb
                for y in common:
                    fill[y] -= 1
                touched |= common
                na.add(b)
                nb.add(a)
        for y in touched:
            k = (fill[y] * total + len(adj[y])) * total + y
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
