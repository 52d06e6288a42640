"""Tree decompositions of Tanner graphs and their rooted nice form.

Plain decompositions carry bags in the combined node namespace (variables
0..n-1, checks n..n+m-1).  Every builder here and ``parse_td`` makes each
bag a sorted tuple of distinct ids, with one int object per id shared by
all the bags (and tree edges) of one call, so a bag costs a tuple slot per
member.  ``validate`` and ``make_nice`` read a bag only by its length,
iteration and membership, so they take any bags of that kind, frozensets
included.

The nice form lays the rooted tree out as flat post-order columns
(children precede parents): per node a kind byte, the element it
introduces or forgets in its own namespace, that element's bag-local slot,
a forget's key mask for the DP and its children.  Bags are not stored;
each is a pair of slot layouts, one per namespace, that the columns
determine.  The nice form's constructor ends with one top-down walk,
``check_nice_columns``, that writes the slots and masks and checks them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Collection, NamedTuple, Sequence

from trapgraph.tanner import ScLdpcParams, TannerGraph

LEAF = "leaf"
INTRO_VAR = "intro_var"
FORGET_VAR = "forget_var"
INTRO_CHK = "intro_chk"
FORGET_CHK = "forget_chk"
JOIN = "join"
# the kinds by their byte in ``NiceTreeDecomposition.kind``
KINDS = (LEAF, INTRO_VAR, FORGET_VAR, INTRO_CHK, FORGET_CHK, JOIN)
K_LEAF, K_INTRO_VAR, K_FORGET_VAR, K_INTRO_CHK, K_FORGET_CHK, K_JOIN = \
    range(len(KINDS))
_ABSENT = array("i", [-1])            # repeated for a column of -1s


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


class TreeDecomposition(NamedTuple):
    """Bags over the combined namespace plus an undirected tree on bag
    indices; an immutable named tuple, so ``td._replace(root=r)`` re-roots.

    The builders and ``parse_td`` make each bag a sorted tuple of distinct
    ids, so two decompositions with the same bags and edges compare equal.
    Bags built by hand may be any collection of ids read by length,
    iteration and membership, a frozenset for one; ``validate`` reports an
    id listed twice in one bag.
    """

    n_nodes: int
    bags: tuple[Collection[int], ...]
    edges: tuple[tuple[int, int], ...]
    root: int | None = None


class RootedTree(NamedTuple):
    """The bag tree oriented away from its root, ``order[0]``: the bags in
    breadth-first order, and the children of each bag in ascending index."""

    order: list[int]
    children: list[list[int]]


class ValidationReport(NamedTuple):
    """The violations ``validate`` found, in report order; a named tuple.

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
    graph's, every out-of-range bag entry, every node listed twice in one
    bag, a tree-structure fault or a ``td.root`` out of range (which ends
    the report), every node in no bag, every edge covered by no bag and
    every node whose bags are disconnected.  The last is not checked when a
    bag lists a node twice, as its counts would take the repeat twice.  The
    tree shape is checked by one walk that also roots the tree, at
    ``td.root`` or else at the smallest-index bag of tree-degree at most
    one; the report carries the rooted tree whenever the shape is valid.

    A bag is read only by its length and iteration, so sorted tuples and
    frozensets alike are checked as they are; no membership test scans a
    tuple.  The other conditions are checked in bulk: occurrences come
    from one ``Counter`` over all bags, repeats from the bags' distinct
    sizes, a check's uncovered edges from removing each bag that holds it
    from the set of its neighbours while any is left, and the running
    intersection from the total size of the tree neighbours' common
    members.  Entries are listed one by one only for a condition that
    fails.
    """
    n, total = g.n_var, g.n_var + g.n_chk
    bags = td.bags
    violations: list[str] = []
    if td.n_nodes != total:
        violations.append(f"decomposition has {td.n_nodes} nodes, "
                          f"graph has {total}")

    occurrences = Counter(chain.from_iterable(bags))
    entries = sum(occurrences.values())
    stray = bool(occurrences) and (min(occurrences) < 0
                                   or max(occurrences) >= total)
    if stray:
        for i, bag in enumerate(bags):
            for x in bag:
                if not 0 <= x < total:
                    violations.append(f"bag {i}: node id {x} out of range")
    repeated = sum(map(len, map(set, bags))) != entries
    if repeated:
        for i, bag in enumerate(bags):
            violations.extend(f"bag {i}: node {x} listed twice"
                              for x, k in Counter(bag).items() if k > 1)

    tree = _walk_tree(len(bags), td.edges, td.root)
    if isinstance(tree, str):
        violations.append(f"tree structure: {tree}")
        return ValidationReport(tuple(violations))

    if stray or len(occurrences) != total:
        violations.extend(f"node {x} appears in no bag"
                          for x in range(total) if x not in occurrences)

    # per check held by a bag, its neighbours in no bag seen yet that holds
    # it: a set only while some are left, so few sets are alive at once
    missed: list = [None] * g.n_chk
    checks = set(range(n, total))
    for bag in bags:
        for x in checks.intersection(bag):
            left = missed[x - n]
            if left is None:
                missed[x - n] = set(g.chk_adj[x - n]).difference(bag) or ()
            elif left:
                left.difference_update(bag)
                if not left:
                    missed[x - n] = ()
    missed = [vs if left is None else left
              for vs, left in zip(g.chk_adj, missed)]
    if any(missed):
        for c, (vs, left) in enumerate(zip(g.chk_adj, missed)):
            violations.extend(f"edge (v{v}, c{c}) is covered by no bag"
                              for v in vs if v in left)

    # each node's bags are connected iff they span one edge fewer than
    # their number; they never span more, as the tree has no cycle, so one
    # total tells, and the count per node is taken only when it fails
    def shared():
        return (set(bags[i]).intersection(bags[j]) for i, j in td.edges)
    if not repeated and entries != sum(map(len, shared())) + len(occurrences):
        spans = Counter(chain.from_iterable(shared()))
        violations.extend(f"node {x}: occurrence bags are disconnected"
                          for x in range(total) if x in occurrences
                          and occurrences[x] != spans[x] + 1)

    return ValidationReport(tuple(violations), tree)


def parse_td(text: str | bytes) -> TreeDecomposition:
    """Parse the PACE-2017 .td exchange format (1-indexed, combined namespace).

    Every bag needs its own ``b`` line that lists no node twice, and the
    header's max-bag field must be the size of the largest bag.  Each bag
    becomes a sorted tuple of 0-based ids, one int object per id shared by
    every bag and tree edge of the file.  A tree edge that is a self-loop
    or repeats an earlier edge fails at its line, with the file's 1-based
    bag ids, and a number of edges other than the bags' less one at the
    header line; edges that then fail to connect the bags fail with no
    line.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise TdFormatError(f"non-ASCII byte 0x{text[exc.start]:02x}",
                                text.count(b"\n", 0, exc.start) + 1) from None
    header = None
    bags: dict[int, tuple[int, ...]] = {}
    edges: list[tuple[int, int]] = []
    # share(x, x) returns the first int equal to x it was given, so each id
    # is one object however often the file lists it
    share = {}.setdefault
    seen_edges: set[tuple[int, int]] = set()
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
            if len(set(contents)) != len(contents):
                repeated = next(x for i, x in enumerate(contents)
                                if x in contents[:i])
                raise TdFormatError(f"bag {bag_id}: node {repeated} listed "
                                    "twice", lineno)
            if len(contents) > header[1]:
                raise TdFormatError(f"bag {bag_id} has {len(contents)} nodes, "
                                    f"the header allows {header[1]}", lineno)
            bag = sorted(map((-1).__add__, contents))
            bags[bag_id - 1] = tuple(map(share, bag, bag))
        else:
            if header is None:
                raise TdFormatError("edge line before header", lineno)
            try:
                i, j = (int(t) for t in toks)
            except ValueError:
                raise TdFormatError("malformed tree-edge line", lineno) from None
            if not (1 <= i <= header[0] and 1 <= j <= header[0]):
                raise TdFormatError(f"tree edge ({i},{j}) out of range", lineno)
            if i == j:
                raise TdFormatError(f"tree edge ({i},{j}) is a self-loop",
                                    lineno)
            key = (i, j) if i < j else (j, i)
            if key in seen_edges:
                raise TdFormatError(f"tree edge ({i},{j}) repeats an earlier "
                                    "edge", lineno)
            seen_edges.add(key)
            i, j = i - 1, j - 1
            edges.append((share(i, i), share(j, j)))
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
    if num_bags and len(edges) != num_bags - 1:
        raise TdFormatError(f"{len(edges)} tree edges for {num_bags} bags "
                            f"(a tree needs {num_bags - 1})", header_line)
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
    """One nice node as ``NiceTreeDecomposition.nodes`` rebuilds it.

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


class NiceTreeDecomposition:
    """Rooted nice decomposition as flat per-node columns, in post-order
    (children precede parents); the root is last.

    Node x has kind ``KINDS[kind[x]]``.  ``elem[x]`` is the variable or
    check it introduces or forgets, in its own namespace, and ``slot[x]``
    that element's bag-local slot, in this bag for an introduce and in the
    child's bag for a forget; both are -1 for leaves and joins.
    ``child[x]`` is the first child, -1 for a leaf, and ``child2[x]`` a
    join's second child, -1 for every other kind.  Every bag element holds
    one slot number in its namespace, fixed from the forget that removes it
    (toward the root) down to the introduce that adds it; the two children
    of a join share the join's layouts.  ``var_slots`` and ``chk_slots``
    are the largest variable and check counts of any bag.

    ``mask[x]`` is a forget's bits of the DP's packed key (see ``dpcore``)
    in the child's bag: a variable's Q bit and its checks' J bits, or a
    check's J bit and its variables' Q bits; 0 for other kinds.  It spans
    up to var_slots + chk_slots bits, so the column is a list of ints.
    The constructor takes the graph, the other columns and the width ``tw``
    of the bags they came from, and ends with ``check_nice_columns``, so
    every instance is laid out and checked.

    No bag is stored.  ``nodes`` rebuilds every node with its slot layouts
    from the columns on first read and keeps them, for readers off the hot
    path (tests, ``as_tree_decomposition``); the DP reads the columns only.
    """

    __slots__ = ("n_var", "n_chk", "kind", "elem", "slot", "mask", "child",
                 "child2", "var_slots", "chk_slots", "_nodes")

    def __init__(self, g: TannerGraph, kind: bytes, elem: array,
                 child: array, child2: array, var_slots: int, chk_slots: int,
                 tw: int):
        self.n_var = g.n_var
        self.n_chk = g.n_chk
        self.kind = kind
        self.elem = elem
        self.slot = _ABSENT * len(kind)
        self.mask = [0] * len(kind)
        self.child = child
        self.child2 = child2
        self.var_slots = var_slots
        self.chk_slots = chk_slots
        self._nodes: tuple[NiceNode, ...] | None = None
        check_nice_columns(g, self, tw)

    @property
    def root(self) -> int:
        return len(self.kind) - 1

    @property
    def nodes(self) -> tuple[NiceNode, ...]:
        """Every node with its slot layouts, rebuilt bottom-up from the
        columns on first read: an introduce or forget sets its element's
        slot in its child's layout of that namespace and shares the other
        one, and a join shares its first child's layouts."""
        if self._nodes is None:
            out: list[NiceNode] = []
            empty = ((-1,) * self.var_slots, (-1,) * self.chk_slots)
            for x, code in enumerate(self.kind):
                kind, c1 = KINDS[code], self.child[x]
                if code == K_LEAF:
                    node = NiceNode(kind, None, *empty, (), None)
                elif code == K_JOIN:
                    left = out[c1]
                    node = NiceNode(kind, None, left.var_at, left.chk_at,
                                    (c1, self.child2[x]), None)
                else:
                    elem, s = self.elem[x], self.slot[x]
                    at = [out[c1].var_at, out[c1].chk_at]
                    ns = code in (K_INTRO_CHK, K_FORGET_CHK)
                    layout = list(at[ns])
                    layout[s] = elem if code in (K_INTRO_VAR, K_INTRO_CHK) \
                        else -1
                    at[ns] = tuple(layout)
                    node = NiceNode(kind, elem, *at, (c1,), s)
                out.append(node)
            self._nodes = tuple(out)
        return self._nodes

    def width(self) -> int:
        return max(node.bag_size for node in self.nodes) - 1

    def as_tree_decomposition(self) -> TreeDecomposition:
        """Combined-namespace view, e.g. for re-validation, with sorted
        tuple bags."""
        n = self.n_var
        ids = list(range(max(n + self.n_chk, len(self.kind))))
        bags = []
        edges = []
        for i, node in enumerate(self.nodes):
            bag = sorted([ids[v] for v in node.var_at if v >= 0]) \
                + sorted([ids[n + c] for c in node.chk_at if c >= 0])
            bags.append(tuple(bag))
            for ch in node.children:
                edges.append((ids[ch], ids[i]))
        return TreeDecomposition(n + self.n_chk, tuple(bags), tuple(edges),
                                 root=self.root)


def check_nice_columns(g: TannerGraph, ntd: NiceTreeDecomposition,
                       tw: int) -> None:
    """Lay out the columns of ``ntd`` and check them against ``g`` in one
    top-down walk from the empty root, writing every introduce's and
    forget's slot and every forget's mask; the ``NiceTreeDecomposition``
    constructor ends with it.  Raises ``InvalidDecompositionError`` at the
    first fault, naming the node for a column fault: a kind byte none of
    the six, an element id or child index out of range, a join child not
    below the join (any other cycle revisits a forget or an introduce,
    which fails) or a bag over ``var_slots`` or ``chk_slots``.

    Read downward, a forget puts its element in the lowest free slot of its
    namespace's layout (one list per namespace, updated in place along a
    path and copied for a join's second child), and an introduce frees the
    slot its element's forget wrote.  A forget's mask is its own key bit
    plus those of its neighbours in the layouts.

    Every element must be forgotten exactly once, every introduce must find
    its element in the layout (so the root bag is empty) and every leaf an
    empty one.  A Tanner edge sets one mask bit, at the forget of its lower
    endpoint, so the masks' bits less one per forget must count every edge.
    Then each element's bags are the subtree below its forget, and the bags
    the DP reads are a valid decomposition.  Last, the width, from the
    fewest free slots of any bag, must be ``tw``.
    """
    kinds, elems, slots, masks = ntd.kind, ntd.elem, ntd.slot, ntd.mask
    child, child2 = ntd.child, ntd.child2
    kv, kc = ntd.var_slots, ntd.chk_slots
    fewest = kv + kc
    var_adj, chk_adj = g.var_adj, g.chk_adj
    # per element its slot, or before its forget is read the index past the
    # layout's end, where -2 matches no element and the key bit is 0; id -1
    # reads the entry past the last element, which indexes past the layout
    var_slot, chk_slot = [kv] * g.n_var + [kv + 1], [kc] * g.n_chk + [kc + 1]
    q_bit = [1 << s for s in range(kc, kc + kv)] + [0]
    j_bit = [1 << s for s in range(kc)] + [0]
    if min(elems, default=-1) < -1:     # below -1 an id would wrap too
        x = elems.index(min(elems))
        raise InvalidDecompositionError((
            f"node {x}: {'vc'[kinds[x] in (K_FORGET_CHK, K_INTRO_CHK)]}"
            f"{elems[x]} is out of range",))
    stack = [(ntd.root, [-1] * kv + [-2], [-1] * kc + [-2], fewest)]
    try:
        while stack:
            x, var_at, chk_at, free = stack.pop()
            while True:
                code = kinds[x]
                if code == K_FORGET_VAR or code == K_FORGET_CHK:
                    e = elems[x]
                    if code == K_FORGET_VAR:
                        at, where, bit, nbrs = var_at, var_slot, q_bit, var_adj[e]
                        other, other_at, other_bit = chk_slot, chk_at, j_bit
                    else:
                        at, where, bit, nbrs = chk_at, chk_slot, j_bit, chk_adj[e]
                        other, other_at, other_bit = var_slot, var_at, q_bit
                    if at[where[e]] != -2:      # a forget gave it a slot
                        raise InvalidDecompositionError((
                            f"{'vc'[code == K_FORGET_CHK]}{e} is forgotten "
                            "twice",))
                    s = at.index(-1)
                    at[s] = e
                    where[e] = slots[x] = s
                    mask = bit[s]
                    for y in nbrs:
                        t = other[y]
                        if other_at[t] == y:
                            mask |= other_bit[t]
                    masks[x] = mask
                    free -= 1
                elif code == K_INTRO_VAR or code == K_INTRO_CHK:
                    # only an introduce's bag can be the fullest: a
                    # forget's child holds one more element, and a join's
                    # children its own bag
                    if free < fewest:
                        fewest = free
                    e = elems[x]
                    at, s = (var_at, var_slot[e]) if code == K_INTRO_VAR \
                        else (chk_at, chk_slot[e])
                    if at[s] != e:
                        raise InvalidDecompositionError((
                            f"node {x} introduces {'vc'[code == K_INTRO_CHK]}"
                            f"{e}, which no forget above it holds",))
                    at[s] = -1
                    slots[x] = s
                    free += 1
                elif code == K_JOIN:
                    if not (0 <= child[x] < x and 0 <= child2[x] < x):
                        raise InvalidDecompositionError((
                            f"join {x} has a child that is not below it",))
                    stack.append((child2[x], var_at[:], chk_at[:], free))
                else:
                    if code != K_LEAF:
                        raise InvalidDecompositionError((
                            f"node {x} has unknown kind byte {code}",))
                    if free != kv + kc:
                        raise InvalidDecompositionError((
                            f"leaf {x} has a nonempty bag",))
                    break
                x = child[x]
    except InvalidDecompositionError:
        raise
    except IndexError:                  # an element id or a child index
        raise InvalidDecompositionError((
            f"node {x}: {'vc'[code in (K_FORGET_CHK, K_INTRO_CHK)]}"
            f"{elems[x]} is out of range" if 0 <= x < len(kinds)
            else f"child {x} is no node",)) from None
    except ValueError:                  # ``index`` finds no free slot
        raise InvalidDecompositionError((
            f"node {x}: the bag below it holds more "
            + (f"checks than chk_slots = {kc}" if code == K_FORGET_CHK
               else f"variables than var_slots = {kv}"),)) from None
    for name, where, past in (("v", var_slot, kv), ("c", chk_slot, kc)):
        if past in where:
            raise InvalidDecompositionError((
                f"{name}{where.index(past)} is never forgotten",))
    edges = sum(map(len, g.chk_adj))
    covered = sum(map(int.bit_count, masks)) - g.n_var - g.n_chk
    if covered != edges:
        raise InvalidDecompositionError((
            f"Tanner edges in no nice bag: {edges - covered} of {edges}",))
    if kv + kc - fewest - 1 != tw:
        raise InvalidDecompositionError((
            f"nice form has width {kv + kc - fewest - 1}, its bags {tw}",))


def make_nice(g: TannerGraph, td: TreeDecomposition) -> NiceTreeDecomposition:
    """Transform a valid decomposition into rooted nice form, width preserved.

    ``validate`` checks the input and roots its tree, at ``td.root`` when
    set, otherwise at the smallest-index bag of tree-degree at most one (for
    a path: an endpoint, which yields a join-free nice form); the nice form
    follows that tree's breadth-first order and ascending children from the
    report, with no second walk, through ``_nice_columns``, given each bag
    sorted and the members it forgets toward its parent (the root: all).
    Raises ``InvalidDecompositionError`` when ``validate`` finds violations.
    """
    report = validate(g, td)
    if not report.ok:
        raise InvalidDecompositionError(report.violations)
    order, children = report.tree
    bags = list(map(sorted, td.bags))
    # gone looks each child member up in its parent, and a bridge each
    # parent member up in its child: in a set for a bag of more than 8
    # members (a path window holds 11), since a min-fill bag of 3-5 members
    # is scanned faster than it is made a set
    members: list[Collection[int]] = bags[:]
    gone = bags[:]                          # the root's stays its whole bag
    for x in order:
        if children[x]:
            if len(bags[x]) > 8:
                members[x] = set(bags[x])
            above = members[x]
            for k in children[x]:
                gone[k] = [y for y in bags[k] if y not in above]
    return _nice_columns(g, bags, gone, order, children, members)


def _nice_columns(g: TannerGraph, bags: Sequence[Sequence[int]],
                  gone: Sequence[Sequence[int]], order: Sequence[int],
                  children: list[list[int]],
                  members: Sequence[Collection[int]] | None = None,
                  ) -> NiceTreeDecomposition:
    """The nice columns of a valid decomposition whose tree is rooted at
    ``order[0]``, ``reversed(order)`` listing every bag after its children,
    checked at construction against its largest bag less one.  Bags are
    ascending, and ``gone[k]`` lists, ascending, the members of bag k
    outside its parent's bag (the root's: its whole bag).  ``members[k]``,
    bag k as any container of its ids (by default ``bags[k]``), answers
    the bridges' membership tests.

    Multi-child bags become binary join cascades, and a child is bridged to
    its parent by the forgets of ``gone[k]``, then the introduces of the
    parent's members it lacks, ascending.  Each bag emits its leaf
    children, bags with no children.  A leaf whose ``gone`` fits beside
    the bag within the largest bag is folded: after the bag's join cascade
    those members are introduced, then forgotten, in place of the leaf's
    branch and join; by running intersection they lie in no other bag.
    When every child would fold, the first still starts the chain.

    Each node is one int code: the combined id a forget removes, ``total``
    plus the id an introduce adds, or past those a leaf or a join.  Its
    child is the node before it unless ``links`` says otherwise.
    """
    root = order[0]
    kbags = bags if members is None else members
    n, total = g.n_var, g.n_var + g.n_chk
    leaf, join = 2 * total, 2 * total + 1
    codes: list[int] = []
    links: list[int] = []       # node, child, child2 for each chain start

    def put(idx: int, steps: Sequence[int], idx2: int = -1) -> int:
        """The top node of ``steps`` chained above ``idx`` and ``idx2``."""
        if not steps:
            return idx
        links.extend((len(codes), idx, idx2))
        codes.extend(steps)
        return len(codes) - 1

    def bridge(idx: int, k: int, bag: Sequence[int]) -> int:
        """Bridge node ``idx``, holding bag k, to its parent's ``bag``."""
        kbag = kbags[k]
        return put(idx, [*gone[k], *[y + total for y in bag
                                     if y not in kbag]])

    def branch(k: int) -> int:
        """A leaf node and the introduces of bag k above it."""
        return put(-1, [leaf, *[y + total for y in bags[k]]])

    # every nice bag is an input bag or a parent bag widened by a folded
    # leaf's extra members, which holds that leaf's bag; so these give the
    # slot counts
    largest = max(map(len, bags))
    bag_vars = [bisect_left(bag, n) for bag in bags]
    var_slots = max(bag_vars)
    chk_slots = max(len(bag) - v for bag, v in zip(bags, bag_vars))
    top: dict[int, int] = {}
    for x in reversed(order):              # post-order over original bags
        kids = children[x]
        if not kids:
            if x == root:
                top[x] = branch(x)
            continue                        # its parent emits it
        bag = bags[x]
        tops: list[int] = []
        folds: list[Sequence[int]] = []    # the folded leaves' extra members
        room = largest - len(bag)
        for k in kids:
            if children[k]:
                tops.append(bridge(top[k], k, bag))
            elif len(gone[k]) <= room:
                folds.append(gone[k])
            else:
                tops.append(bridge(branch(k), k, bag))
        if not tops:                        # the first leaf starts the chain
            tops.append(bridge(branch(kids[0]), kids[0], bag))
            del folds[0]
        idx = tops[0]
        for other in tops[1:]:
            idx = put(idx, [join], other)
        # a folded leaf's extra members lie in no other bag, so they are
        # introduced and forgotten again on this bag's chain, ascending
        steps: list[int] = []
        for extra in folds:
            steps += [y + total for y in extra]
            steps += extra
            v = bisect_left(extra, n)
            var_slots = max(var_slots, bag_vars[x] + v)
            chk_slots = max(chk_slots, len(bag) + len(extra) - bag_vars[x] - v)
        top[x] = put(idx, steps)
    put(top[root], gone[root])

    child, child2 = array("i", range(-1, len(codes) - 1)), _ABSENT * len(codes)
    for x, c1, c2 in zip(links[::3], links[1::3], links[2::3]):
        child[x], child2[x] = c1, c2
    # per code its kind byte and its element in its own namespace
    local = array("i", range(n)) + array("i", range(g.n_chk))
    kind_of = bytes([K_FORGET_VAR] * n + [K_FORGET_CHK] * g.n_chk
                    + [K_INTRO_VAR] * n + [K_INTRO_CHK] * g.n_chk
                    + [K_LEAF, K_JOIN])
    elem_of = local + local + array("i", [-1, -1])
    return NiceTreeDecomposition(
        g, bytes(map(kind_of.__getitem__, codes)),
        array("i", map(elem_of.__getitem__, codes)), child, child2,
        var_slots, chk_slots, largest - 1)


def check_window(g: TannerGraph, p: ScLdpcParams) -> None:
    """Raise ValueError unless ``g`` has the shape of ``p`` and every check
    of block t meets only variables of blocks t - w + 1 .. t, its coupling
    window; on such a graph both window builders below are valid."""
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


def sc_path_decomposition(g: TannerGraph, p: ScLdpcParams) -> TreeDecomposition:
    """Sliding-window path decomposition for a spatially coupled code.

    Bag t holds check block t together with the variable blocks of its
    coupling window; rooted at bag 0 so the nice form is join-free.  Each
    bag is two slices of one list of ids, its variables then its checks,
    so it is sorted and shares the id objects with every other bag.
    """
    check_window(g, p)
    r, c, L, w = p.base_rows, p.base_cols, p.coupling_len, p.coupling_width
    n = g.n_var
    ids = list(range(n + g.n_chk))
    bags = tuple((*ids[max(0, t - w + 1) * c:(min(t, L - 1) + 1) * c],
                  *ids[n + r * t:n + r * (t + 1)])
                 for t in range(L + w - 1))
    edges = tuple(zip(ids[:len(bags) - 1], ids[1:len(bags)]))
    return TreeDecomposition(n + g.n_chk, bags, edges, root=0)


def sc_path_nice(g: TannerGraph,
                 p: ScLdpcParams) -> tuple[NiceTreeDecomposition, int]:
    """The nice form of ``sc_path_decomposition(g, p)`` and its width,
    written straight from the window that ``check_window`` proves valid:
    the columns ``make_nice`` writes, with no ``TreeDecomposition``, no
    ``validate`` and no bag merges.  One chain runs from a leaf that
    introduces the last bag, L + w - 2, to the root; from each bag t to
    t - 1 it forgets variable block t (when t < L) and check block t, then
    introduces variable block t - w (when t >= w) and check block t - 1,
    each in ascending id, and at the root it forgets bag 0.
    """
    check_window(g, p)
    r, c, L, w = p.base_rows, p.base_cols, p.coupling_len, p.coupling_width
    kinds, elems = [K_LEAF], [-1]

    def put(code: int, block: int, size: int) -> None:
        kinds.extend([code] * size)
        elems.extend(range(block * size, block * size + size))

    put(K_INTRO_VAR, L - 1, c)        # the last bag, L + w - 2
    put(K_INTRO_CHK, L + w - 2, r)
    for t in range(L + w - 2, -1, -1):    # bag t to t - 1, or to the root
        if t < L:
            put(K_FORGET_VAR, t, c)
        put(K_FORGET_CHK, t, r)
        if t >= w:
            put(K_INTRO_VAR, t - w, c)
        if t:
            put(K_INTRO_CHK, t - 1, r)
    size = len(kinds)
    tw = min(w, L) * c + r - 1
    return NiceTreeDecomposition(g, bytes(kinds), array("i", elems),
                                 array("i", range(-1, size - 1)),
                                 _ABSENT * size, min(w, L) * c, r, tw), tw


def heuristic_decomposition(g: TannerGraph) -> TreeDecomposition:
    """Greedy min-fill elimination decomposition; valid for any graph.

    The bags of ``_eliminate`` and, in ``_edge_order``, a tree edge (bag,
    parent) per bag but the root; ``serialize_td`` writes it as the
    ``decomp heuristic`` text, and ``heuristic_nice`` reads the same record
    straight into nice form.
    """
    bags, gone, parent = _eliminate(g)
    ids = sorted(chain.from_iterable(gone))     # shared, and number the bags
    return TreeDecomposition(g.n_var + g.n_chk, tuple(bags), tuple(
        (ids[i], parent[i]) for i in _edge_order(bags, parent)))


def _edge_order(bags: list[tuple[int, ...]], parent: list[int]) -> list[int]:
    """The bags of an elimination record that have a parent, in tree-edge
    order: the bags of more than one node, then the chained singletons."""
    return [i for i, bag in enumerate(bags) if len(bag) > 1] + \
        [i for i, bag in enumerate(bags) if len(bag) == 1 and parent[i] >= 0]


def heuristic_nice(g: TannerGraph) -> tuple[NiceTreeDecomposition, int]:
    """The nice form of ``heuristic_decomposition(g)`` and its width, built
    from the elimination record with no ``TreeDecomposition``, no
    ``validate`` and no ``_walk_tree``.

    Each bag's children are the bags that name it as parent, in tree-edge
    order, and the tree is rooted at the last-eliminated bag and read
    breadth first, as ``make_nice`` reads a validated tree.  A bag forgets
    its eliminated node toward its parent, so each bridge is "forget that
    node, introduce the rest" and each fold adds one element, with no bag
    scanned for it.  The constructor's column walk takes ``validate``'s
    place.
    """
    bags, gone, parent = _eliminate(g)
    children: list[list[int]] = [[] for _ in bags]
    for i in _edge_order(bags, parent):
        children[parent[i]].append(i)
    order = [len(bags) - 1]
    for x in order:
        order += children[x]
    return _nice_columns(g, bags, gone, order, children), \
        max(map(len, bags)) - 1


def _eliminate(g: TannerGraph) -> tuple[list[tuple[int, ...]],
                                        list[tuple[int, ...]], list[int]]:
    """Greedy min-fill elimination: its bags in elimination order, each
    bag's eliminated node as a one-tuple, and each bag's parent, -1 for
    the root.

    Repeatedly eliminates the node with the smallest (fill-in, current
    degree, id), where fill-in counts the missing edges among its current
    neighbours, and turns that neighbourhood into a clique.  Node x
    eliminated with neighbourhood N gives bag {x} | N.  Its parent is the
    bag of the earliest-eliminated node of N, which holds all of N, a
    clique by then, so x alone is what the bag forgets toward its parent.
    Parentless bags are singletons, each the child of the next; the last
    is the root.  Every member of bag i but its node is eliminated later,
    so the parents are read off the bags once the order is known, and x's
    adjacency set is dropped with its step.  Each bag is a sorted tuple,
    and all share one int object per id.  No width guarantee (Bodlaender
    & Koster, "Treewidth computations I. Upper bounds", Inf. Comput. 2010).

    Every fill-in is kept exact by incremental updates instead of being
    recounted.  A Tanner graph is bipartite, so no two neighbours of a node
    start out adjacent and its initial fill-in is deg * (deg - 1) / 2.
    Eliminating x first drops, at each a in N, the missing pairs (x, c)
    with c outside N.  Then each missing pair (a, b) in N, if any, becomes
    a fill edge: with C the common neighbours of a and b, a gains the
    |N(a)| - |C| missing pairs (b, c), b likewise, and each node of C
    loses one.  Only N and C are rescored, so a step costs O(|N|) set
    operations plus O(degree) per fill edge it adds.
    """
    total = g.n_var + g.n_chk
    if total == 0:
        return [()], [()], [-1]
    # the ids, which also number the bags: bag i is the i-th elimination
    ids = list(range(total))
    adj: list[set[int] | None] = [set() for _ in range(total)]
    for c, vs in enumerate(g.chk_adj):
        cid = ids[g.n_var + c]
        adj[cid].update(map(ids.__getitem__, vs))
        for v in vs:
            adj[v].add(cid)

    # the graph is bipartite: every pair of a node's neighbours is missing
    fill = [len(nbrs) * (len(nbrs) - 1) // 2 for nbrs in adj]
    # lazy heap of keys (fill * total + degree) * total + x, which order as
    # the tuples (fill, degree, x) but compare faster; an entry is live
    # while it equals current[x]
    current = [(f * total + len(nbrs)) * total + x
               for x, (f, nbrs) in enumerate(zip(fill, adj))]
    heap = list(current)
    heapify(heap)
    position = [-1] * total
    bags: list[tuple[int, ...]] = []
    gone: list[tuple[int, ...]] = []
    while heap:
        k = heappop(heap)
        x = k % total
        if k != current[x]:
            continue
        current[x] = -1               # no later entry of x is live
        position[x] = ids[len(bags)]
        nbrs = adj[x]
        adj[x] = None                 # the set dies with this step's nbrs
        bag = [*nbrs, ids[x]]
        bag.sort()
        bags.append(tuple(bag))
        gone.append((ids[x],))
        for a in nbrs:
            na = adj[a]
            na.discard(x)
            fill[a] -= len(na - nbrs)
        touched = nbrs
        missing = fill[x]             # pairs of N to add, often none
        if missing:
            touched = set(nbrs)
            for a in nbrs:
                na = adj[a]
                for b in nbrs - na:
                    if b <= a:        # a itself, or a pair added from b
                        continue
                    nb = adj[b]
                    common = na & nb
                    fill[a] += len(na) - len(common)
                    fill[b] += len(nb) - len(common)
                    for y in common:
                        fill[y] -= 1
                    touched |= common
                    na.add(b)
                    nb.add(a)
                    missing -= 1
                if not missing:
                    break
        for y in touched:
            k = (fill[y] * total + len(adj[y])) * total + y
            if k != current[y]:
                current[y] = k
                heappush(heap, k)

    # i is the smallest position in bag i, and a singleton has no parent
    parent = [sorted(map(position.__getitem__, bag))[1] if len(bag) > 1
              else -1 for bag in bags]
    parentless = [i for i, p in zip(ids, parent) if p < 0]
    for i, j in zip(parentless, parentless[1:]):
        parent[i] = j
    return bags, gone, parent
