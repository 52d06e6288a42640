"""Tree decompositions of Tanner graphs and their rooted nice form.

Plain decompositions carry bags in the combined node namespace (variables
0..n-1, checks n..n+m-1).  The nice form splits every bag into a variable
part and a check part, each stored as a bitmask in its own namespace, and
lays the rooted tree out as a post-order array (children precede parents).
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple

from trapgraph.tanner import ScLdpcParams, TannerGraph, bit_ids

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


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def width(td: TreeDecomposition) -> int:
    """Maximum bag size minus one."""
    if not td.bags:
        raise ValueError("decomposition has no bags")
    return max(len(b) for b in td.bags) - 1


def _tree_ok(num_bags: int, edges) -> str | None:
    """Return a violation string if the edge set is not a tree, else None."""
    if num_bags == 0:
        return "no bags"
    seen = set()
    adj = {i: [] for i in range(num_bags)}
    for i, j in edges:
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


def validate(g: TannerGraph, td: TreeDecomposition) -> ValidationReport:
    """Check the decomposition conditions; violations become report entries."""
    total = g.n_var + g.n_chk
    violations: list[str] = []

    for i, bag in enumerate(td.bags):
        for x in bag:
            if not 0 <= x < total:
                violations.append(f"bag {i}: node id {x} out of range")

    tree_err = _tree_ok(len(td.bags), td.edges)
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
    # connected iff #bags == #edges-within + 1
    inside = Counter(x for i, j in td.edges for x in td.bags[i] & td.bags[j])
    for x in range(total):
        occ = occurrence[x]
        if occ and len(occ) != inside[x] + 1:
            violations.append(f"node {x}: occurrence bags are disconnected")

    return ValidationReport(tuple(violations))


def parse_td(text: str | bytes) -> TreeDecomposition:
    """Parse the PACE-2017 .td exchange format (1-indexed, combined namespace)."""
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
            bags[bag_id - 1] = frozenset(x - 1 for x in contents)
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
    bag_list = tuple(bags.get(i, frozenset()) for i in range(num_bags))
    tree_err = _tree_ok(num_bags, edges)
    if tree_err:
        raise TdFormatError(f"edge set is not a tree: {tree_err}")
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
    kind: str
    elem: int | None          # variable or check id in its own namespace
    bag_v: int                # bitmask over variable ids
    bag_c: int                # bitmask over check ids
    children: tuple[int, ...]
    # bag-local slot of elem, in this bag for an introduce and in the
    # child's bag for a forget; None for leaves and joins
    slot: int | None

    @property
    def bag_size(self) -> int:
        return self.bag_v.bit_count() + self.bag_c.bit_count()


class NiceTreeDecomposition(NamedTuple):
    """Rooted nice decomposition in post-order array form; the root is last.

    Every bag element holds a slot number in its namespace, fixed from the
    forget that removes it (toward the root) down to the introduce that adds
    it; the two children of a join share the join's slots.
    ``var_slots`` and ``chk_slots`` are the largest variable and check
    counts of any bag, and every slot lies below them.
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
        return max(n.bag_size for n in self.nodes) - 1

    def as_tree_decomposition(self) -> TreeDecomposition:
        """Combined-namespace view, e.g. for re-validation."""
        bags = []
        edges = []
        for i, node in enumerate(self.nodes):
            bag = set(bit_ids(node.bag_v))
            bag |= {self.n_var + c for c in bit_ids(node.bag_c)}
            bags.append(frozenset(bag))
            for ch in node.children:
                edges.append((ch, i))
        return TreeDecomposition(self.n_var + self.n_chk, tuple(bags),
                                 tuple(edges), root=self.root)


class _NiceBuilder:
    def __init__(self, n_var: int):
        self.n_var = n_var
        # (kind, elem, bag_v, bag_c, children) per node, in post-order
        self.nodes: list[tuple] = []

    def emit(self, kind, elem, bag_v, bag_c, children=()) -> int:
        self.nodes.append((kind, elem, bag_v, bag_c, tuple(children)))
        return len(self.nodes) - 1

    def chain(self, idx: int, cur: frozenset[int], target: frozenset[int]) -> int:
        """Bridge two bags with forgets (ascending id) then introduces.

        Node ``idx`` holds bag ``cur``; each emitted bag differs from its
        predecessor's by one bit.
        """
        n = self.n_var
        _, _, bv, bc, _ = self.nodes[idx]
        for x in sorted(cur - target):
            if x < n:
                bv ^= 1 << x
                idx = self.emit(FORGET_VAR, x, bv, bc, (idx,))
            else:
                bc ^= 1 << (x - n)
                idx = self.emit(FORGET_CHK, x - n, bv, bc, (idx,))
        for x in sorted(target - cur):
            if x < n:
                bv ^= 1 << x
                idx = self.emit(INTRO_VAR, x, bv, bc, (idx,))
            else:
                bc ^= 1 << (x - n)
                idx = self.emit(INTRO_CHK, x - n, bv, bc, (idx,))
        return idx

    def leaf_chain(self, target: frozenset[int]) -> int:
        idx = self.emit(LEAF, None, 0, 0)
        return self.chain(idx, frozenset(), target)

    def finish(self, n_chk: int) -> NiceTreeDecomposition:
        """Assign slots top-down from the root and freeze the nodes.

        Read downward, a forget gives its element the lowest slot free in
        its parent's bag, an introduce frees its element's slot, and a join
        hands its slots to both children.
        """
        nodes = self.nodes
        slot: list[int | None] = [None] * len(nodes)
        counts = [0, 0]                  # slot counts so far: var, chk
        # pending subtrees: (node, per namespace elem -> slot, used-slot masks)
        stack = [(len(nodes) - 1, ({}, {}), [0, 0])]
        while stack:
            x, where, used = stack.pop()
            while True:
                kind, elem, _, _, kids = nodes[x]
                if kind == LEAF:
                    break
                if kind == JOIN:
                    stack.append((kids[1], (dict(where[0]), dict(where[1])),
                                  used.copy()))
                else:
                    ns = int(kind in (INTRO_CHK, FORGET_CHK))
                    if kind in (FORGET_VAR, FORGET_CHK):
                        u = used[ns]
                        s = (~u & (u + 1)).bit_length() - 1
                        used[ns] = u | 1 << s
                        where[ns][elem] = s
                        counts[ns] = max(counts[ns], s + 1)
                    else:
                        s = where[ns].pop(elem)
                        used[ns] ^= 1 << s
                    slot[x] = s
                x = kids[0]
        return NiceTreeDecomposition(
            self.n_var, n_chk,
            tuple(NiceNode(*node, s) for node, s in zip(nodes, slot)),
            *counts)


def make_nice(g: TannerGraph, td: TreeDecomposition) -> NiceTreeDecomposition:
    """Transform a valid decomposition into rooted nice form, width preserved.

    The tree is rooted at ``td.root`` when set, otherwise at the
    smallest-index bag of tree-degree at most one (for a path: an endpoint,
    which yields a join-free nice form).  Multi-child bags become binary join
    cascades; adjacent differing bags are bridged by forget-then-introduce
    chains in ascending id order.  Every introduce and forget node carries
    its element's bag-local slot (see ``NiceTreeDecomposition``).  Raises
    ``InvalidDecompositionError`` when ``validate`` finds violations.
    """
    report = validate(g, td)
    if not report.ok:
        raise InvalidDecompositionError(report.violations)

    num = len(td.bags)
    adj: list[list[int]] = [[] for _ in range(num)]
    for i, j in td.edges:
        adj[i].append(j)
        adj[j].append(i)
    for nbrs in adj:
        nbrs.sort()

    if td.root is not None:
        root = td.root
    else:
        root = min((i for i in range(num) if len(adj[i]) <= 1), default=0)

    # orient the tree away from the root
    parent = [-1] * num
    order: list[int] = []
    queue = deque([root])
    seen = {root}
    while queue:
        x = queue.popleft()
        order.append(x)
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = x
                queue.append(y)
    children: list[list[int]] = [[] for _ in range(num)]
    for x in order:
        if parent[x] >= 0:
            children[parent[x]].append(x)

    b = _NiceBuilder(g.n_var)
    top: dict[int, int] = {}
    for x in reversed(order):              # post-order over original bags
        bag = td.bags[x]
        kids = children[x]
        if not kids:
            top[x] = b.leaf_chain(bag)
            continue
        tops = [b.chain(top[k], td.bags[k], bag) for k in kids]
        idx = tops[0]
        _, _, bv, bc, _ = b.nodes[idx]
        for other in tops[1:]:
            idx = b.emit(JOIN, None, bv, bc, (idx, other))
        top[x] = idx

    b.chain(top[root], td.bags[root], frozenset())
    ntd = b.finish(g.n_chk)
    if ntd.width() != width(td):
        raise ValueError(f"nice form has width {ntd.width()}, "
                         f"input has width {width(td)}")
    return ntd


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
    together.  Bag i belongs to the i-th eliminated node.  Each step
    rescores only the eliminated node's neighbours and theirs.  No width
    guarantee (Bodlaender & Koster, "Treewidth computations I. Upper
    bounds", Inf. Comput. 2010).
    """
    total = g.n_var + g.n_chk
    if total == 0:
        return TreeDecomposition(0, (frozenset(),), ())
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
    bags: list[frozenset[int]] = []
    eliminated_nbrs: list[set[int]] = []
    while heap:
        k = heapq.heappop(heap)
        x = k[2]
        if position[x] >= 0 or k != current[x]:
            continue
        position[x] = len(bags)
        nbrs = adj[x]
        bags.append(frozenset(nbrs | {x}))
        eliminated_nbrs.append(nbrs)
        for a in nbrs:
            adj[a] |= nbrs
            adj[a].discard(a)
            adj[a].discard(x)
        # only N(x) changed degree, and only N(x) and their neighbours can
        # have gained an edge inside their neighbourhood
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
