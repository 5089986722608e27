"""Finite simple graphs, standard generators, Cartesian products, and the
map from words to graphs via letter alternation.

A graph is kept as an index: its sorted node names and one int adjacency
mask per node.  Verification, the search and isomorphism read the masks
directly; the edge set is built from them only when asked for.  Graph
equality is name-sensitive; isomorphism is a separate operation.
Product nodes are named "g@h" with '@' reserved for that purpose.
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import accumulate, chain, combinations, product
from operator import or_
from collections.abc import Iterable, Iterator

from .words import Word, _check_tokens


class NamingConflictError(ValueError):
    """Two distinct product node pairs collide after '@' encoding."""


class Graph:
    """Immutable simple undirected graph over string-named nodes, kept as an
    index: ``names`` is the sorted tuple of node names, ``index`` maps each
    name to its position there, and ``masks[i]`` is the int bitmask of the
    positions adjacent to ``names[i]``.  ``nodes`` is the frozenset of names;
    ``edges``, the frozenset of (u, v) pairs with u < v, is built from the
    masks on first use and kept."""

    __slots__ = ("nodes", "names", "index", "masks", "_edges")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        nodes = list(nodes)
        _check_tokens(nodes)  # before sorting, which raises TypeError on a non-str
        self.nodes = frozenset(nodes)
        self.names = tuple(sorted(self.nodes))
        self.index = index = {v: i for i, v in enumerate(self.names)}
        masks = [0] * len(index)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r} not allowed")
            try:
                i, j = index[u], index[v]
            except KeyError:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside the node set") from None
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.masks = tuple(masks)
        self._edges = None

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        if self._edges is None:
            names = self.names
            self._edges = frozenset(
                # m >> i << i keeps the neighbours after i: each edge once, as (u, v) with u < v
                (names[i], names[j]) for i, m in enumerate(self.masks) for j in _bits(m >> i << i)
            )
        return self._edges

    def adjacent(self, u: str, v: str) -> bool:
        mask = self.masks[self.index[u]]
        return v in self.index and mask >> self.index[v] & 1 == 1

    def neighbors(self, v: str) -> frozenset[str]:
        return frozenset(self.names[j] for j in _bits(self.masks[self.index[v]]))

    def degree(self, v: str) -> int:
        return self.masks[self.index[v]].bit_count()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.names == other.names and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.names, self.masks))

    def __repr__(self) -> str:
        return f"Graph({len(self.names)} nodes, {_edge_count(self)} edges)"


def _edge_count(g: Graph) -> int:
    return sum(m.bit_count() for m in g.masks) // 2


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complete(n: int) -> Graph:
    """The complete graph on nodes "1".."n"."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    names = [str(i) for i in range(1, n + 1)]
    return Graph(names, combinations(names, 2))


def cycle(n: int) -> Graph:
    """The cycle on nodes "1".."n" in circular order."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    names = [str(i) for i in range(1, n + 1)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return Graph(names, edges)


def cube(k: int) -> Graph:
    """The k-dimensional hypercube on length-k bitstring names."""
    if k < 1:
        raise ValueError(f"cube needs k >= 1, got {k}")
    names = ["".join(bits) for bits in product("01", repeat=k)]
    # names[v] spells v in binary; setting bit b of v sets one letter to 1
    edges = [(names[v], names[v | 1 << b]) for b in range(k) for v in range(1 << k) if not v >> b & 1]
    return Graph(names, edges)


MAX_CUBE_DIMENSION = 20  # k * 2^k word letters: time and memory about double per dimension
# the largest product graph built: the 20-cube's 2^20 nodes and 20 * 2^19 edges
MAX_PRODUCT_NODES, MAX_PRODUCT_EDGES = 1 << MAX_CUBE_DIMENSION, MAX_CUBE_DIMENSION << MAX_CUBE_DIMENSION - 1


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product on nodes "a@b": edges move along one factor at a time.
    Its size is counted first, and one above the 20-cube's is refused."""
    m, n = len(g.names), len(h.names)
    nodes, edges = m * n, m * _edge_count(h) + _edge_count(g) * n
    if nodes > MAX_PRODUCT_NODES or edges > MAX_PRODUCT_EDGES:
        raise ValueError(f"product graph would have {nodes:,} nodes and {edges:,} edges, above the "
                         f"{MAX_PRODUCT_NODES:,} nodes or {MAX_PRODUCT_EDGES:,} edges of the {MAX_CUBE_DIMENSION}-cube")
    names = {(a, b): f"{a}@{b}" for a in g.names for b in h.names}
    if len(set(names.values())) < len(names):
        raise NamingConflictError("distinct node pairs collide under '@' naming")
    edges = [(names[(a, u)], names[(a, v)]) for a in g.names for u, v in h.edges]
    edges += [(names[(u, b)], names[(v, b)]) for u, v in g.edges for b in h.names]
    return Graph(names.values(), edges)


def _alternation_rows(w: Word, index: dict[str, int]) -> Iterator[int]:
    """For each symbol of ``w``, numbered by ``index``, the bitset of the
    symbols starting later in ``w`` that it alternates with.

    One sweep over the word: ``classes[j]`` holds the symbols seen exactly
    j times so far.  At the i-th occurrence of x, x is in class i-1, and
    that class is ANDed into x's accumulator.  A symbol y survives iff
    exactly i-1 copies of y precede the i-th x for every i, which means y
    starts after x and one y falls between consecutive x's.  With
    count(y) <= count(x) at most one y follows the last x, so x and y
    alternate.  Every alternating pair lands in the row of the symbol
    that comes first; the sweep costs O(|w|) big-integer operations.
    ``index`` must number exactly the symbols of ``w``.
    """
    n = len(index)
    classes = [(1 << n) - 1] + [0] * max(w.counts.values(), default=0)
    seen = [0] * n
    acc = [-1] * n
    for i in map(index.__getitem__, w.letters):
        j = seen[i]
        acc[i] &= classes[j]
        bit = 1 << i
        classes[j] ^= bit
        classes[j + 1] |= bit
        seen[i] = j + 1
    at_most = list(accumulate(classes, or_))  # at_most[c]: symbols occurring <= c times
    return (acc[i] & at_most[seen[i]] & ~(1 << i) for i in range(n))


def graph_of_word(w: Word) -> Graph:
    """The graph on alphabet(w) whose edges are the alternating pairs.

    Built from one sweep over the word with a big-integer bitset per
    symbol, so it costs O(|w|) big-integer operations rather than a test
    of every pair.
    """
    names = sorted(w.counts)
    rows = _alternation_rows(w, {x: i for i, x in enumerate(names)})
    return Graph(names, ((names[i], names[j]) for i, row in enumerate(rows) for j in _bits(row)))


def represents(w: Word, g: Graph) -> bool:
    """True iff graph_of_word(w) equals g exactly (names and edges).

    False at once when the alphabet and the node set differ.  Otherwise
    one O(|w|) sweep gives each symbol's alternation bitset, which is
    compared with its neighbours in g that first occur later in w.
    """
    return w.alphabet == g.nodes and not any(_mismatch_rows(w, g))


def _mismatch_rows(w: Word, g: Graph) -> Iterator[int]:
    """For each node of g, in name order, the bitset of the nodes starting
    later in ``w`` whose pair with it alternates in ``w`` exactly when it
    is no edge of g; ``w`` must spell g's nodes."""
    first = [g.index[x] for x in w.counts]  # first-occurrence order
    # upto[i]: the nodes whose first occurrence is not after that of node i
    upto = dict(zip(first, accumulate((1 << i for i in first), or_)))
    rows = _alternation_rows(w, g.index)
    return (row ^ (mask & ~upto[i]) for i, (row, mask) in enumerate(zip(rows, g.masks)))


def _search_order(g: Graph, placed: int) -> list[int]:
    # Greedy over the node positions outside placed: prefer nodes with
    # many already-placed neighbors so adjacency constraints bite early.
    remaining = set(range(len(g.names))) - set(_bits(placed))
    order = []
    while remaining:
        best = min(remaining, key=lambda i: (-(g.masks[i] & placed).bit_count(), i))
        order.append(best)
        placed |= 1 << best
        remaining.remove(best)
    return order


def _maps(g: Graph, h: Graph, start: dict[int, int]) -> Iterator[dict[int, int]]:
    """Every adjacency-preserving bijection from g's node positions onto
    h's that extends ``start``, as a dict from position in g to position
    in h; nothing when ``start`` itself breaks adjacency.

    Backtracking on an explicit stack: the nodes of ``start`` are mapped
    first, in its order and only to their given images, then the other
    nodes of g in _search_order.  Node a may go to an unused b of a's
    degree iff b's neighbours among the used images are exactly the images
    of a's mapped neighbours: one mask compare, nbr[b] & used == want.  b
    runs in h's position order, with the node of a's own name first, so
    that the first map of a graph onto itself is the identity.
    """
    gm, hm = g.masks, h.masks
    if len(gm) != len(hm):
        return
    of_degree: dict[int, int] = {}  # degree -> mask of h's nodes with it
    for b, m in enumerate(hm):
        of_degree[m.bit_count()] = of_degree.get(m.bit_count(), 0) | 1 << b
    order = [*start, *_search_order(g, sum(1 << a for a in start))]
    image: dict[int, int] = {}
    done = used = 0  # masks of the mapped nodes of g and of their images

    def options(a: int) -> Iterator[int]:
        want = 0
        for a2 in _bits(gm[a] & done):
            want |= 1 << image[a2]
        free = of_degree.get(gm[a].bit_count(), 0) & ~used
        if a in start:
            free &= 1 << start[a]
        same = h.index.get(g.names[a], -1)
        ordered = (same, *_bits(free ^ 1 << same)) if same >= 0 and free >> same & 1 else _bits(free)
        return iter([b for b in ordered if hm[b] & used == want])

    if not order:
        yield {}
        return
    stack: list[Iterator[int]] = []
    candidates = options(order[0])
    while True:
        for b in candidates:
            a = order[len(stack)]
            image[a] = b
            done |= 1 << a
            used |= 1 << b
            stack.append(candidates)
            break
        else:
            # no image left for this node: unmap the one before it
            if not stack:
                return
            candidates = stack.pop()
            a = order[len(stack)]
            done ^= 1 << a
            used ^= 1 << image.pop(a)
            continue
        if len(stack) < len(order):
            candidates = options(order[len(stack)])
            continue
        yield dict(image)
        candidates = iter(())  # a complete map has no extension: backtrack


def isomorphic(g: Graph, h: Graph) -> dict[str, str] | None:
    """An adjacency-preserving node bijection, or None.

    The first map of :func:`_maps`, backtracking with degree pruning over
    the adjacency masks; meant for the small graphs handled here (up to
    around 16 nodes).  isomorphic(g, g) is the identity.
    """
    if sorted(m.bit_count() for m in g.masks) != sorted(m.bit_count() for m in h.masks):
        return None
    image = next(_maps(g, h, {}), None)
    return None if image is None else {g.names[a]: h.names[b] for a, b in image.items()}


def graph_to_edges_text(g: Graph) -> str:
    """Edge-list form: one "u v" line per edge, then one line per isolated node."""
    lines = [f"{u} {v}" for u, v in sorted(g.edges)]
    lines.extend(v for v, m in zip(g.names, g.masks) if not m)
    return "\n".join(lines) + "\n" if lines else ""


def graph_from_edges_text(text: str) -> Graph:
    tokens: list[str] = []  # in input order, so the first bad name is reported
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        tokens += parts
        if len(parts) == 2:
            edges.append((parts[0], parts[1]))
        elif len(parts) > 2:
            raise ValueError(f"line {lineno}: expected 'u v' or 'u', got {raw.strip()!r}")
    return Graph(dict.fromkeys(tokens), edges)


@lru_cache(maxsize=1)
def _graph_payload(g: Graph) -> dict[str, list]:
    """The JSON object of ``g``, sorted, kept for the last graph (``repnum``
    prints it once per k); callers must not modify it."""
    return {
        "nodes": list(g.names),
        "edges": [[u, v] for u, v in sorted(g.edges)],
    }


def graph_to_json(g: Graph) -> str:
    return json.dumps(_graph_payload(g), indent=2) + "\n"


def graph_from_json(text: str) -> Graph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad graph JSON: {exc}") from None
    except RecursionError:
        raise ValueError("bad graph JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("graph JSON must be an object with 'nodes' and 'edges'")
    nodes = payload.get("nodes", [])
    edges = payload.get("edges", [])
    if not isinstance(nodes, list) or not all(isinstance(v, str) for v in nodes):
        raise ValueError("'nodes' must be an array of strings")
    if not isinstance(edges, list):
        raise ValueError("'edges' must be an array of 2-arrays of strings")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)):
            raise ValueError(f"each edge must be a 2-array of strings, got {e!r}")
    return Graph(dict.fromkeys(chain(nodes, chain.from_iterable(edges))), edges)


def parse_graph(text: str) -> Graph:
    """JSON when the first non-blank character is '{' or '[', else an edge list."""
    if text.lstrip().startswith(("{", "[")):
        return graph_from_json(text)
    return graph_from_edges_text(text)


def load_graph(path: str) -> Graph:
    """Read a graph file; its content picks the format, as in parse_graph."""
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())
