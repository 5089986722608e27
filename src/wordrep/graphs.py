"""Finite simple graphs, standard generators, Cartesian products, and the
map from words to graphs via letter alternation.

A graph is kept as an index and nothing else: its sorted node names and
one int adjacency mask per node.  Verification, the serializers and the
search read the masks; the node and edge sets are built from the index
each time they are asked for.  Graph equality is name-sensitive: two
graphs are equal only with the same names and edges.
Product nodes are named "g@h" with '@' reserved for that purpose.
"""
from __future__ import annotations

import json
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
    positions adjacent to ``names[i]``.  ``nodes``, the frozenset of names,
    and ``edges``, the frozenset of (u, v) pairs with u < v, are built from
    the index each time they are read."""

    __slots__ = ("names", "index", "masks")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        nodes = list(nodes)
        _check_tokens(nodes)  # before sorting, which raises TypeError on a non-str
        self.names = tuple(sorted(set(nodes)))
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

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.names)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(_edge_pairs(self))

    def adjacent(self, u: str, v: str) -> bool:
        """True iff u and v are adjacent; a name outside the graph is
        adjacent to nothing, in either position."""
        i, j = self.index.get(u), self.index.get(v)
        return i is not None and j is not None and self.masks[i] >> j & 1 == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.names == other.names and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.names, self.masks))

    def __repr__(self) -> str:
        return f"Graph({len(self.names)} nodes, {_edge_count(self)} edges)"


def _edge_count(g: Graph) -> int:
    return sum(m.bit_count() for m in g.masks) // 2


def _edge_pairs(g: Graph) -> Iterator[tuple[str, str]]:
    """Each edge once, as (u, v) with u < v, in name order: that of sorted(g.edges)."""
    names = g.names
    # m >> i << i keeps the neighbours after i
    return ((names[i], names[j]) for i, m in enumerate(g.masks) for j in _bits(m >> i << i))


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
    """The k-dimensional hypercube on length-k bitstring names, 1 <= k <= 20."""
    if not 1 <= k <= MAX_CUBE_DIMENSION:
        raise ValueError(f"cube needs 1 <= k <= {MAX_CUBE_DIMENSION}, got {k}")
    names = ["".join(bits) for bits in product("01", repeat=k)]
    # names[v] spells v in binary; setting bit b of v sets one letter to 1
    edges = [(names[v], names[v | 1 << b]) for b in range(k) for v in range(1 << k) if not v >> b & 1]
    return Graph(names, edges)


# The k-cube word has k * 2^k letters, so building it about doubles in time
# per dimension; the k-cube graph's masks take about 4^k / 8 bytes, so
# verifying it grows 2-3.5x in time and memory per dimension, rising toward 4x.
MAX_CUBE_DIMENSION = 20
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
    h_edges = list(_edge_pairs(h))
    edges = [(names[(a, u)], names[(a, v)]) for a in g.names for u, v in h_edges]
    edges += [(names[(u, b)], names[(v, b)]) for u, v in _edge_pairs(g) for b in h.names]
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
    if w.counts.keys() != g.index.keys():
        return False
    first = [g.index[x] for x in w.counts]  # first-occurrence order
    # upto[i]: the nodes whose first occurrence is not after that of node i
    upto = dict(zip(first, accumulate((1 << i for i in first), or_)))
    rows = _alternation_rows(w, g.index)
    return all(row == mask & ~upto[i] for i, (row, mask) in enumerate(zip(rows, g.masks)))


def graph_to_edges_text(g: Graph) -> str:
    """Edge-list form: one "u v" line per edge, then one line per isolated node."""
    lines = [f"{u} {v}" for u, v in _edge_pairs(g)]
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


def _graph_payload(g: Graph) -> dict[str, list]:
    """The JSON object of ``g``: nodes and edges in name order."""
    return {"nodes": list(g.names), "edges": [[u, v] for u, v in _edge_pairs(g)]}


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
