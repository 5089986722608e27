"""Finite simple graphs, standard generators, Cartesian products, and the
map from words to graphs via letter alternation.

Graph equality is name-sensitive; isomorphism is a separate operation.
Product nodes are named "g@h" with '@' reserved for that purpose.
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import accumulate, combinations, product
from operator import or_
from collections.abc import Iterable, Iterator

from .words import Word, check_symbol


class NamingConflictError(ValueError):
    """Two distinct product node pairs collide after '@' encoding."""


class Graph:
    """Immutable simple undirected graph over string-named nodes."""

    __slots__ = ("nodes", "edges", "_adj")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        node_set = frozenset(check_symbol(v) for v in nodes)
        edge_set = set()
        adj: dict[str, set[str]] = {v: set() for v in node_set}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r} not allowed")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside the node set")
            edge_set.add((u, v) if u < v else (v, u))
            adj[u].add(v)
            adj[v].add(u)
        self.nodes = node_set
        self.edges = frozenset(edge_set)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}

    def adjacent(self, u: str, v: str) -> bool:
        return v in self._adj[u]

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"Graph({len(self.nodes)} nodes, {len(self.edges)} edges)"


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
    edges = []
    for v in names:
        for i in range(k):
            if v[i] == "0":
                edges.append((v, v[:i] + "1" + v[i + 1:]))
    return Graph(names, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product on nodes "a@b": edges move along one factor at a time."""
    names = {(a, b): f"{a}@{b}" for a in g.nodes for b in h.nodes}
    if len(set(names.values())) < len(names):
        raise NamingConflictError("distinct node pairs collide under '@' naming")
    edges = []
    for a in g.nodes:
        for u, v in h.edges:
            edges.append((names[(a, u)], names[(a, v)]))
    for u, v in g.edges:
        for b in h.nodes:
            edges.append((names[(u, b)], names[(v, b)]))
    return Graph(names.values(), edges)


def _alternation_masks(w: Word) -> tuple[dict[str, int], list[int]]:
    """Each symbol's bit, numbered by first occurrence, and for each symbol
    the bitset of the later-starting symbols it alternates with.

    One sweep over the word: ``classes[j]`` holds the symbols seen exactly
    j times so far.  At the i-th occurrence of x, x is in class i-1, and
    that class is ANDed into x's accumulator.  A symbol y survives iff
    exactly i-1 copies of y precede the i-th x for every i, which means y
    starts after x and one y falls between consecutive x's.  With
    count(y) <= count(x) at most one y follows the last x, so x and y
    alternate.  Every alternating pair lands in the mask of the symbol
    that comes first; the sweep costs O(|w|) big-integer operations.
    """
    bit = {x: i for i, x in enumerate(w.counts)}
    n = len(bit)
    classes = [(1 << n) - 1] + [0] * max(w.counts.values(), default=0)
    seen = [0] * n
    acc = [-1] * n
    for x in w.letters:
        i = bit[x]
        j = seen[i]
        acc[i] &= classes[j]
        classes[j] ^= 1 << i
        classes[j + 1] |= 1 << i
        seen[i] = j + 1
    at_most = list(accumulate(classes, or_))  # at_most[c]: symbols occurring <= c times
    return bit, [acc[i] & at_most[seen[i]] & ~(1 << i) for i in range(n)]


def graph_of_word(w: Word) -> Graph:
    """The graph on alphabet(w) whose edges are the alternating pairs.

    Built from one sweep over the word with a big-integer bitset per
    symbol, so it costs O(|w|) big-integer operations rather than a test
    of every pair.
    """
    bit, masks = _alternation_masks(w)
    symbols = list(bit)
    edges = []
    for x, mask in zip(symbols, masks):
        while mask:
            low = mask & -mask
            edges.append((x, symbols[low.bit_length() - 1]))
            mask ^= low
    return Graph(symbols, edges)


def represents(w: Word, g: Graph) -> bool:
    """True iff graph_of_word(w) equals g exactly (names and edges).

    False at once when the alphabet and the node set differ.  Otherwise
    one O(|w|) sweep gives each symbol's alternation bitset, which is
    compared with its neighbours in g that first occur later in w.
    """
    return w.alphabet == g.nodes and not any(_mismatch_rows(w, g))


def _mismatch_rows(w: Word, g: Graph) -> Iterator[int]:
    """For each symbol of ``w``, in first-occurrence order, the bitset of
    the later-starting symbols whose pair with it alternates in ``w``
    exactly when it is no edge of g; ``w`` must spell g's nodes."""
    bit, masks = _alternation_masks(w)
    for x, i in bit.items():
        later = 0
        for y in g.neighbors(x):
            j = bit[y]
            if j > i:
                later |= 1 << j
        yield masks[i] ^ later


def _search_order(g: Graph) -> list[str]:
    # Greedy: after the first node, prefer nodes with many already-placed
    # neighbors so adjacency constraints bite early.
    remaining = set(g.nodes)
    order: list[str] = []
    placed: set[str] = set()
    while remaining:
        best = min(remaining, key=lambda v: (-len(g.neighbors(v) & placed), v))
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    return order


def isomorphic(g: Graph, h: Graph) -> dict[str, str] | None:
    """An adjacency-preserving node bijection, or None.

    Brute force with degree pruning; meant for the small graphs handled
    here (up to around 16 nodes).
    """
    if sorted(g.degree(v) for v in g.nodes) != sorted(h.degree(v) for v in h.nodes):
        return None
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(a: str, b: str) -> bool:
        if g.degree(a) != h.degree(b):
            return False
        for a2, b2 in mapping.items():
            if g.adjacent(a, a2) != h.adjacent(b, b2):
                return False
        return True

    order = _search_order(g)
    h_sorted = sorted(h.nodes)

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        a = order[i]
        # Try the same name first so that isomorphic(G, G) yields identity.
        candidates = sorted(h_sorted, key=lambda b: (b != a, b))
        for b in candidates:
            if b in used or not consistent(a, b):
                continue
            mapping[a] = b
            used.add(b)
            if extend(i + 1):
                return True
            del mapping[a]
            used.remove(b)
        return False

    return dict(mapping) if extend(0) else None


def graph_to_edges_text(g: Graph) -> str:
    """Edge-list form: one "u v" line per edge, then one line per isolated node."""
    lines = [f"{u} {v}" for u, v in sorted(g.edges)]
    covered = {v for e in g.edges for v in e}
    lines.extend(sorted(g.nodes - covered))
    return "\n".join(lines) + "\n" if lines else ""


def graph_from_edges_text(text: str) -> Graph:
    nodes: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            nodes.add(parts[0])
        elif len(parts) == 2:
            nodes.update(parts)
            edges.append((parts[0], parts[1]))
        else:
            raise ValueError(f"line {lineno}: expected 'u v' or 'u', got {line!r}")
    return Graph(nodes, edges)


@lru_cache(maxsize=1)
def _graph_payload(g: Graph) -> dict[str, list]:
    """The JSON object of ``g``, sorted, kept for the last graph (``repnum``
    prints it once per k); callers must not modify it."""
    return {
        "nodes": sorted(g.nodes),
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
    node_set = set(nodes)
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)):
            raise ValueError(f"each edge must be a 2-array of strings, got {e!r}")
        node_set.update(e)
    return Graph(node_set, edges)


def parse_graph(text: str) -> Graph:
    """JSON when the first non-blank character is '{' or '[', else an edge list."""
    if text.lstrip().startswith(("{", "[")):
        return graph_from_json(text)
    return graph_from_edges_text(text)


def load_graph(path: str) -> Graph:
    """Read a graph file; its content picks the format, as in parse_graph."""
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())
