"""Known answers for the benchmark, computed without importing wordrep.

Graphs are plain pairs ``(nodes, edges)``: a sorted list of names and a set
of ``(u, v)`` tuples with ``u < v``.  Node names follow the package's
conventions ("a@b" for product copies, bitstrings for the cube) so that
files written here load unchanged and search explores the same tree as on
the package's own generators.
"""
from __future__ import annotations

import json
from collections import Counter
from itertools import combinations, product


def graph(nodes, edges):
    return sorted(nodes), {(u, v) if u < v else (v, u) for u, v in edges}


def complete(n: int):
    names = [str(i) for i in range(1, n + 1)]
    return graph(names, combinations(names, 2))


def cycle(n: int):
    names = [str(i) for i in range(1, n + 1)]
    return graph(names, ((names[i], names[(i + 1) % n]) for i in range(n)))


def cube(k: int):
    names = ["".join(bits) for bits in product("01", repeat=k)]
    edges = [(v, v[:i] + "1" + v[i + 1:]) for v in names for i in range(k) if v[i] == "0"]
    return graph(names, edges)


def cartesian(g, h):
    (gn, ge), (hn, he) = g, h
    nodes = [f"{a}@{b}" for a in gn for b in hn]
    edges = [(f"{a}@{u}", f"{a}@{v}") for a in gn for u, v in he]
    edges += [(f"{u}@{b}", f"{v}@{b}") for u, v in ge for b in hn]
    return graph(nodes, edges)


def prism(n: int):
    return cartesian(cycle(n), complete(2))


def is_wheel5(g) -> bool:
    """True iff g is the wheel W5: a hub joined to all nodes of a 5-cycle.

    On six nodes that is exactly one node of degree 5, five of degree 3 and
    ten edges, since a 2-regular graph on five nodes is the 5-cycle.
    """
    nodes, edges = g
    degree = Counter(v for e in edges for v in e)
    return len(nodes) == 6 and len(edges) == 10 and sorted(degree[v] for v in nodes) == [3] * 5 + [5]


def edges_text(g) -> str:
    nodes, edges = g
    covered = {v for e in edges for v in e}
    lines = [f"{u} {v}" for u, v in sorted(edges)] + [v for v in nodes if v not in covered]
    return "\n".join(lines) + "\n"


def json_text(g) -> str:
    nodes, edges = g
    return json.dumps({"nodes": nodes, "edges": [list(e) for e in sorted(edges)]}) + "\n"


def restriction_alternates(tokens, x: str, y: str) -> bool:
    """The definition: the restriction to {x, y} has no two equal adjacent letters."""
    restricted = [t for t in tokens if t == x or t == y]
    return all(a != b for a, b in zip(restricted, restricted[1:]))


def pairwise_mismatch(tokens, g) -> str | None:
    """Check a small word against g pair by pair; None when it represents g."""
    nodes, edges = g
    if set(tokens) != set(nodes):
        return "word alphabet differs from the graph's nodes"
    for x, y in combinations(nodes, 2):
        if restriction_alternates(tokens, x, y) != ((x, y) in edges):
            return f"pair {x},{y} disagrees with the graph"
    return None


def uniformity(tokens) -> int | None:
    counts = set(Counter(tokens).values())
    return counts.pop() if len(counts) == 1 else None


def sweep_mismatch(tokens, g) -> str | None:
    """Check a large uniform word against g in one pass; None when it represents g.

    In a k-uniform word, x (first) alternates with y iff y has been seen
    exactly i-1 times at the i-th x, for every i.  One bitset per "seen j
    times" class is ANDed into x's mask at each x, so each letter costs one
    big-integer operation and every pair is tested at once.  Each
    alternating pair lands in the mask of the letter that comes first, so
    the masks must be subsets of the adjacency and count every edge once.
    """
    nodes, edges = g
    if set(tokens) != set(nodes):
        return "word alphabet differs from the graph's nodes"
    k = uniformity(tokens)
    if k is None:
        return "word is not uniform"
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    classes = [(1 << n) - 1] + [0] * k
    seen = [0] * n
    first = [-1] * n
    for t in tokens:
        i = index[t]
        j = seen[i]
        first[i] &= classes[j]
        classes[j] ^= 1 << i
        classes[j + 1] |= 1 << i
        seen[i] = j + 1
    adj = [0] * n
    for u, v in edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    alternating = 0
    for i, mask in enumerate(first):
        mask &= ~(1 << i)
        extra = mask & ~adj[i]
        if extra:
            j = extra.bit_length() - 1
            return f"pair {nodes[i]},{nodes[j]} alternates but is not an edge"
        alternating += mask.bit_count()
    if alternating != len(edges):
        return f"{len(edges) - alternating} edges do not alternate"
    return None
