"""Exhaustive backtracking search for k-uniform representants.

The trusted-because-simple oracle: depth-first over word positions,
branching over symbols in lexicographic order, on an explicit stack so
that the depth is not bounded by Python's recursion limit.  With pruning
on, an edge pair that stops alternating kills the branch immediately, and
a non-edge pair that still alternates kills it as soon as one of its
symbols is complete, since the other's last copy, if any, can only extend
the alternation.  Pruning also fixes the first letter to the smallest
node, since a cyclic shift of a uniform representant is again one.
Every leaf reached then represents the graph, so the first one is the
lexicographically smallest representant.  With pruning off the search
enumerates every k-uniform word and tests each leaf, which is what the
completeness tests compare against.  Every witness is re-checked with
represents() before being returned, so no reduction can produce a false
positive.

The state is a few int bitmasks over the node indices, built once per
query: nbr[x] and non[x] hold x's neighbours and non-neighbours,
brk[x] the partners whose alternation with x is already broken (kept
symmetric, and only the newly broken bits are set and undone), and
since[x] the symbols placed after x's last copy.  since is a new list at
each depth.  A further copy of x repeats with every symbol outside
since[x]: a neighbour there cuts the branch, and the non-neighbours there
become broken.  Each stack frame holds a placed letter x, the pairs it
newly broke, the since list from before it and the iterator over the
candidates at its position; popping a frame undoes the letter, and the
search resumes with the candidate after x.
"""
from __future__ import annotations

import json
import time
from collections.abc import Iterator
from dataclasses import dataclass

from .graphs import Graph, represents
from .words import Word

DEFAULT_BUDGET = 24


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """Result of one k-representability query.

    result is "witness" (word holds a verified representant), "exhausted"
    (the full space was searched, no representant exists), or
    "resource-limit" (the query needs more word positions than its budget
    and was refused without searching, so explored is 0).

    explored counts the letters placed: a placement is counted once it
    passes the edge cut and before the non-edge lookahead, so a placement
    that the lookahead kills still counts, and only the smallest node is
    tried as the first letter.  With prune=False every placement is
    counted.
    """

    graph: Graph
    k: int
    result: str
    word: Word | None
    explored: int
    millis: float

    @property
    def found(self) -> bool:
        return self.result == "witness"


def outcome_to_json(outcome: SearchOutcome, timings: bool = False) -> str:
    """Serialize an outcome; millis is 0 unless timings is requested, so
    that identical queries produce byte-identical output."""
    payload = {
        "graph": {
            "nodes": sorted(outcome.graph.nodes),
            "edges": [[u, v] for u, v in sorted(outcome.graph.edges)],
        },
        "k": outcome.k,
        "result": outcome.result,
        "word": str(outcome.word) if outcome.word is not None else None,
        "explored": outcome.explored,
        "millis": round(outcome.millis, 3) if timings else 0,
    }
    return json.dumps(payload)


def is_k_representable(
    g: Graph,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
    prune: bool = True,
) -> SearchOutcome:
    """Search the k-uniform words over the nodes of g for a representant.

    The witness, when there is one, is the lexicographically smallest
    k-uniform representant over the sorted node names.  Pruning cuts
    branches that cannot alternate correctly, and it fixes the first
    letter to the smallest node: any cyclic shift of a uniform
    representant is again one (Kitaev & Pyatkin 2008), so some
    representant starts with that node, and the smallest one does.
    Neither cut changes an answer or a witness.  prune=False enumerates
    every k-uniform word.  A query that needs more than budget word
    positions is refused: its outcome is "resource-limit" with nothing
    explored.
    """
    if k < 1:
        raise ValueError(f"uniformity k must be positive, got {k}")
    if not g.nodes:
        raise ValueError("search needs a graph with at least one node")
    total = len(g.nodes) * k
    if total > budget:
        return SearchOutcome(g, k, "resource-limit", None, 0, 0.0)

    names = sorted(g.nodes)
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    full = (1 << n) - 1
    nbr = [sum(1 << index[u] for u in g.neighbors(v)) for v in names]
    non = [full & ~nbr[x] & ~(1 << x) for x in range(n)]

    counts = [0] * n
    brk = [0] * n
    since = [0] * n
    ids = range(n)
    # one frame per placed letter x: (x, the pairs x newly broke, since
    # from before x, the candidates not yet tried at x's position)
    stack: list[tuple[int, int, list[int], Iterator[int]]] = []

    def flip(x: int, bit: int, pairs: int) -> None:
        # toggle the pairs {x, u}, u in pairs, in both rows of brk
        brk[x] ^= pairs
        while pairs:
            low = pairs & -pairs
            brk[low.bit_length() - 1] ^= bit
            pairs ^= low

    explored = 0
    witness: Word | None = None
    started = time.perf_counter()
    candidates = iter(range(1) if prune else ids)
    while True:
        for x in candidates:
            c = counts[x]
            if c == k:
                continue
            new = 0
            if prune and c:
                # a neighbour not placed since the last x would repeat with it
                if nbr[x] & ~since[x]:
                    continue
                new = non[x] & ~(since[x] | brk[x])
            bit = 1 << x
            if new:
                flip(x, bit, new)
            counts[x] = c + 1
            explored += 1
            # Alternation keeps two counts within one, so a non-edge u that
            # still alternates with the complete x has k - 1 or k copies, and
            # a last u can only follow the last x: the pair would alternate
            # in every completion.
            if prune and c + 1 == k and non[x] & ~brk[x]:
                counts[x] = c
                if new:
                    flip(x, bit, new)
                continue
            stack.append((x, new, since, candidates))
            since = [s | bit for s in since]
            since[x] = 0
            break
        else:
            # no candidate left at this position: undo the last letter and
            # go on with the candidates after it
            if not stack:
                break
            x, new, since, candidates = stack.pop()
            counts[x] -= 1
            if new:
                flip(x, 1 << x, new)
            continue
        if len(stack) < total:
            candidates = iter(ids)
            continue
        cand = Word(names[f[0]] for f in stack)
        if represents(cand, g):
            witness = cand
            break
        candidates = iter(())  # a leaf has no children: backtrack

    millis = (time.perf_counter() - started) * 1000
    if witness is not None:
        return SearchOutcome(g, k, "witness", witness, explored, millis)
    return SearchOutcome(g, k, "exhausted", None, explored, millis)


def representation_number(
    g: Graph,
    k_max: int,
    *,
    budget: int = DEFAULT_BUDGET,
    prune: bool = True,
) -> SearchOutcome:
    """Scan k = 1..k_max and return the outcome that settles the scan: the
    witness at the smallest k, the resource-limit outcome that stopped it,
    or the exhaustion at k_max."""
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    for k in range(1, k_max + 1):
        outcome = is_k_representable(g, k, budget=budget, prune=prune)
        if outcome.result != "exhausted":
            break
    return outcome
