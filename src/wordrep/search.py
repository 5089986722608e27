"""Exhaustive backtracking search for k-uniform representants.

The trusted-because-simple oracle: depth-first over word positions,
branching over symbols in lexicographic order.  With pruning on, an edge
pair that stops alternating kills the branch immediately, and a non-edge
pair that still alternates kills it as soon as one of its symbols is
complete, since the other's last copy, if any, can only extend the
alternation.  Every leaf reached then represents the graph,
so the first one is the lexicographically smallest representant.  With
pruning off the search enumerates every k-uniform word and tests each
leaf, which is what the completeness tests compare against.  Every
witness is re-checked with represents() before being returned, so no
reduction can produce a false positive.

The state is a few int bitmasks over the node indices, built once per
query: nbr[x] and non[x] hold x's neighbours and non-neighbours,
brk[x] the partners whose alternation with x is already broken (kept
symmetric, and only the newly broken bits are set and undone), and
since[x] the symbols placed after x's last copy.  since is a new list at
each depth, so backtracking needs no undo for it.  A further copy of x
repeats with every symbol outside since[x]: a neighbour there cuts the
branch, and the non-neighbours there become broken.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .graphs import Graph, represents
from .words import Word

DEFAULT_BUDGET = 24


class BudgetExceededError(RuntimeError):
    """The query needs more word positions than the configured budget."""

    def __init__(self, positions: int, budget: int):
        self.positions = positions
        self.budget = budget
        super().__init__(
            f"query needs {positions} word positions, above the budget of {budget}; "
            "raise the budget explicitly to run it"
        )


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """Result of one k-representability query.

    result is "witness" (word holds a verified representant), "exhausted"
    (the full space was searched, no representant exists), or
    "resource-limit" (query refused or aborted on budget).

    explored counts the letters placed: a placement is counted once it
    passes the edge cut and before the non-edge lookahead, so a placement
    that the lookahead kills still counts.  With prune=False every
    placement is counted.
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
    use_automorphisms: bool = False,
    use_reversal: bool = False,
) -> SearchOutcome:
    """Search the k-uniform words over the nodes of g for a representant.

    The witness, when there is one, is the lexicographically smallest
    k-uniform representant over the sorted node names.  use_automorphisms
    fixes the first letter to the smallest node: any cyclic shift of a
    uniform representant is again one (Kitaev & Pyatkin 2008), so some
    representant starts with that node, and the smallest one does.  This
    shrinks exhausted searches and changes no answer or witness.
    use_reversal is accepted for compatibility and has no effect: a
    representant's reversal is one too, and the smaller of the two is
    always reached first.
    """
    if k < 1:
        raise ValueError(f"uniformity k must be positive, got {k}")
    if not g.nodes:
        raise ValueError("search needs a graph with at least one node")
    total = len(g.nodes) * k
    if total > budget:
        raise BudgetExceededError(total, budget)

    names = sorted(g.nodes)
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    full = (1 << n) - 1
    nbr = [sum(1 << index[u] for u in g.neighbors(v)) for v in names]
    non = [full & ~nbr[x] & ~(1 << x) for x in range(n)]

    counts = [0] * n
    brk = [0] * n
    word = [0] * total
    all_ids = list(range(n))
    first_ids = [0] if use_automorphisms else all_ids

    explored = 0
    witness: Word | None = None
    started = time.perf_counter()

    def flip(x: int, bit: int, pairs: int) -> None:
        # toggle the pairs {x, u}, u in pairs, in both rows of brk
        brk[x] ^= pairs
        while pairs:
            low = pairs & -pairs
            brk[low.bit_length() - 1] ^= bit
            pairs ^= low

    def descend(p: int, since: list[int]) -> bool:
        nonlocal explored, witness
        if p == total:
            cand = Word(names[i] for i in word)
            if represents(cand, g):
                witness = cand
                return True
            return False
        for x in first_ids if p == 0 else all_ids:
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
            word[p] = x
            explored += 1
            # Alternation keeps two counts within one, so a non-edge u that
            # still alternates with the complete x has k - 1 or k copies, and
            # a last u can only follow the last x: the pair would alternate
            # in every completion.
            if not (prune and c + 1 == k and non[x] & ~brk[x]):
                after = [s | bit for s in since]
                after[x] = 0
                if descend(p + 1, after):
                    return True
            counts[x] = c
            if new:
                flip(x, bit, new)
        return False

    found = descend(0, [0] * n)
    millis = (time.perf_counter() - started) * 1000
    if found:
        return SearchOutcome(g, k, "witness", witness, explored, millis)
    return SearchOutcome(g, k, "exhausted", None, explored, millis)


def representation_number(
    g: Graph,
    k_max: int,
    *,
    budget: int = DEFAULT_BUDGET,
    prune: bool = True,
    use_automorphisms: bool = False,
    use_reversal: bool = False,
) -> int | None:
    """Smallest k <= k_max admitting a k-uniform representant, else None."""
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    for k in range(1, k_max + 1):
        outcome = is_k_representable(
            g,
            k,
            budget=budget,
            prune=prune,
            use_automorphisms=use_automorphisms,
            use_reversal=use_reversal,
        )
        if outcome.found:
            return k
    return None
