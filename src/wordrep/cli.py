"""Command-line surface: generate graphs, run the constructions, check
words against graphs, and search for representation numbers.

Exit codes: 0 the answer holds / success, 1 a definitive no (word does
not represent, no representant up to the bound), 2 usage, parse, or
resource errors.
"""
from __future__ import annotations

import argparse
import functools
import random
import sys
from itertools import combinations

from .constructions import (
    complete_word,
    cube_word,
    prism_word,
    product_k2_word,
    product_kn_word,
)
from .graphs import (
    Graph,
    cartesian_product,
    complete,
    cube,
    cycle,
    graph_of_word,
    graph_to_edges_text,
    graph_to_json,
    load_graph,
    parse_graph,
    represents,
)
from .obf import ChainConditionError, lemma1_concat
from .search import DEFAULT_BUDGET, is_k_representable, outcome_to_json
from .words import Word, alternates, parse_words, restrict, uniformity


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph_arg(path: str) -> Graph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    return load_graph(path)


def _read_one_word(path: str) -> Word:
    words = parse_words(_read_text(path))
    if len(words) != 1:
        raise ValueError(f"expected exactly one word, found {len(words)}")
    return words[0]


def _emit_graph(g: Graph, fmt: str) -> None:
    text = graph_to_json(g) if fmt == "json" else graph_to_edges_text(g)
    sys.stdout.write(text)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "complete":
        g = complete(args.n)
    elif args.kind == "cycle":
        g = cycle(args.n)
    elif args.kind == "cube":
        g = cube(args.k)
    elif args.kind == "prism":
        g = cartesian_product(cycle(args.n), complete(2))
    else:
        left = _load_graph_arg(args.left)
        right = _load_graph_arg(args.right)
        g = cartesian_product(left, right)
    _emit_graph(g, args.format)
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "cube":
        word = cube_word(args.k)
        expected = lambda: cube(args.k)
    elif args.kind == "prism":
        word = prism_word(args.n)
        expected = lambda: cartesian_product(cycle(args.n), complete(2))
    elif args.kind == "complete":
        word = complete_word(args.n, args.k)
        expected = lambda: complete(args.n)
    elif args.kind == "product-k2":
        base = _read_one_word(args.word)
        word = product_k2_word(base)
        expected = lambda: cartesian_product(graph_of_word(base), complete(2))
    else:
        base = _read_one_word(args.word)
        word = product_kn_word(base, args.n)
        expected = lambda: cartesian_product(graph_of_word(base), complete(args.n))
    if args.verify and not represents(word, expected()):
        print("verification failed: constructed word does not represent the expected graph", file=sys.stderr)
        return 1
    print(word)
    return 0


def _explain_mismatch(w: Word, g: Graph) -> str:
    alpha = set(w.alphabet)
    if alpha != g.nodes:
        missing = sorted(g.nodes - alpha)
        extra = sorted(alpha - g.nodes)
        parts = []
        if missing:
            parts.append(f"graph nodes missing from the word: {' '.join(missing)}")
        if extra:
            parts.append(f"word symbols not in the graph: {' '.join(extra)}")
        return "; ".join(parts)
    for x, y in combinations(sorted(alpha), 2):
        alt = alternates(w, x, y)
        if alt != g.adjacent(x, y):
            shape = "alternate but are not an edge" if alt else "do not alternate but are an edge"
            return f"pair {{{x},{y}}}: restriction \"{restrict(w, {x, y})}\", letters {shape}"
    return "no mismatch found"


def cmd_check(args: argparse.Namespace) -> int:
    words = parse_words(_read_text(args.word))
    if not words:
        raise ValueError("word input contains no words")
    g = _load_graph_arg(args.graph)
    for w in words:
        if not represents(w, g):
            if args.explain:
                print(_explain_mismatch(w, g))
            return 1
    return 0


def cmd_repnum(args: argparse.Namespace) -> int:
    g = _load_graph_arg(args.graph)
    for k in range(1, args.max_k + 1):
        outcome = is_k_representable(g, k, budget=args.budget)
        print(outcome_to_json(outcome, timings=args.timings))
        if outcome.found:
            print(f"representation number: {k}")
            print(f"witness: {outcome.word}")
            return 0
        if outcome.result == "resource-limit":
            print(
                f"error: query needs {len(g.nodes) * k} word positions, above the budget "
                f"of {args.budget}; raise the budget explicitly to run it",
                file=sys.stderr,
            )
            return 2
    print(f"representation number: unknown above k = {args.max_k}")
    return 1


def _random_uniform_word(rng: random.Random, size: int, k: int) -> Word:
    letters = [str(i) for i in range(1, size + 1)] * k
    rng.shuffle(letters)
    return Word(letters)


def _random_chain_sets(rng: random.Random, k: int) -> list[frozenset[int]]:
    sets = [
        set(rng.sample(range(1, k + 1), rng.randint(1, k)))
        for _ in range(rng.randint(2, 4))
    ]
    for j in range(1, k):
        if not any(j in a and j + 1 in a for a in sets):
            rng.choice(sets).update((j, j + 1))
    return [frozenset(a) for a in sets]


def _random_violating_sets(rng: random.Random, k: int) -> list[frozenset[int]]:
    # Uncover one consecutive pair on purpose; k >= 2 required.
    sets = _random_chain_sets(rng, k)
    j = rng.randint(1, k - 1)
    out = []
    for a in sets:
        trimmed = set(a)
        if j in trimmed and j + 1 in trimmed:
            trimmed.discard(j + 1)
        out.append(frozenset(trimmed) if trimmed else frozenset({j}))
    return out


def _random_graph(rng: random.Random, size: int) -> Graph:
    names = [str(i) for i in range(1, size + 1)]
    edges = [e for e in combinations(names, 2) if rng.random() < 0.5]
    return Graph(names, edges)


def cmd_selftest(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    trials = args.trials

    def run(name: str, count: int, body) -> bool:
        for t in range(count):
            problem = body()
            if problem is not None:
                print(f"FAIL {name} (trial {t}): {problem}")
                return False
        print(f"ok {name} ({count} trials)")
        return True

    def lemma1_roundtrip() -> str | None:
        w = _random_uniform_word(rng, rng.randint(2, 5), rng.randint(2, 4))
        sets = _random_chain_sets(rng, uniformity(w))
        out = lemma1_concat(w, sets)
        if graph_of_word(out) != graph_of_word(w):
            return f"graph changed for w={w} sets={sets}"
        return None

    def lemma1_rejection() -> str | None:
        k = rng.randint(2, 4)
        w = _random_uniform_word(rng, rng.randint(2, 5), k)
        sets = _random_violating_sets(rng, k)
        try:
            lemma1_concat(w, sets)
        except ChainConditionError as exc:
            covered = any(exc.uncovered in a and exc.uncovered + 1 in a for a in sets)
            return f"reported j={exc.uncovered} is covered" if covered else None
        return f"violation not rejected for sets={sets}"

    def product_equivalence() -> str | None:
        w = _random_uniform_word(rng, rng.randint(2, 5), rng.randint(2, 4))
        g = graph_of_word(w)
        if graph_of_word(product_k2_word(w)) != cartesian_product(g, complete(2)):
            return f"two-copy product mismatch for w={w}"
        n = rng.randint(2, 4)
        if graph_of_word(product_kn_word(w, n)) != cartesian_product(g, complete(n)):
            return f"{n}-copy product mismatch for w={w}"
        return None

    def diagonal_alternation() -> str | None:
        w = _random_uniform_word(rng, rng.randint(2, 4), rng.randint(2, 3))
        n = rng.randint(2, 3)
        out = product_kn_word(w, n)
        k_out = uniformity(out)
        for x in w.alphabet:
            for i, j in combinations(range(1, n + 1), 2):
                a, b = f"{x}@{i}", f"{x}@{j}"
                if len(restrict(out, {a, b})) != 2 * k_out or not alternates(out, a, b):
                    return f"diagonal pair {a},{b} not fully alternating in {out}"
        return None

    def search_agreement() -> str | None:
        g = _random_graph(rng, rng.randint(2, 4))
        k = rng.randint(1, 2)
        pruned = is_k_representable(g, k).found
        unpruned = is_k_representable(g, k, prune=False).found
        if pruned != unpruned:
            return f"disagreement on {g!r} k={k}: pruned={pruned} unpruned={unpruned}"
        return None

    passed = (
        run("lemma1-roundtrip", trials, lemma1_roundtrip)
        and run("lemma1-rejection", trials, lemma1_rejection)
        and run("product-equivalence", trials, product_equivalence)
        and run("diagonal-alternation", max(10, trials // 5), diagonal_alternation)
        and run("search-agreement", max(10, trials // 5), search_agreement)
    )
    if passed:
        print(f"selftest passed (seed {args.seed})")
        return 0
    return 1


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process, on the first main() call: parsing leaves no
    # state in the parser, and the handler is looked up per call in main().
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="Word-representable graphs: constructions, checking, and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a generated graph")
    gen_kind = gen.add_subparsers(dest="kind", required=True)
    for kind, flag in (("complete", "n"), ("cycle", "n"), ("cube", "k"), ("prism", "n")):
        p = gen_kind.add_parser(kind)
        p.add_argument(f"-{flag}", type=int, required=True)
        p.add_argument("--format", choices=("edges", "json"), default="edges")
    p = gen_kind.add_parser("product")
    p.add_argument("left", help="graph file ('-' for stdin)")
    p.add_argument("right", help="graph file ('-' for stdin)")
    p.add_argument("--format", choices=("edges", "json"), default="edges")

    construct = sub.add_parser("construct", help="emit a constructed representant word")
    con_kind = construct.add_subparsers(dest="kind", required=True)
    p = con_kind.add_parser("cube")
    p.add_argument("-k", type=int, required=True)
    p = con_kind.add_parser("prism")
    p.add_argument("-n", type=int, required=True)
    p = con_kind.add_parser("complete")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p = con_kind.add_parser("product-k2")
    p.add_argument("word", nargs="?", default="-", help="word file ('-' for stdin)")
    p = con_kind.add_parser("product-kn")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("word", nargs="?", default="-", help="word file ('-' for stdin)")
    for p in con_kind.choices.values():
        p.add_argument("--verify", action="store_true", help="re-check the output against the expected graph")

    check = sub.add_parser("check", help="exit 0 iff the word(s) represent the graph")
    check.add_argument("word", help="word file ('-' for stdin)")
    check.add_argument("graph", help="graph file ('-' for stdin)")
    check.add_argument("--explain", action="store_true", help="print the first violating pair")

    repnum = sub.add_parser("repnum", help="search representation number up to a bound")
    repnum.add_argument("graph", help="graph file ('-' for stdin)")
    repnum.add_argument("--max-k", type=_int_at_least(1), required=True)
    repnum.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_BUDGET,
                        help="cap on word positions per query (nodes times k)")
    repnum.add_argument("--timings", action="store_true",
                        help="include measured millis in the JSON output")
    repnum.add_argument("--use-automorphisms", "--use-reversal", action="store_true",
                        help="accepted for compatibility; no effect")

    selftest = sub.add_parser("selftest", help="replay the randomized property checks")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--trials", type=_int_at_least(0), default=50)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
