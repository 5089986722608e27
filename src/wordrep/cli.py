"""Command-line surface: generate graphs, run the constructions, check
words against graphs, and search for representation numbers.

Exit codes: 0 the answer holds / success, 1 a definitive no (word does
not represent, no representant up to the bound), 2 usage, parse, or
resource errors.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .constructions import (
    MAX_CUBE_DIMENSION,
    complete_word,
    cube_word,
    prism_word,
    product_k2_word,
    product_kn_word,
)
from .graphs import (
    Graph,
    _check_product_nodes,
    _graph_json,
    cartesian_product,
    complete,
    cube,
    cycle,
    graph_of_word,
    graph_to_edges_text,
    graph_to_json,
    parse_graph,
    represents,
)
from .search import DEFAULT_BUDGET, _outcome_json, representation_number
from .words import Word, parse_words, restrict


def _read_text(path: str) -> str:
    """The text of file ``path``, or of stdin for '-'.  Either one's bytes are decoded from UTF-8 in
    one piece, whatever the locale, so an invalid byte is the same error from both; a leading
    byte-order mark reads as nothing, and CRLF and lone CR line ends read as LF."""
    if path == "-":
        if sys.stdin is None:  # the process started with stdin closed
            raise ValueError("stdin ('-') is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    text = data.decode().removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


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
        left = parse_graph(_read_text(args.left))
        right = parse_graph(_read_text(args.right))
        g = cartesian_product(left, right)
    sys.stdout.write(graph_to_json(g) if args.format == "json" else graph_to_edges_text(g))
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "cube":
        graph = cube(args.k) if args.verify else None  # refuses k > 17 before the word is built
        word = cube_word(args.k)
        expected = lambda: graph
    elif args.kind == "prism":
        word = prism_word(args.n)
        expected = lambda: cartesian_product(cycle(args.n), complete(2))
    elif args.kind == "complete":
        word = complete_word(args.n, args.k)
        expected = lambda: complete(args.n)
    else:  # product-k2 or product-kn: the word is counted, then the graph's nodes, then the base is swept
        words = parse_words(_read_text(args.word))
        if len(words) != 1:
            raise ValueError(f"expected exactly one word, found {len(words)}")
        base, n = words[0], getattr(args, "n", 2)
        word = product_kn_word(base, n) if args.kind == "product-kn" else product_k2_word(base)
        if args.verify:
            _check_product_nodes(len(base.counts) * n)
        expected = lambda: cartesian_product(graph_of_word(base), complete(n))
    if args.verify and not represents(word, expected()):
        print("verification failed: constructed word does not represent the expected graph", file=sys.stderr)
        return 1
    print(word)
    return 0


def _explain_mismatch(w: Word, g: Graph) -> str:
    """The first pair in name order that alternates in ``w`` iff it is no
    edge of g: the first row where the masks of ``w``'s graph and of g
    differ, and the lowest bit of their difference there."""
    alpha, nodes = w.alphabet, g.nodes
    if alpha != nodes:
        missing = sorted(nodes - alpha)
        extra = sorted(alpha - nodes)
        parts = []
        if missing:
            parts.append(f"graph nodes missing from the word: {' '.join(missing)}")
        if extra:
            parts.append(f"word symbols not in the graph: {' '.join(extra)}")
        return "; ".join(parts)
    # same names, so the rows line up; the first row that differs holds
    # the pair's smaller node
    i, diff = next((i, a ^ b) for i, (a, b) in enumerate(zip(graph_of_word(w).masks, g.masks)) if a != b)
    x, y = g.names[i], g.names[(diff & -diff).bit_length() - 1]
    shape = "do not alternate but are an edge" if g.adjacent(x, y) else "alternate but are not an edge"
    return f"pair {{{x},{y}}}: restriction \"{restrict(w, {x, y})}\", letters {shape}"


def cmd_check(args: argparse.Namespace) -> int:
    words = parse_words(_read_text(args.word))
    if not words:
        raise ValueError("word input contains no words")
    g = parse_graph(_read_text(args.graph))
    for w in words:
        if not represents(w, g):
            if args.explain:
                print(_explain_mismatch(w, g))
            return 1
    return 0


def cmd_repnum(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    graph_json = _graph_json(g)  # serialized once, spliced into each outcome line
    for outcome in representation_number(g, args.max_k, budget=args.budget):
        print(_outcome_json(graph_json, outcome, args.timings))
    if outcome.found:
        print(f"representation number: {outcome.k}")
        print(f"witness: {outcome.word}")
        return 0
    if outcome.result == "resource-limit":
        raise ValueError(f"query needs {len(g.names) * outcome.k} word positions, above the budget "
                         f"of {args.budget}; raise the budget explicitly to run it")
    print(f"representation number: unknown above k = {args.max_k}")
    return 1


def _int_within(low: int, high: int | None = None):
    """An argparse type: an int in low..high (or at least low), else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process, on the first main() call: parsing leaves no
    # state in the parser, and the handler is looked up per call in main().
    # parser.commands maps each command to its own parser, for main().
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="Word-representable graphs: constructions, checking, and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    # the k-cube has 2^k nodes: building its word grows 2-2.5x in time per
    # dimension (k = 18: 13 s, 314 MB), while gen and --verify grow 2-4x in
    # time and memory (k = 16 --verify: 9-10 s, 1.06 GB), and cube() refuses k > 17
    cube_dimension = _int_within(1, MAX_CUBE_DIMENSION)
    # K_n has n(n-1)/2 edges: gen complete -n 1000 writes 499,500 lines.
    # The same bound caps the copies a construction makes of each node
    # (complete -k, product-kn -n): product-kn -n 1000 turns a 2-uniform
    # word on 2 nodes into a 1001-uniform word on 2,000 nodes.
    graph_size = _int_within(1, 1000)

    gen = sub.add_parser("gen", help="emit a generated graph")
    gen_kind = gen.add_subparsers(dest="kind", required=True)
    for kind, flag in (("complete", "n"), ("cycle", "n"), ("cube", "k"), ("prism", "n")):
        p = gen_kind.add_parser(kind)
        p.add_argument(f"-{flag}", type=cube_dimension if kind == "cube" else graph_size, required=True)
        p.add_argument("--format", choices=("edges", "json"), default="edges")
    p = gen_kind.add_parser("product")
    p.add_argument("left", help="graph file ('-' for stdin)")
    p.add_argument("right", help="graph file ('-' for stdin)")
    p.add_argument("--format", choices=("edges", "json"), default="edges")

    construct = sub.add_parser("construct", help="emit a constructed representant word")
    con_kind = construct.add_subparsers(dest="kind", required=True)
    p = con_kind.add_parser("cube")
    p.add_argument("-k", type=cube_dimension, required=True)
    p = con_kind.add_parser("prism")
    p.add_argument("-n", type=graph_size, required=True)
    p = con_kind.add_parser("complete")
    p.add_argument("-n", type=graph_size, required=True)
    p.add_argument("-k", type=graph_size, required=True)
    p = con_kind.add_parser("product-k2")
    p.add_argument("word", nargs="?", default="-", help="word file ('-' for stdin)")
    p = con_kind.add_parser("product-kn")
    p.add_argument("-n", type=_int_within(2, 1000), required=True)
    p.add_argument("word", nargs="?", default="-", help="word file ('-' for stdin)")
    for p in con_kind.choices.values():
        p.add_argument("--verify", action="store_true", help="re-check the output against the expected graph")

    check = sub.add_parser("check", help="exit 0 iff the word(s) represent the graph")
    check.add_argument("word", help="word file ('-' for stdin)")
    check.add_argument("graph", help="graph file ('-' for stdin)")
    check.add_argument("--explain", action="store_true", help="print the first violating pair")

    repnum = sub.add_parser("repnum", help="search representation number up to a bound")
    repnum.add_argument("graph", help="graph file ('-' for stdin)")
    repnum.add_argument("--max-k", type=_int_within(1), required=True)
    repnum.add_argument("--budget", type=_int_within(1), default=DEFAULT_BUDGET,
                        help="cap on word positions per query (nodes times k)")
    repnum.add_argument("--timings", action="store_true",
                        help="include measured millis in the JSON output")
    repnum.add_argument("--use-automorphisms", "--use-reversal", action="store_true",
                        help="accepted for compatibility; no effect: the automorphism "
                             "(lex-leader) cut is always on")

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    try:
        # A leading command name goes straight to its own parser, which is
        # what the full parser would hand the rest of argv to; any other
        # argv, or leftover arguments, takes the full parser's path, so
        # that usage, help and errors stay the full parser's.
        if command is not None:
            args, extra = command.parse_known_args(argv[1:])
            args.command = argv[0]
        if command is None or extra:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if [getattr(args, name, None) for name in ("word", "graph", "left", "right")].count("-") > 1:
            raise ValueError("stdin ('-') can be read only once per command")
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # str() of a MemoryError is usually empty
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
