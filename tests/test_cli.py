import argparse
import doctest
import io
import json
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from conftest import restriction_alternates
from wordrep import (Graph, Word, cartesian_product, complete, constructions, cube, cube_word, cycle, graph_of_word,
                     graph_to_edges_text, graphs, outcome_to_json, parse_graph, prism_word, representation_number,
                     represents, search)
from wordrep.cli import _build_parser, _explain_mismatch, _read_text, main


def test_import_loads_no_module_it_does_not_use():
    # a CLI process mostly imports on small inputs: the entry point loads
    # neither dataclasses (and the inspect it pulls in) nor json, which only
    # the JSON graph format needs, nor the search's triple cut
    script = f"""import sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "src")!r})
import wordrep.cli
print(*sorted({{"dataclasses", "inspect", "json", "wordrep.triples"}} & set(sys.modules)))
wordrep.parse_graph('{{"nodes": ["a"], "edges": []}}')
print("json" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["", "True"]


def run(capsys, monkeypatch, argv, stdin=b""):
    # stdin's text layer decodes latin-1, as under PYTHONIOENCODING=latin-1, so that a command
    # reading stdin's text instead of its bytes answers otherwise on any non-ASCII input
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="latin-1"))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The contract table: each row runs one argv, its named inputs written to files of those names,
# and pins the exit code, the exact stdout and the exact stderr.  An argparse usage message is
# pinned by its "usage: " prefix and its last line, and stands in a row as USAGE + that line.
USAGE = "usage: ...\n"


def pinned(err):
    return USAGE + err.splitlines()[-1] + "\n" if err.startswith("usage: ") and "Traceback" not in err else err


def row(argv, inputs, code, out="", err=""):
    return argv.split(), inputs, code, out, err


def usage(argv, line):
    return row(argv, {"g": "1 2\n"} if " g " in argv else {}, 2, err=f"{USAGE}{line}\n")


def graph_payload(edges_text):
    """The JSON object of the graph of an edge list with no isolated node: its nodes, and its
    edges, each pair and the list in name order."""
    edges = sorted(sorted(line.split()) for line in edges_text.splitlines() if line and not line.startswith("#"))
    return {"nodes": sorted({v for e in edges for v in e}), "edges": edges}


def repnum_out(edges_text, *outcomes, found=None):
    """repnum's stdout for the graph of an edge list: one outcome line per (k, result, word,
    explored), then the summary of the witness ``found`` at the last k, if any."""
    lines = [json.dumps({"graph": graph_payload(edges_text), "k": k, "result": result, "word": word,
                         "explored": explored, "millis": 0}) for k, result, word, explored in outcomes]
    if found:
        lines += [f"representation number: {outcomes[-1][0]}", f"witness: {found}"]
    return "".join(line + "\n" for line in lines)


def ends(text, end, bom):
    return (bom + text).replace("\n", end).encode()


Q3_EDGES = ("000 001\n000 010\n000 100\n001 011\n001 101\n010 011\n010 110\n011 111\n"
            "100 101\n100 110\n101 111\n110 111\n")
Q3_WORD = "110 000 010 100 001 000 111 110 101 100 011 010 111 001 011 101 000 001 110 111 100 101 010 011\n"
Q4_WORD = ("1100 0000 0100 1000 0010 0001 0000 1110 1101 1100 1010 1001 1000 0110 0101 0100 1111 1110 0011 0010 "
           "0111 0110 1011 1010 0001 0000 0011 0010 1101 1100 1111 1110 1001 1000 1011 1010 0101 0100 0111 0110 "
           "1101 0001 0101 1001 0011 0000 0001 1111 1100 1101 1011 1000 1001 0111 0100 0101 1110 1111 0010 0011 "
           "0110 0111 1010 1011\n")
PRISM3_EDGES = "1@1 1@2\n1@1 2@1\n1@1 3@1\n1@2 2@2\n1@2 3@2\n2@1 2@2\n2@1 3@1\n2@2 3@2\n3@1 3@2\n"  # K3 x K2
PRISM3_WITNESS = "1@1 1@2 2@1 2@2 3@1 1@1 2@1 3@2 1@2 3@1 1@1 2@2 2@1 3@2 3@1 1@2 2@2 3@2"
PRISM3_REPNUM = repnum_out(PRISM3_EDGES, (1, "exhausted", None, 0), (2, "exhausted", None, 25),
                           (3, "witness", PRISM3_WITNESS, 18), found=PRISM3_WITNESS)
PRISM3_FILES = {"w": "# the 3-prism\n\n1@1 3@1 2@1 1@2 1@1 3@2 3@1 2@2 2@1 1@2 3@2 2@2 1@1 1@2 3@1 3@2 2@1 2@2\n",
                "edges": "# the 3-prism\n" + PRISM3_EDGES,
                "json": json.dumps(graph_payload(PRISM3_EDGES), indent=2) + "\n"}
PRISM4_EDGES = graph_to_edges_text(cartesian_product(cycle(4), complete(2)))
C4_EDGES = "# the 4-cycle\n1 2\n2 3\n3 4\n1 4\n"
C4_WORD = "3 1 4 2 1 3 2 4\n"
K4_EDGES = "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
K3K2_EDGES = "a b\nb c\na c\nA B\nB C\nA C\na A\nb B\nc C\n"
K3K2_WITNESS = "A B C a A b B c C a A b c a B b C c"
K2XK3_WORD = "1@3 2@3 1@2 1@1 1@3 2@2 2@1 2@3 1@2 2@2 1@1 1@3 1@2 2@1 2@3 2@2 1@1 2@1 1@3 1@2 1@1 2@3 2@2 2@1\n"
DEEP_JSON = '{"nodes": ' + "[" * 100_000 + "\n"
BAD_CRLF_JSON = '{"nodes": ["a"],\r\n "edges": [["a", "b"]\r ,]}'


def json_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)


# json's wording differs between Python versions, so a row pins what the running json says of
# the text with LF ends, which places the fault elsewhere than in the raw CRLF text
BAD_JSON_LINE = json_error(BAD_CRLF_JSON.replace("\r\n", "\n").replace("\r", "\n"))
assert BAD_JSON_LINE != json_error(BAD_CRLF_JSON)
UTF8_ERROR = "error: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte\n"
STDIN_TWICE = "error: stdin ('-') can be read only once per command\n"
TOO_DEEP = "error: bad graph JSON: nested too deeply\n"

# Each name in the table is a test of this module, the one-behaviour test its rows replaced: a
# list of rows runs as one test, a dict as one case per row, named by its key.
CONTRACTS = {
    "test_gen_cube_edges": [row("gen cube -k 3", {}, 0, Q3_EDGES)],
    "test_gen_json_format": [
        row("gen complete -n 3 --format json", {}, 0, json.dumps(graph_payload("1 2\n1 3\n2 3\n"), indent=2) + "\n")],
    "test_gen_bad_parameter_exits_2": [row("gen cycle -n 2", {}, 2, err="error: cycle needs n >= 3, got 2\n")],
    "test_gen_usage_error_exits_2": [usage("gen hexagon -n 6", "wordrep gen: error: argument kind: invalid choice: "
                                           "'hexagon' (choose from 'complete', 'cycle', 'cube', 'prism', 'product')")],
    "test_graph_size_above_1000_is_a_usage_error": {f"argv{i}": usage(argv, line) for i, (argv, line) in enumerate([
        ("gen complete -n 1001", "wordrep gen complete: error: argument -n: must be at most 1000, got 1001"),
        ("gen cycle -n 100000000", "wordrep gen cycle: error: argument -n: must be at most 1000, got 100000000"),
        ("gen prism -n 1001", "wordrep gen prism: error: argument -n: must be at most 1000, got 1001"),
        ("construct prism -n 100000000",
         "wordrep construct prism: error: argument -n: must be at most 1000, got 100000000"),
        ("construct complete -n 1001 -k 2",
         "wordrep construct complete: error: argument -n: must be at most 1000, got 1001")])},
    "test_copies_per_node_outside_their_range_are_a_usage_error": {
        "argv0--k: must be at most 1000": usage("construct complete -n 2 -k 100000000", "wordrep construct complete: "
                                                "error: argument -k: must be at most 1000, got 100000000"),
        "argv1--k: must be at least 1": usage("construct complete -n 2 -k 0", "wordrep construct complete: "
                                              "error: argument -k: must be at least 1, got 0"),
        "argv2--n: must be at most 1000": usage("construct product-kn -n 1000000", "wordrep construct product-kn: "
                                                "error: argument -n: must be at most 1000, got 1000000"),
        "argv3--n: must be at least 2": usage("construct product-kn -n 1", "wordrep construct product-kn: "
                                              "error: argument -n: must be at least 2, got 1")},
    "test_selftest_is_a_usage_error": [usage("selftest", "wordrep: error: argument command: invalid choice: "
                                             "'selftest' (choose from 'gen', 'construct', 'check', 'repnum')")],
    "test_graph_size_1000_is_accepted": [
        row("construct prism -n 1000 --verify", {}, 0, f"{prism_word(1000)}\n"),
        row("gen cycle -n 1000", {}, 0, "".join(f"{u} {v}\n" for u, v in sorted(
            sorted((str(i), str(i % 1000 + 1))) for i in range(1, 1001))))],
    "test_gen_product": [row("gen product k3 k2", {"k3": "1 2\n1 3\n2 3\n", "k2": "1 2\n"}, 0, PRISM3_EDGES)],
    "test_construct_cube_and_verify": [row("construct cube -k 2 --verify", {}, 0, "11 00 01 10 00 11 10 01\n"),
                                       row("construct cube -k 4 --verify", {}, 0, Q4_WORD)],
    "test_cube_dimension_outside_1_to_20_is_a_usage_error": {
        f"argv{i}": usage(argv, line) for i, (argv, line) in enumerate([
            ("gen cube -k 21", "wordrep gen cube: error: argument -k: must be at most 20, got 21"),
            ("construct cube -k 1200", "wordrep construct cube: error: argument -k: must be at most 20, got 1200"),
            ("construct cube -k 0", "wordrep construct cube: error: argument -k: must be at least 1, got 0")])},
    "test_construct_complete": [row("construct complete -n 3 -k 2", {}, 0, "1 2 3 1 2 3\n")],
    "test_construct_product_k2_from_stdin": [
        row("construct product-k2 w --verify", {"w": "1 2 1 2\n"}, 0,
            "1@1 2@1 1@2 1@1 2@2 2@1 1@2 2@2 1@1 1@2 2@1 2@2\n"),
        # names that continue each other past '@' interleave their copies in name order (x@1,
        # x@1@1, x@1@2, x@2), so the product graph is relabelled into name order before the
        # word is verified against it
        row("construct product-k2 x --verify", {"x": "x x@1 x x@1"}, 0,
            "x@1 x@1@1 x@2 x@1 x@1@2 x@1@1 x@2 x@1@2 x@1 x@2 x@1@1 x@1@2\n"),
        row("construct product-kn -n 2 x --verify", {"x": "x x@1 x x@1"}, 0,
            "x@2 x@1@2 x@1 x@2 x@1@1 x@1@2 x@1 x@1@1 x@2 x@1 x@1@2 x@1@1\n")],
    "test_construct_product_rejects_1_uniform_input": [row(
        "construct product-k2 w.1-uniform", {"w.1-uniform": "1 2\n"}, 2,
        err="error: product constructions need uniformity k > 1, got k = 1; a 1-uniform input genuinely "
            "fails (its product need not be 2-representable)\n")],
    # construct's words and gen's graphs, as the commands print them, are accepted by check
    "test_construct_product_kn_round_trip": [
        row("construct product-kn -n 3 w --verify", {"w": "1 2 1 2\n"}, 0, K2XK3_WORD),
        row("check k2xk3.word k2xk3.edges", {"k2xk3.word": K2XK3_WORD, "k2xk3.edges": "1@1 1@2\n1@1 1@3\n1@1 2@1\n"
                                             "1@2 1@3\n1@2 2@2\n1@3 2@3\n2@1 2@2\n2@1 2@3\n2@2 2@3\n"}, 0)],
    "test_construct_check_round_trips": [
        row("construct cube -k 3 --verify", {}, 0, Q3_WORD),
        row("check q3.word q3.edges", {"q3.word": Q3_WORD, "q3.edges": Q3_EDGES}, 0),
        row("check prism4.word prism4.edges", {"prism4.word": f"{prism_word(4)}\n", "prism4.edges": PRISM4_EDGES}, 0),
        row("check k4.word k4.edges", {"k4.word": "1 2 3 4 1 2 3 4\n", "k4.edges": K4_EDGES}, 0)],
    "test_check_exit_codes": [
        row("check w c4.edges", {"w": C4_WORD, "c4.edges": C4_EDGES}, 0),
        row("check w k4.edges", {"w": C4_WORD, "k4.edges": K4_EDGES}, 1),
        row("check w k4.edges --explain", {"w": C4_WORD, "k4.edges": K4_EDGES}, 1,
            'pair {1,3}: restriction "3 1 1 3", letters do not alternate but are an edge\n')],
    "test_explain_names_the_symbols_a_word_and_a_graph_do_not_share": [
        row("check w.abc g.abd --explain", {"w.abc": "a b c a b c\n", "g.abd": "a b\nb d\n"}, 1,
            "graph nodes missing from the word: d; word symbols not in the graph: c\n")],
    "test_construct_product_kn_refuses_two_words": [row(
        "construct product-kn -n 3 w.two", {"w.two": "1 2 1 2\n1 2 2 1\n"}, 2,
        err="error: expected exactly one word, found 2\n")],
    "test_check_empty_word_input_exits_2": [
        row("check w.none g", {"w.none": "# nothing\n", "g": "1 2\n"}, 2, err="error: word input contains no words\n")],
    # the second word is the reversal of the first; reversal preserves the graph
    "test_check_words_from_comments_and_multiple_lines": [
        row("check w.two c4.edges", {"w.two": "# two representants\n3 1 4 2 1 3 2 4\n4 2 3 1 2 4 1 3\n",
                                     "c4.edges": C4_EDGES}, 0)],
    "test_check_picks_the_graph_format_by_content_not_name": [
        row("check q3.word g.edges", {"q3.word": Q3_WORD, "g.edges": json.dumps(graph_payload(Q3_EDGES), indent=2)}, 0),
        row("check q3.word g.json", {"q3.word": Q3_WORD, "g.json": Q3_EDGES}, 0)],
    "test_malformed_json_with_crlf_ends_is_placed_as_text_mode_placed_it": [row(
        "check w bad.crlf.json", {"w": "a b a b\n", "bad.crlf.json": BAD_CRLF_JSON}, 2,
        err=f"error: bad graph JSON: {BAD_JSON_LINE}\n")],
    "test_invalid_utf8_is_one_error_line_and_exit_2": {
        "w": row("check w.xff g", {"w.xff": b"a \xff a b\n", "g": "a b\n"}, 2, err=UTF8_ERROR),
        "g": row("check w g.xff", {"w": "a b a b\n", "g.xff": b"a \xff\n"}, 2, err=UTF8_ERROR)},
    "test_deeply_nested_json_graph_exits_2": {
        "argv0": row("check w.txt g.json", {"w.txt": "1 2\n", "g.json": DEEP_JSON}, 2, err=TOO_DEEP),
        "argv1": row("repnum g.json --max-k 1", {"g.json": DEEP_JSON}, 2, err=TOO_DEEP),
        "argv2": row("gen product a.json b.json", {"a.json": DEEP_JSON, "b.json": DEEP_JSON}, 2, err=TOO_DEEP)},
    "test_stdin_named_twice_is_a_usage_error": {"argv0": row("gen product - -", {}, 2, err=STDIN_TWICE),
                                                "argv1": row("check - -", {}, 2, err=STDIN_TWICE)},
    "test_non_array_json_edges_exit_2": {
        edges: row(f"repnum {name} --max-k 1", {name: '{"nodes": ["1"], "edges": %s}\n' % edges}, 2,
                   err="error: 'edges' must be an array of 2-arrays of strings\n")
        for name, edges in [("e5.json", "5"), ("enull.json", "null")]},
    "test_repnum_finds_three_prism_number": [row("repnum prism.edges --max-k 3", {"prism.edges": PRISM3_EDGES}, 0,
                                                 PRISM3_REPNUM)],
    "test_repnum_unknown_above_bound": [row(
        "repnum c4.edges --max-k 1", {"c4.edges": C4_EDGES}, 1,
        repnum_out(C4_EDGES, (1, "exhausted", None, 0)) + "representation number: unknown above k = 1\n")],
    "test_repnum_rejects_bound_below_1": {
        bound: usage(f"repnum g --max-k {bound}",
                     f"wordrep repnum: error: argument --max-k: must be at least 1, got {bound}")
        for bound in ("0", "-1", "-7")},
    "test_non_integer_bound_is_a_usage_error": [
        usage("repnum g --max-k two", "wordrep repnum: error: argument --max-k: invalid int value: 'two'")],
    "test_repnum_resource_limit": [row(
        "repnum c4.edges --max-k 3 --budget 4", {"c4.edges": C4_EDGES}, 2,
        repnum_out(C4_EDGES, (1, "exhausted", None, 0), (2, "resource-limit", None, 0)),
        "error: query needs 8 word positions, above the budget of 4; raise the budget explicitly to run it\n")],
    # both symmetry flags are accepted no-ops: alone or together they change no byte of the
    # output, the explored counts of exhausted k included
    "test_repnum_symmetry_flags": [
        row(f"repnum {name} --max-k 3{flags}", {name: edges}, 0, out) for name, edges, out in [
            ("c4.edges", C4_EDGES, repnum_out(C4_EDGES, (1, "exhausted", None, 0),
                                              (2, "witness", "1 2 4 1 3 4 2 3", 8), found="1 2 4 1 3 4 2 3")),
            ("k3k2.edges", K3K2_EDGES, repnum_out(K3K2_EDGES, (1, "exhausted", None, 0), (2, "exhausted", None, 25),
                                                  (3, "witness", K3K2_WITNESS, 18), found=K3K2_WITNESS))]
        for flags in ("", " --use-automorphisms", " --use-reversal", " --use-automorphisms --use-reversal")],
    "test_repnum_rejects_budget_below_1": {
        budget: usage(f"repnum g --max-k 1 --budget {budget}",
                      f"wordrep repnum: error: argument --budget: must be at least 1, got {budget}")
        for budget in ("0", "-1")},
    "test_missing_file_exits_2": [row("check /nonexistent/w.txt /nonexistent/g.edges", {}, 2,
                                      err="error: [Errno 2] No such file or directory: '/nonexistent/w.txt'\n")],
    "test_byte_determinism_of_gen_and_construct": [
        row("gen cube -k 3 --format json", {}, 0, json.dumps(graph_payload(Q3_EDGES), indent=2) + "\n"),
        row("construct prism -n 5", {}, 0, "1@1 5@1 2@1 1@2 1@1 3@1 2@2 2@1 4@1 3@2 3@1 5@2 5@1 4@2 4@1 "
                                           "1@2 5@2 2@2 1@1 1@2 3@2 2@1 2@2 4@2 3@1 3@2 5@1 5@2 4@1 4@2\n")],
}


def check_contract(capsys, monkeypatch, tmp_path, argv, inputs, code, out="", err=""):
    # the row runs with every input read from its file, then once more per input with that
    # input piped to stdin as '-', and each run must give the row's bytes
    data = {name: text if isinstance(text, bytes) else text.encode() for name, text in inputs.items()}
    for name, text in data.items():
        (tmp_path / name).write_bytes(text)
    for piped in (None, *data):
        args = ["-" if a == piped else str(tmp_path / a) if a in data else a for a in argv]
        got, got_out, got_err = run(capsys, monkeypatch, args, data.get(piped, b""))
        assert (got, got_out, pinned(got_err)) == (code, out, err), f"{' '.join(argv)}: {piped} on stdin"


def contract_test(rows):
    if isinstance(rows, dict):
        @pytest.mark.parametrize("contract", rows.values(), ids=rows.keys())
        def test(capsys, monkeypatch, tmp_path, contract):
            check_contract(capsys, monkeypatch, tmp_path, *contract)
        return test

    def test(capsys, monkeypatch, tmp_path):
        for contract in rows:
            check_contract(capsys, monkeypatch, tmp_path, *contract)
    return test


globals().update((name, contract_test(rows)) for name, rows in CONTRACTS.items())
ROWS = [contract for rows in CONTRACTS.values() for contract in (rows.values() if isinstance(rows, dict) else rows)]


def test_gen_product_refuses_an_output_above_the_20_cube(capsys, monkeypatch, tmp_path):
    # the product is counted before it is built: |V(G)||V(H)| nodes, at
    # most the 17-cube graph's, and |V(G)||E(H)| + |E(G)||V(H)| edges, at
    # most the 20-cube's; the bounds are lowered here so that a missing
    # check builds 12 edges rather than, say, the 26,910,000 of K300 times
    # K300
    assert (graphs.MAX_PRODUCT_NODES, graphs.MAX_PRODUCT_EDGES) == (2 ** 17, 20 * 2 ** 19) == (131_072, 10_485_760)
    path = tmp_path / "p3.edges"
    path.write_text("1 2\n2 3\n")  # the path on 3 nodes, with 2 edges
    argv = ["gen", "product", str(path), str(path)]  # 9 nodes, 3 * 2 + 2 * 3 = 12 edges
    for nodes, edges in [(8, 12), (9, 11)]:
        monkeypatch.setattr(graphs, "MAX_PRODUCT_NODES", nodes)
        monkeypatch.setattr(graphs, "MAX_PRODUCT_EDGES", edges)
        code, out, err = run(capsys, monkeypatch, argv)
        assert code == 2 and out == ""
        assert err == (f"error: product graph would have 9 nodes and 12 edges, above the {nodes} nodes "
                       f"of the 17-cube or the {edges} edges of the 20-cube\n")
    monkeypatch.setattr(graphs, "MAX_PRODUCT_NODES", 9)
    monkeypatch.setattr(graphs, "MAX_PRODUCT_EDGES", 12)
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 0 and len(out.splitlines()) == 12


def test_construct_verify_rejects_a_word_for_another_graph(capsys, monkeypatch):
    # --verify checks the word against the graph the kind names, not against
    # the word's own graph: a prism construction that returns the 6-prism's
    # word for -n 5 fails the check, and no word is printed
    monkeypatch.setattr("wordrep.cli.prism_word", lambda n: constructions.prism_word(n + 1))
    message = "verification failed: constructed word does not represent the expected graph\n"
    assert run(capsys, monkeypatch, ["construct", "prism", "-n", "5", "--verify"]) == (1, "", message)


def test_out_of_memory_is_one_error_line_and_exit_2(capsys, monkeypatch):
    # the verification sweep is where construct cube -k 15 --verify ran out
    # of memory under a 250 MB address-space cap
    def out_of_memory(w, g):
        raise MemoryError

    monkeypatch.setattr("wordrep.cli.represents", out_of_memory)
    assert run(capsys, monkeypatch, ["construct", "cube", "-k", "3", "--verify"]) == (2, "", "error: out of memory\n")


def test_cube_graph_above_17_is_one_error_line_before_the_word_is_built(capsys, monkeypatch):
    def no_word(k):
        raise AssertionError("the word was built")

    monkeypatch.setattr("wordrep.cli.cube_word", no_word)
    error = "error: cube graph needs k <= 17, got 18: its masks would take 8 GiB\n"
    assert run(capsys, monkeypatch, ["gen", "cube", "-k", "18"]) == (2, "", error)
    assert run(capsys, monkeypatch, ["construct", "cube", "-k", "18", "--verify"]) == (2, "", error)
    # without --verify no graph is built, and the word is printed
    monkeypatch.setattr("wordrep.cli.cube_word", lambda k: Word("a"))
    assert run(capsys, monkeypatch, ["construct", "cube", "-k", "18"]) == (0, "a\n", "")


def test_construct_product_kn_refuses_an_output_above_the_20_cube_word(capsys, monkeypatch):
    # both products' output is counted before it is built: n * m * (k+n-1)
    # letters, at most the 20-cube word's; the bound is lowered here so that
    # a missing check builds 12 or 24 letters rather than, say, the
    # 200,200,000 of a 2-uniform word on 200 nodes with -n 1000
    assert constructions.MAX_WORD_LENGTH == 20 * 2 ** 20 == 20_971_520
    # the word is read from stdin: 2 * 2 * (2+2-1) = 12 and 3 * 2 * (2+3-1) = 24 letters
    for argv, length in [(["construct", "product-k2"], 12), (["construct", "product-kn", "-n", "3"], 24)]:
        monkeypatch.setattr(constructions, "MAX_WORD_LENGTH", length - 1)
        code, out, err = run(capsys, monkeypatch, argv, b"a b a b")
        assert code == 2 and out == ""
        assert err == f"error: product word would have {length} letters, above the {length - 1} of the 20-cube word\n"
        monkeypatch.setattr(constructions, "MAX_WORD_LENGTH", length)
        code, out, _ = run(capsys, monkeypatch, argv, b"a b a b")
        assert code == 0 and len(out.split()) == length


def test_construct_product_verify_counts_the_product_graph_before_it_sweeps_the_base_word(capsys, monkeypatch):
    # --verify counts the product graph's m * n nodes before graph_of_word
    # sweeps the base word, whose rows take m^2 / 8 bytes; the bound is
    # lowered to 9 so that a late check shows as one sweep of a 3-node word
    swept = []

    def spy(w):
        swept.append(w)
        return graph_of_word(w)

    monkeypatch.setattr("wordrep.cli.graph_of_word", spy)
    argv = ["construct", "product-kn", "-n", "4", "--verify"]  # 3 * 4 = 12 nodes
    for nodes in (9, 11):
        monkeypatch.setattr(graphs, "MAX_PRODUCT_NODES", nodes)
        assert run(capsys, monkeypatch, argv, b"a b c a b c") == (
            2, "", f"error: product graph would have 12 nodes, above the {nodes} nodes of the 17-cube\n")
    assert swept == []
    monkeypatch.setattr(graphs, "MAX_PRODUCT_NODES", 12)
    code, out, _ = run(capsys, monkeypatch, argv, b"a b c a b c")
    assert code == 0 and len(out.split()) == 60 and swept == [Word("a b c a b c")]


def pairwise_explanation(w, g):
    """Test-owned oracle: the first pair in name order whose restriction to
    the pair alternates exactly when the pair is no edge."""
    for x, y in combinations(sorted(g.nodes), 2):
        alt = restriction_alternates(w.letters, x, y)
        if alt != g.adjacent(x, y):
            shape = "alternate but are not an edge" if alt else "do not alternate but are an edge"
            restriction = " ".join(t for t in w.letters if t == x or t == y)
            return f'pair {{{x},{y}}}: restriction "{restriction}", letters {shape}'
    return None


def test_explain_matches_pairwise_oracle():
    # names s0..s11 so that name order and first-occurrence order differ
    # ("s10" < "s2"); the graph is the word's own with a few pairs flipped,
    # or a random graph on its alphabet
    rng = random.Random(4242)
    for trial in range(600):
        letters = []
        for s in rng.sample(range(12), rng.randint(2, 7)):
            letters += [f"s{s}"] * rng.randint(1, 4)
        rng.shuffle(letters)
        w = Word(letters)
        pairs = list(combinations(sorted(w.alphabet), 2))
        if trial % 2:
            edges = set(graph_of_word(w).edges) ^ set(rng.sample(pairs, rng.randint(1, min(3, len(pairs)))))
        else:
            edges = {e for e in pairs if rng.random() < 0.5}
        g = Graph(w.alphabet, edges)
        if represents(w, g):
            continue
        assert _explain_mismatch(w, g) == pairwise_explanation(w, g), (w, sorted(edges))


def test_explain_names_the_one_missing_edge_of_the_12_cube():
    g = cube(12)
    last = max(g.edges)
    g = Graph(g.nodes, g.edges - {last})
    text = _explain_mismatch(cube_word(12), g)
    assert text.startswith(f"pair {{{last[0]},{last[1]}}}: restriction ")
    assert text.endswith(", letters alternate but are not an edge")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_files_read_alike_under_every_line_end(capsys, monkeypatch, tmp_path, end):
    # files and stdin are decoded as UTF-8, and CRLF and lone CR line ends read as LF; a
    # leading byte-order mark reads as nothing
    g = cartesian_product(cycle(3), complete(2))
    for bom in ("", "\ufeff"):
        data = {name: ends(text, end, bom) for name, text in PRISM3_FILES.items()}
        for name, text in data.items():
            (tmp_path / name).write_bytes(text)
        assert _read_text(str(tmp_path / "w")) == PRISM3_FILES["w"]
        assert parse_graph(_read_text(str(tmp_path / "edges"))) == parse_graph(_read_text(str(tmp_path / "json"))) == g
        for fmt in ("edges", "json"):
            check_contract(capsys, monkeypatch, tmp_path, ["check", "w", fmt], {"w": data["w"], fmt: data[fmt]}, 0)
            check_contract(capsys, monkeypatch, tmp_path, ["repnum", fmt, "--max-k", "3"], {fmt: data[fmt]}, 0,
                           PRISM3_REPNUM)


@pytest.mark.parametrize("g, max_k, budget, code, queries", [
    (cartesian_product(complete(3), complete(2)), 3, 24, 0, [1, 2, 3]),
    (cycle(4), 1, 24, 1, [1]),
    # refused at k = 2: the scan stops there and asks nothing at k = 3..5
    (cube(3), 5, 8, 2, [1, 2]),
], ids=["K3xK2", "C4", "Q3-refused"])
def test_repnum_prints_each_outcome_the_scan_yields(capsys, monkeypatch, tmp_path, g, max_k, budget, code, queries):
    graph_file = tmp_path / "g.edges"
    graph_file.write_text(graph_to_edges_text(g))
    expected = [outcome_to_json(o) for o in representation_number(g, max_k, budget=budget)]
    asked = []
    query = search.is_k_representable
    monkeypatch.setattr(search, "is_k_representable", lambda graph, k, **kw: asked.append(k) or query(graph, k, **kw))
    argv = ["repnum", str(graph_file), "--max-k", str(max_k), "--budget", str(budget)]
    got, out, _ = run(capsys, monkeypatch, argv)
    lines = out.splitlines()
    assert got == code and asked == queries
    assert len(expected) == len(queries) and lines[:len(expected)] == expected
    assert not any(ln.startswith("{") for ln in lines[len(expected):])


def test_repnum_deep_query_answers(capsys, monkeypatch, tmp_path):
    # K700 plus an isolated node: k = 1 is exhausted and k = 2 needs 1,402
    # word positions, deeper than Python's default recursion limit
    graph_file = tmp_path / "k700.edges"
    graph_file.write_text("0\n" + graph_to_edges_text(complete(700)))
    code, out, err = run(capsys, monkeypatch, ["repnum", str(graph_file), "--max-k", "2", "--budget", "2000"])
    assert (code, err) == (0, "")
    assert "representation number: 2" in out.splitlines()


def test_repnum_timings_flag(capsys, monkeypatch, tmp_path):
    graph_file = tmp_path / "k2.edges"
    graph_file.write_text("1 2\n")
    code, out, _ = run(capsys, monkeypatch, ["repnum", str(graph_file), "--max-k", "1", "--timings"])
    assert code == 0
    outcome = json.loads(out.splitlines()[0])
    assert outcome["millis"] >= 0


def test_parser_reuse_carries_nothing_between_calls(capsys, monkeypatch, tmp_path):
    # main() builds its parser once per process; each call in a sequence
    # must still answer as it does on a freshly built parser
    graph_file = tmp_path / "c4.edges"
    graph_file.write_text("1 2\n2 3\n3 4\n1 4\n")
    k4_file = tmp_path / "k4.edges"
    k4_file.write_text(K4_EDGES)
    word_file = tmp_path / "w.txt"
    word_file.write_text(C4_WORD)
    g, k4, w = str(graph_file), str(k4_file), str(word_file)
    sequence = [
        ["repnum", g, "--max-k", "2", "--budget", "4"],
        ["repnum", g, "--max-k", "2"],
        ["repnum", g, "--max-k", "0"],
        ["repnum", g, "--max-k", "1"],
        ["check", w, k4, "--explain"],
        ["check", w, k4],
        ["construct", "cube", "-k", "2", "--verify"],
        ["construct", "cube", "-k", "2"],
    ]
    verified = []
    monkeypatch.setattr("wordrep.cli.represents",
                        lambda word, graph: verified.append(word) or represents(word, graph))

    def alone(argv):
        _build_parser.cache_clear()
        verified.clear()
        return run(capsys, monkeypatch, argv), len(verified)

    expected = [alone(argv) for argv in sequence]
    _build_parser.cache_clear()
    parser = _build_parser()
    for argv, want in zip(sequence, expected):
        verified.clear()
        assert (run(capsys, monkeypatch, argv), len(verified)) == want, argv
    assert _build_parser() is parser
    # the pairs differ when run alone, so a carried-over flag would show
    assert expected[0] != expected[1] and expected[4] != expected[5]
    assert expected[2][0][0] == 2 and expected[3][0][0] == 1
    assert expected[6][1] == 1 and expected[7][1] == 0


# argv beyond the contract table's: help, parse errors and arguments that no row runs
PARSE_TABLE = [
    [], ["-h"], ["--help"], ["bogus"], ["-h", "repnum"],
    ["--", "repnum", "g", "--max-k", "1"],
    ["gen"], ["gen", "-h"], ["gen", "complete", "-n", "3"],
    ["gen", "cycle", "-n", "4", "--format", "json"], ["gen", "cube", "-h"],
    ["gen", "prism", "-n", "3"], ["gen", "product", "a", "b", "--format", "json"],
    ["gen", "complete", "-n", "3", "--bogus"],
    ["construct"], ["construct", "-h"],
    ["construct", "product-k2"], ["construct", "product-k2", "w.txt", "--verify"],
    ["construct", "product-kn", "-n", "3", "w.txt"], ["construct", "product-kn", "-h"],
    ["check", "w", "g"], ["check", "-", "g", "--explain"], ["check", "w"], ["check", "-h"],
    ["repnum", "g", "--max-k", "3"], ["repnum", "-", "--max-k", "2", "--budget", "30", "--timings"],
    ["repnum", "g", "--max-k", "3", "--use-automorphisms", "--use-reversal"], ["repnum", "g"], ["repnum", "-h"],
    ["repnum", "g", "--max-k", "1", "extra"],
]


@pytest.mark.parametrize("argv", PARSE_TABLE + [contract[0] for contract in ROWS],
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_main_parses_as_the_full_parser(capsys, monkeypatch, argv):
    # main() hands a leading command's arguments to that command's parser;
    # whatever it parses, prints or exits with must be what the full parser
    # does with the whole argv, whether argv is given or read from sys.argv
    parser = _build_parser()
    try:
        expected = (parser.parse_args(argv), None)
    except SystemExit as exc:
        expected = (None, int(exc.code or 0))
    expected += capsys.readouterr()
    handled = []
    for name in parser.commands:
        monkeypatch.setattr(f"wordrep.cli.cmd_{name}", lambda args: handled.append(args) or 0)
    full, parse_args = [], argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, args=None, namespace=None: full.append(args) or parse_args(self, args, namespace))
    monkeypatch.setattr("sys.argv", ["wordrep", *argv])
    for given in (argv, None):
        handled.clear()
        code = main(given)
        got = (handled[0] if handled else None, None if handled else code, *capsys.readouterr())
        if argv.count("-") > 1:
            # stdin named twice: parsed alike, then refused by main() itself
            assert got[:2] == (None, 2) and got[3].startswith("error: stdin")
        else:
            assert got == expected and code == (0 if handled else expected[1])
        if handled:
            # a parse that succeeds never reaches the full parser
            assert full == []


def test_readme_quick_tour_runs_as_written():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert attempted > 0 and failed == 0


def test_public_surface_is_pinned():
    # the API shrinks or grows only together with this list and README; each module
    # declares its own public names in its __all__, and the package joins them in module order
    import wordrep
    from wordrep import obf, words

    modules = (words, obf, graphs, constructions, search)
    assert sorted(wordrep.__all__) == [
        "ChainConditionError", "DEFAULT_BUDGET", "Graph",
        "NamingConflictError", "OccurrenceBasedFunction", "SearchOutcome", "Word",
        "apply", "cartesian_product", "check_symbol", "complete", "complete_word",
        "cube", "cube_word", "cycle", "cycle_word", "extend_uniform",
        "graph_from_edges_text", "graph_from_json", "graph_of_word",
        "graph_to_edges_text", "graph_to_json", "is_k_representable",
        "lemma1_concat", "outcome_to_json", "parse_graph", "parse_words",
        "prism_word", "product_k2_word", "product_kn_functions", "product_kn_word",
        "projection", "representation_number", "represents", "restrict", "uniformity",
    ]
    assert all(hasattr(wordrep, name) for name in wordrep.__all__)
    for module in modules:
        for name, obj in vars(module).items():
            if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                assert name in module.__all__, f"{module.__name__}.{name} is public but not in its __all__"
    declared = [name for module in modules for name in module.__all__]
    assert len(set(declared)) == len(declared), "a name is in two modules' __all__"
    assert wordrep.__all__ == declared
