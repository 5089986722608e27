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
from wordrep import (Graph, Word, cartesian_product, complete, constructions, cube, cube_word, cycle,
                     graph_from_edges_text, graph_of_word, graph_to_edges_text, graphs, outcome_to_json,
                     parse_graph, representation_number, represents, search)
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


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_cube_edges(capsys):
    code, out, _ = run(capsys, ["gen", "cube", "-k", "3"])
    assert code == 0
    assert graph_from_edges_text(out) == cube(3)
    assert len([ln for ln in out.splitlines() if ln]) == 12


def test_gen_json_format(capsys):
    code, out, _ = run(capsys, ["gen", "complete", "-n", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == ["1", "2", "3"]
    assert len(payload["edges"]) == 3


def test_gen_bad_parameter_exits_2(capsys):
    code, _, err = run(capsys, ["gen", "cycle", "-n", "2"])
    assert code == 2 and "n >= 3" in err


def test_gen_usage_error_exits_2(capsys):
    assert main(["gen", "hexagon", "-n", "6"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["gen", "complete", "-n", "1001"], ["gen", "cycle", "-n", "100000000"],
                                  ["gen", "prism", "-n", "1001"], ["construct", "prism", "-n", "100000000"],
                                  ["construct", "complete", "-n", "1001", "-k", "2"]])
def test_graph_size_above_1000_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: ") and "-n: must be at most 1000" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["construct", "complete", "-n", "2", "-k", "100000000"], "-k: must be at most 1000"),
    (["construct", "complete", "-n", "2", "-k", "0"], "-k: must be at least 1"),
    (["construct", "product-kn", "-n", "1000000"], "-n: must be at most 1000"),
    (["construct", "product-kn", "-n", "1"], "-n: must be at least 2"),
])
def test_copies_per_node_outside_their_range_are_a_usage_error(capsys, monkeypatch, argv, message):
    # a valid word on stdin, so that only the bound can fail
    code, out, err = run(capsys, argv, stdin="a b a b", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("usage: ") and message in err and "Traceback" not in err


def test_selftest_is_a_usage_error(capsys):
    # the randomized property checks live in the tests, not in the CLI
    code, out, err = run(capsys, ["selftest"])
    assert code == 2 and out == ""
    assert err.startswith("usage: ") and "invalid choice" in err and "selftest" in err


def test_graph_size_1000_is_accepted(capsys):
    code, out, _ = run(capsys, ["construct", "prism", "-n", "1000", "--verify"])
    assert code == 0 and len(out.split()) == 6000
    code, out, _ = run(capsys, ["gen", "cycle", "-n", "1000"])
    assert code == 0 and len(out.splitlines()) == 1000


def test_gen_product(capsys, tmp_path):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    code, out, _ = run(capsys, ["gen", "complete", "-n", "3"])
    a.write_text(out)
    code, out, _ = run(capsys, ["gen", "complete", "-n", "2"])
    b.write_text(out)
    code, out, _ = run(capsys, ["gen", "product", str(a), str(b)])
    assert code == 0
    g = graph_from_edges_text(out)
    assert len(g.nodes) == 6 and len(g.edges) == 9
    assert "1@1" in g.nodes


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
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == (f"error: product graph would have 9 nodes and 12 edges, above the {nodes} nodes "
                       f"of the 17-cube or the {edges} edges of the 20-cube\n")
    monkeypatch.setattr(graphs, "MAX_PRODUCT_NODES", 9)
    monkeypatch.setattr(graphs, "MAX_PRODUCT_EDGES", 12)
    code, out, _ = run(capsys, argv)
    assert code == 0 and len(out.splitlines()) == 12


def test_construct_cube_and_verify(capsys):
    code, out, _ = run(capsys, ["construct", "cube", "-k", "2", "--verify"])
    assert code == 0
    assert out.strip() == "11 00 01 10 00 11 10 01"
    code, out, _ = run(capsys, ["construct", "cube", "-k", "4", "--verify"])
    assert code == 0
    word = Word(out)
    assert len(word) == 64 and represents(word, cube(4))


def test_construct_verify_rejects_a_word_for_another_graph(capsys, monkeypatch):
    # --verify checks the word against the graph the kind names, not against
    # the word's own graph: a prism construction that returns the 6-prism's
    # word for -n 5 fails the check, and no word is printed
    monkeypatch.setattr("wordrep.cli.prism_word", lambda n: constructions.prism_word(n + 1))
    message = "verification failed: constructed word does not represent the expected graph\n"
    assert run(capsys, ["construct", "prism", "-n", "5", "--verify"]) == (1, "", message)


def test_out_of_memory_is_one_error_line_and_exit_2(capsys, monkeypatch):
    # the verification sweep is where construct cube -k 15 --verify ran out
    # of memory under a 250 MB address-space cap
    def out_of_memory(w, g):
        raise MemoryError

    monkeypatch.setattr("wordrep.cli.represents", out_of_memory)
    assert run(capsys, ["construct", "cube", "-k", "3", "--verify"]) == (2, "", "error: out of memory\n")


def test_cube_graph_above_17_is_one_error_line_before_the_word_is_built(capsys, monkeypatch):
    def no_word(k):
        raise AssertionError("the word was built")

    monkeypatch.setattr("wordrep.cli.cube_word", no_word)
    error = "error: cube graph needs k <= 17, got 18: its masks would take 8 GiB\n"
    assert run(capsys, ["gen", "cube", "-k", "18"]) == (2, "", error)
    assert run(capsys, ["construct", "cube", "-k", "18", "--verify"]) == (2, "", error)
    # without --verify no graph is built, and the word is printed
    monkeypatch.setattr("wordrep.cli.cube_word", lambda k: Word("a"))
    assert run(capsys, ["construct", "cube", "-k", "18"]) == (0, "a\n", "")


@pytest.mark.parametrize("argv", [["gen", "cube", "-k", "21"], ["construct", "cube", "-k", "1200"],
                                  ["construct", "cube", "-k", "0"]])
def test_cube_dimension_outside_1_to_20_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "-k: must be at" in err and "Traceback" not in err


def test_construct_complete(capsys):
    code, out, _ = run(capsys, ["construct", "complete", "-n", "3", "-k", "2"])
    assert code == 0 and out.strip() == "1 2 3 1 2 3"


def test_construct_product_k2_from_stdin(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["construct", "product-k2", "--verify"], stdin="1 2 1 2\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert out.strip() == "1@1 2@1 1@2 1@1 2@2 2@1 1@2 2@2 1@1 1@2 2@1 2@2"
    # names that continue each other past '@' interleave their copies in name
    # order (x@1, x@1@1, x@1@2, x@2), so the product graph is relabelled into
    # name order before the word is verified against it
    for argv in (["product-k2"], ["product-kn", "-n", "2"]):
        assert run(capsys, ["construct", *argv, "--verify"], stdin="x x@1 x x@1", monkeypatch=monkeypatch)[0] == 0


def test_construct_product_rejects_1_uniform_input(capsys, monkeypatch):
    code, _, err = run(
        capsys, ["construct", "product-k2"], stdin="1 2\n", monkeypatch=monkeypatch
    )
    assert code == 2 and "k > 1" in err


def test_construct_product_kn_round_trip(capsys, monkeypatch, tmp_path):
    code, out, _ = run(
        capsys, ["construct", "product-kn", "-n", "3", "--verify"],
        stdin="1 2 1 2\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    word_file = tmp_path / "w.txt"
    word_file.write_text(out)
    k2 = tmp_path / "k2.edges"
    k2.write_text(run(capsys, ["gen", "complete", "-n", "2"])[1])
    k3 = tmp_path / "k3.edges"
    k3.write_text(run(capsys, ["gen", "complete", "-n", "3"])[1])
    graph_file = tmp_path / "g.edges"
    graph_file.write_text(run(capsys, ["gen", "product", str(k2), str(k3)])[1])
    assert run(capsys, ["check", str(word_file), str(graph_file)])[0] == 0


def test_construct_product_kn_refuses_an_output_above_the_20_cube_word(capsys, monkeypatch):
    # the output is counted before it is built: n * m * (k+n-1) letters, at
    # most the 20-cube word's; the bound is lowered here so that a missing
    # check builds 24 letters rather than, say, the 200,200,000 of a
    # 2-uniform word on 200 nodes with -n 1000
    assert constructions.MAX_WORD_LENGTH == 20 * 2 ** 20 == 20_971_520
    argv = ["construct", "product-kn", "-n", "3"]  # 3 * 2 * (2+3-1) = 24 letters
    monkeypatch.setattr(constructions, "MAX_WORD_LENGTH", 23)
    code, out, err = run(capsys, argv, stdin="a b a b", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err == "error: product word would have 24 letters, above the 23 of the 20-cube word\n"
    monkeypatch.setattr(constructions, "MAX_WORD_LENGTH", 24)
    code, out, _ = run(capsys, argv, stdin="a b a b", monkeypatch=monkeypatch)
    assert code == 0 and len(out.split()) == 24


def test_construct_check_round_trips(capsys, tmp_path):
    # every construct subcommand piped into check against its expected graph
    cases = [
        (["construct", "cube", "-k", "3"], ["gen", "cube", "-k", "3"]),
        (["construct", "prism", "-n", "4"], ["gen", "prism", "-n", "4"]),
        (["construct", "complete", "-n", "4", "-k", "2"], ["gen", "complete", "-n", "4"]),
    ]
    for i, (construct_argv, gen_argv) in enumerate(cases):
        word_file = tmp_path / f"w{i}.txt"
        word_file.write_text(run(capsys, construct_argv)[1])
        graph_file = tmp_path / f"g{i}.edges"
        graph_file.write_text(run(capsys, gen_argv)[1])
        assert run(capsys, ["check", str(word_file), str(graph_file)])[0] == 0


def test_check_exit_codes(capsys, tmp_path):
    word_file = tmp_path / "w.txt"
    word_file.write_text("3 1 4 2 1 3 2 4\n")
    code, out, _ = run(capsys, ["gen", "cycle", "-n", "4"])
    cycle_file = tmp_path / "c4.edges"
    cycle_file.write_text(out)
    code, out, _ = run(capsys, ["gen", "complete", "-n", "4"])
    k4_file = tmp_path / "k4.edges"
    k4_file.write_text(out)

    assert run(capsys, ["check", str(word_file), str(cycle_file)])[0] == 0
    assert run(capsys, ["check", str(word_file), str(k4_file)])[0] == 1

    code, out, _ = run(capsys, ["check", str(word_file), str(k4_file), "--explain"])
    assert code == 1
    assert "{1,3}" in out and "3 1 1 3" in out


def test_explain_names_the_symbols_a_word_and_a_graph_do_not_share(capsys, tmp_path):
    # the word lacks the graph's node d and has the symbol c the graph lacks
    word_file = tmp_path / "w.txt"
    word_file.write_text("a b c a b c\n")
    graph_file = tmp_path / "g.edges"
    graph_file.write_text("a b\nb d\n")
    code, out, err = run(capsys, ["check", str(word_file), str(graph_file), "--explain"])
    assert (code, out, err) == (
        1, "graph nodes missing from the word: d; word symbols not in the graph: c\n", "")


def test_construct_product_kn_refuses_two_words(capsys, tmp_path):
    word_file = tmp_path / "w.txt"
    word_file.write_text("1 2 1 2\n1 2 2 1\n")
    code, out, err = run(capsys, ["construct", "product-kn", "-n", "3", str(word_file)])
    assert (code, out, err) == (2, "", "error: expected exactly one word, found 2\n")


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


def test_check_empty_word_input_exits_2(capsys, monkeypatch, tmp_path):
    graph_file = tmp_path / "g.edges"
    graph_file.write_text("1 2\n")
    code, _, err = run(capsys, ["check", "-", str(graph_file)], stdin="# nothing\n",
                       monkeypatch=monkeypatch)
    assert code == 2 and "no words" in err


def test_check_words_from_comments_and_multiple_lines(capsys, monkeypatch, tmp_path):
    graph_file = tmp_path / "g.edges"
    graph_file.write_text("# the 4-cycle\n1 2\n2 3\n3 4\n1 4\n")
    # the second word is the reversal of the first; reversal preserves the graph
    words = "# two representants of the same graph\n3 1 4 2 1 3 2 4\n4 2 3 1 2 4 1 3\n"
    code, _, _ = run(capsys, ["check", "-", str(graph_file)], stdin=words,
                     monkeypatch=monkeypatch)
    assert code == 0


def test_check_picks_the_graph_format_by_content_not_name(capsys, monkeypatch, tmp_path):
    word = run(capsys, ["construct", "cube", "-k", "3"])[1]
    for fmt, name in (("json", "g.edges"), ("edges", "g.json")):
        graph_file = tmp_path / name
        graph_file.write_text(run(capsys, ["gen", "cube", "-k", "3", "--format", fmt])[1])
        code, out, err = run(capsys, ["check", "-", str(graph_file)], stdin=word,
                             monkeypatch=monkeypatch)
        assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_files_read_alike_under_every_line_end(capsys, monkeypatch, tmp_path, end):
    # files are decoded as UTF-8, and CRLF and lone CR line ends read as LF, as in text mode;
    # a leading byte-order mark reads as nothing; a graph on stdin, which is read in text
    # mode, loads as its file does
    g = cartesian_product(cycle(3), complete(2))
    word = run(capsys, ["construct", "prism", "-n", "3"])[1]
    files = {"w": "# the 3-prism\n\n" + word, "g.edges": "# the 3-prism\n" + graph_to_edges_text(g),
             "g.json": graphs.graph_to_json(g)}
    for bom in ("", "\ufeff"):
        for name, text in files.items():
            (tmp_path / name).write_bytes((bom + text).replace("\n", end).encode())
        assert _read_text(str(tmp_path / "w")) == files["w"]
        for name in ("g.edges", "g.json"):
            path = str(tmp_path / name)
            assert parse_graph(_read_text(path)) == g
            assert run(capsys, ["check", str(tmp_path / "w"), path]) == (0, "", "")
            found = run(capsys, ["repnum", path, "--max-k", "3"])
            assert found[0] == 0 and "representation number: 3\n" in found[1]
            for argv, expected in ((["check", str(tmp_path / "w"), "-"], (0, "", "")),
                                   (["repnum", "-", "--max-k", "3"], found)):
                stdin = io.TextIOWrapper(io.BytesIO((tmp_path / name).read_bytes()), encoding="utf-8")
                monkeypatch.setattr("sys.stdin", stdin)
                assert run(capsys, argv) == expected


def test_malformed_json_with_crlf_ends_is_placed_as_text_mode_placed_it(capsys, tmp_path):
    # json's wording differs between Python versions, so the expected line is
    # what the running json says of the text with LF ends; it places the
    # fault elsewhere in the raw CRLF text
    crlf, lf = '{"nodes": ["a"],\r\n "edges": [["a", "b"]\r ,]}', '{"nodes": ["a"],\n "edges": [["a", "b"]\n ,]}'
    messages = []
    for text in (crlf, lf):
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text)
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    (tmp_path / "w").write_text("a b a b\n")
    (tmp_path / "g.json").write_bytes(crlf.encode())
    code, out, err = run(capsys, ["check", str(tmp_path / "w"), str(tmp_path / "g.json")])
    assert (code, out, err) == (2, "", f"error: bad graph JSON: {messages[1]}\n")


@pytest.mark.parametrize("bad", ["w", "g"])
def test_invalid_utf8_is_one_error_line_and_exit_2(capsys, tmp_path, bad):
    (tmp_path / "w").write_bytes(b"a \xff a b\n" if bad == "w" else b"a b a b\n")
    (tmp_path / "g").write_bytes(b"a \xff\n" if bad == "g" else b"a b\n")
    code, out, err = run(capsys, ["check", str(tmp_path / "w"), str(tmp_path / "g")])
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte\n"


@pytest.mark.parametrize("argv", [["check", "w.txt", "g.json"], ["repnum", "g.json", "--max-k", "1"],
                                  ["gen", "product", "g.json", "g.json"]])
def test_deeply_nested_json_graph_exits_2(capsys, monkeypatch, tmp_path, argv):
    (tmp_path / "w.txt").write_text("1 2\n")
    (tmp_path / "g.json").write_text('{"nodes": ' + "[" * 100_000 + "\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: bad graph JSON: nested too deeply\n"


@pytest.mark.parametrize("argv", [["gen", "product", "-", "-"], ["check", "-", "-"]])
def test_stdin_named_twice_is_a_usage_error(capsys, monkeypatch, argv):
    code, out, err = run(capsys, argv, stdin="1 2\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: stdin ('-') can be read only once per command\n"


@pytest.mark.parametrize("edges", ["5", "null"])
def test_non_array_json_edges_exit_2(capsys, tmp_path, edges):
    graph_file = tmp_path / "g.json"
    graph_file.write_text('{"nodes": ["1"], "edges": %s}\n' % edges)
    code, out, err = run(capsys, ["repnum", str(graph_file), "--max-k", "1"])
    assert code == 2 and out == ""
    assert "'edges' must be an array" in err


def test_repnum_finds_three_prism_number(capsys, tmp_path):
    code, out, _ = run(capsys, ["gen", "prism", "-n", "3"])
    graph_file = tmp_path / "prism.edges"
    graph_file.write_text(out)
    code, out, _ = run(capsys, ["repnum", str(graph_file), "--max-k", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    outcomes = [json.loads(ln) for ln in lines if ln.startswith("{")]
    assert [o["result"] for o in outcomes] == ["exhausted", "exhausted", "witness"]
    assert all(o["millis"] == 0 for o in outcomes)
    assert "representation number: 3" in lines
    witness = Word(outcomes[-1]["word"])
    assert represents(witness, graph_from_edges_text(graph_file.read_text()))


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
    got, out, _ = run(capsys, ["repnum", str(graph_file), "--max-k", str(max_k), "--budget", str(budget)])
    lines = out.splitlines()
    assert got == code and asked == queries
    assert len(expected) == len(queries) and lines[:len(expected)] == expected
    assert not any(ln.startswith("{") for ln in lines[len(expected):])


def test_repnum_unknown_above_bound(capsys, tmp_path):
    graph_file = tmp_path / "c4.edges"
    graph_file.write_text("1 2\n2 3\n3 4\n1 4\n")
    code, out, _ = run(capsys, ["repnum", str(graph_file), "--max-k", "1"])
    assert code == 1
    assert "unknown above k = 1" in out


@pytest.mark.parametrize("bound", ["0", "-1", "-7"])
def test_repnum_rejects_bound_below_1(capsys, tmp_path, bound):
    graph_file = tmp_path / "k2.edges"
    graph_file.write_text("1 2\n")
    code, out, err = run(capsys, ["repnum", str(graph_file), "--max-k", bound])
    assert code == 2 and out == ""
    assert "--max-k: must be at least 1" in err


def test_non_integer_bound_is_a_usage_error(capsys, tmp_path):
    graph_file = tmp_path / "k2.edges"
    graph_file.write_text("1 2\n")
    code, _, err = run(capsys, ["repnum", str(graph_file), "--max-k", "two"])
    assert code == 2 and "invalid int value: 'two'" in err


def test_repnum_resource_limit(capsys, tmp_path):
    graph_file = tmp_path / "c4.edges"
    graph_file.write_text("1 2\n2 3\n3 4\n1 4\n")
    code, out, err = run(capsys, ["repnum", str(graph_file), "--max-k", "3", "--budget", "4"])
    assert code == 2
    outcomes = [json.loads(ln) for ln in out.strip().splitlines()]
    assert outcomes[-1]["result"] == "resource-limit"
    assert err == ("error: query needs 8 word positions, above the budget of 4; "
                   "raise the budget explicitly to run it\n")


def test_repnum_deep_query_answers(capsys, tmp_path):
    # K700 plus an isolated node: k = 1 is exhausted and k = 2 needs 1,402
    # word positions, deeper than Python's default recursion limit
    code, out, _ = run(capsys, ["gen", "complete", "-n", "700"])
    graph_file = tmp_path / "k700.edges"
    graph_file.write_text("0\n" + out)
    code, out, err = run(capsys, ["repnum", str(graph_file), "--max-k", "2", "--budget", "2000"])
    assert (code, err) == (0, "")
    assert "representation number: 2" in out.splitlines()


def test_repnum_symmetry_flags(capsys, tmp_path):
    # both flags are accepted no-ops: alone or together they change no byte
    # of the output, the explored counts of exhausted k included (C4 and
    # K3xK2 exhaust k = 1, and K3xK2 k = 2 too)
    graphs = {"c4": "1 2\n2 3\n3 4\n1 4\n",
              "k3k2": "a b\nb c\na c\nA B\nB C\nA C\na A\nb B\nc C\n"}
    for name, edges in graphs.items():
        graph_file = tmp_path / f"{name}.edges"
        graph_file.write_text(edges)
        argv = ["repnum", str(graph_file), "--max-k", "3"]
        base = run(capsys, argv)
        assert base[0] == 0 and base[2] == "", name
        for flags in (["--use-automorphisms"], ["--use-reversal"],
                      ["--use-automorphisms", "--use-reversal"]):
            assert run(capsys, argv + flags) == base, (name, flags)


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_repnum_rejects_budget_below_1(capsys, tmp_path, budget):
    graph_file = tmp_path / "k2.edges"
    graph_file.write_text("1 2\n")
    code, out, err = run(capsys, ["repnum", str(graph_file), "--max-k", "1", "--budget", budget])
    assert code == 2 and out == ""
    assert "--budget: must be at least 1" in err


def test_repnum_timings_flag(capsys, tmp_path):
    graph_file = tmp_path / "k2.edges"
    graph_file.write_text("1 2\n")
    code, out, _ = run(capsys, ["repnum", str(graph_file), "--max-k", "1", "--timings"])
    assert code == 0
    outcome = json.loads(out.splitlines()[0])
    assert outcome["millis"] >= 0


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["check", "/nonexistent/w.txt", "/nonexistent/g.edges"])
    assert code == 2


def test_byte_determinism_of_gen_and_construct(capsys):
    first = run(capsys, ["gen", "cube", "-k", "3", "--format", "json"])[1]
    second = run(capsys, ["gen", "cube", "-k", "3", "--format", "json"])[1]
    assert first == second
    first = run(capsys, ["construct", "prism", "-n", "5"])[1]
    second = run(capsys, ["construct", "prism", "-n", "5"])[1]
    assert first == second


def test_parser_reuse_carries_nothing_between_calls(capsys, monkeypatch, tmp_path):
    # main() builds its parser once per process; each call in a sequence
    # must still answer as it does on a freshly built parser
    graph_file = tmp_path / "c4.edges"
    graph_file.write_text("1 2\n2 3\n3 4\n1 4\n")
    k4_file = tmp_path / "k4.edges"
    k4_file.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    word_file = tmp_path / "w.txt"
    word_file.write_text("3 1 4 2 1 3 2 4\n")
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
        return run(capsys, argv), len(verified)

    expected = [alone(argv) for argv in sequence]
    _build_parser.cache_clear()
    parser = _build_parser()
    for argv, want in zip(sequence, expected):
        verified.clear()
        assert (run(capsys, argv), len(verified)) == want, argv
    assert _build_parser() is parser
    # the pairs differ when run alone, so a carried-over flag would show
    assert expected[0] != expected[1] and expected[4] != expected[5]
    assert expected[2][0][0] == 2 and expected[3][0][0] == 1
    assert expected[6][1] == 1 and expected[7][1] == 0


PARSE_TABLE = [
    [], ["-h"], ["--help"], ["bogus"], ["selftest"], ["-h", "repnum"],
    ["--", "repnum", "g", "--max-k", "1"],
    ["gen"], ["gen", "-h"], ["gen", "hexagon", "-n", "6"], ["gen", "complete", "-n", "3"],
    ["gen", "cycle", "-n", "4", "--format", "json"], ["gen", "cube", "-k", "3"], ["gen", "cube", "-h"],
    ["gen", "prism", "-n", "3"], ["gen", "product", "a", "b", "--format", "json"], ["gen", "product", "-", "-"],
    ["gen", "complete", "-n", "3", "--bogus"],
    ["construct"], ["construct", "-h"], ["construct", "cube", "-k", "3", "--verify"],
    ["construct", "prism", "-n", "5"], ["construct", "complete", "-n", "3", "-k", "2"],
    ["construct", "product-k2"], ["construct", "product-k2", "w.txt", "--verify"],
    ["construct", "product-kn", "-n", "3", "w.txt"], ["construct", "product-kn", "-h"],
    ["check", "w", "g"], ["check", "-", "g", "--explain"], ["check", "-", "-"], ["check", "w"], ["check", "-h"],
    ["repnum", "g", "--max-k", "3"], ["repnum", "-", "--max-k", "2", "--budget", "30", "--timings"],
    ["repnum", "g", "--max-k", "3", "--use-automorphisms", "--use-reversal"], ["repnum", "g"], ["repnum", "-h"],
    ["repnum", "g", "--max-k", "1", "extra"],
    # the usage errors tested above
    ["gen", "complete", "-n", "1001"], ["gen", "cycle", "-n", "100000000"], ["gen", "prism", "-n", "1001"],
    ["construct", "prism", "-n", "100000000"], ["construct", "complete", "-n", "1001", "-k", "2"],
    ["construct", "complete", "-n", "2", "-k", "100000000"], ["construct", "complete", "-n", "2", "-k", "0"],
    ["construct", "product-kn", "-n", "1000000"], ["construct", "product-kn", "-n", "1"],
    ["gen", "cube", "-k", "21"], ["construct", "cube", "-k", "1200"], ["construct", "cube", "-k", "0"],
    ["repnum", "g", "--max-k", "0"], ["repnum", "g", "--max-k", "-1"], ["repnum", "g", "--max-k", "-7"],
    ["repnum", "g", "--max-k", "two"], ["repnum", "g", "--max-k", "1", "--budget", "0"],
    ["repnum", "g", "--max-k", "1", "--budget", "-1"],
]


@pytest.mark.parametrize("argv", PARSE_TABLE, ids=lambda argv: " ".join(argv) or "no arguments")
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
