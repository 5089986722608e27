"""The command line run as its own process, `python -m wordrep.cli`, for
what an in-process `main()` call cannot show: text passed between
processes, the entry point's exit codes, caches and lazy imports that start
empty, and refusals and running out of memory under an address-space cap."""
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

from wordrep import complete, cube, cycle, graph_to_edges_text

SRC = str(Path(__file__).resolve().parents[1] / "src")
CAP_KB = 250_000  # the 13-cube's verification fits in this address space, the 15-cube's does not


def wordrep(*args, code=0, stdin=None, capped=False, closed_stdin=False, env=None):
    """Run the CLI with ``args`` in a fresh interpreter, with ``env`` added to this one's environment,
    ``stdin`` (text or bytes) piped in or, if ``closed_stdin``, fd 0 closed and, if ``capped``, its
    address space capped at CAP_KB; check that it exits ``code``, and that an exit 2 is one error or
    usage message, not a traceback.  Returns stdout and stderr."""

    def preexec():
        # runs in the forked child before it starts Python; the suite starts no thread, so the fork is safe
        if capped:
            resource.setrlimit(resource.RLIMIT_AS, (CAP_KB * 1024, CAP_KB * 1024))
        if closed_stdin:
            os.close(0)

    # below the 60 s each test gets, so that a hung process fails its own test
    done = subprocess.run([sys.executable, "-m", "wordrep.cli", *args], capture_output=True, timeout=50,
                          input=stdin.encode() if isinstance(stdin, str) else stdin,
                          env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
                          preexec_fn=preexec if capped or closed_stdin else None)
    out, err = done.stdout.decode(), done.stderr.decode()
    assert done.returncode == code, (args, err)
    if code == 2:
        assert (err.startswith("usage: ") and "Traceback" not in err
                or err.startswith("error: ") and err.count("\n") == 1), (args, err)
    return out, err


def test_graphs_pass_between_processes_as_edge_lists_and_json(tmp_path):
    # json is imported only where a JSON graph is read or written, so only a
    # fresh process shows that a JSON graph loads it there
    prism = wordrep("gen", "prism", "-n", "3")[0]
    assert "representation number: 3\n" in wordrep("repnum", "-", "--max-k", "3", stdin=prism)[0]
    q3 = wordrep("gen", "cube", "-k", "3", "--format", "json")[0]
    assert "representation number: 3\n" in wordrep("repnum", "-", "--max-k", "3", stdin=q3)[0]
    (tmp_path / "q3.json").write_text(q3)
    word = wordrep("construct", "cube", "-k", "3")[0]
    assert wordrep("check", "-", str(tmp_path / "q3.json"), stdin=word) == ("", "")


def test_a_crlf_json_graph_on_a_stdin_pipe(tmp_path):
    (tmp_path / "w").write_text(wordrep("construct", "prism", "-n", "3")[0])
    graph = wordrep("gen", "prism", "-n", "3", "--format", "json")[0].replace("\n", "\r\n")
    assert wordrep("check", str(tmp_path / "w"), "-", stdin=graph) == ("", "")
    assert "representation number: 3\n" in wordrep("repnum", "-", "--max-k", "3", stdin=graph)[0]


def test_the_entry_point_exits_2_with_a_usage_line_for_no_or_an_unknown_command():
    for args in ((), ("bogus",)):
        assert wordrep(*args, code=2)[1].startswith("usage: ")
    assert wordrep("repnum", "-h")[0].startswith("usage: wordrep repnum ")


def test_searches_from_empty_caches_explore_their_pinned_counts():
    # Q4 exhausts k = 2 and C12 finds a witness there, each with the triple
    # memo and the lex-leader cut's cache starting empty in a new process
    out = wordrep("repnum", "-", "--max-k", "2", "--budget", "32", code=1, stdin=graph_to_edges_text(cube(4)))[0]
    r = json.loads(out.splitlines()[1])
    assert (r["k"], r["result"], r["explored"]) == (2, "exhausted", 5377)
    out = wordrep("repnum", "-", "--max-k", "2", stdin=graph_to_edges_text(cycle(12)))[0]
    r = json.loads(out.splitlines()[1])
    assert (r["k"], r["result"], r["explored"]) == (2, "witness", 3435)


def test_a_1500_node_graph_with_one_edge_answers_within_the_timeout():
    # 3,000 word positions; its 1,498 triples are each read off the masks of
    # their first two nodes, where walking all n^3 triples ran past 60 s
    graph = "v0 v1\n" + "".join(f"v{i}\n" for i in range(2, 1500))
    out = wordrep("repnum", "-", "--max-k", "2", "--budget", "3000", stdin=graph)[0]
    assert "representation number: 2\n" in out


def test_outputs_above_their_bounds_are_refused_before_they_are_built(tmp_path):
    # under the cap, building any of them would end in "error: out of memory"
    word = " ".join(f"v{i}" for i in range(200))
    _, err = wordrep("construct", "product-kn", "-n", "1000", code=2, stdin=f"{word} {word}", capped=True)
    assert err.startswith("error: product word would have 200,200,000 letters, above ")
    for name, g, size in [("k300", complete(300), "90,000 nodes and 26,910,000 edges"),
                          ("q9", cube(9), "262,144 nodes and 2,359,296 edges")]:
        (tmp_path / name).write_text(graph_to_edges_text(g))
        _, err = wordrep("gen", "product", str(tmp_path / name), str(tmp_path / name), code=2, capped=True)
        assert err.startswith(f"error: product graph would have {size}, above ")
    for args in (("gen", "cube", "-k", "18"), ("construct", "cube", "-k", "18", "--verify")):
        assert wordrep(*args, code=2, capped=True)[1].startswith("error: cube graph needs k <= 17, got 18: ")


def test_running_out_of_memory_is_one_error_line():
    assert wordrep("construct", "cube", "-k", "15", "--verify", code=2, capped=True)[1] == "error: out of memory\n"
    assert len(wordrep("construct", "cube", "-k", "13", "--verify", capped=True)[0].split()) == 13 * 2 ** 13


def test_stdin_is_decoded_as_a_file_is_under_any_locale_encoding(tmp_path):
    # stdin's bytes are decoded from UTF-8 in one piece, as a file's are, so an invalid byte is the
    # same error line from both, whatever encoding the environment gives stdin's text layer
    word, graph, latin1_graph, xff_word = (str(tmp_path / name) for name in ("w", "g", "g.latin1", "w.xff"))
    Path(word).write_text("a b a b\n")
    Path(graph).write_text("a b\n")
    Path(latin1_graph).write_bytes(b"# caf\xe9\na b\n")
    Path(xff_word).write_bytes(b"a \xff a b\n")
    for env in (None, {"PYTHONIOENCODING": "latin-1"}):
        for args, bad in [(["check", word, "-"], latin1_graph), (["repnum", "-", "--max-k", "1"], latin1_graph),
                          (["check", "-", graph], xff_word)]:
            from_file = wordrep(*(bad if a == "-" else a for a in args), code=2, env=env)
            piped = wordrep(*args, code=2, stdin=Path(bad).read_bytes(), env=env)
            assert piped == from_file, (env, args)
            assert from_file[1].startswith("error: 'utf-8' codec can't decode byte "), (env, args)


def test_a_closed_stdin_is_one_error_line(tmp_path):
    # started with fd 0 closed, Python sets sys.stdin to None; a command that names '-', or whose word
    # defaults to it, says so in one line and exits 2
    (tmp_path / "g").write_text("a b\n")
    for args in (["check", "-", str(tmp_path / "g")], ["repnum", "-", "--max-k", "1"], ["construct", "product-k2"]):
        assert wordrep(*args, code=2, closed_stdin=True) == ("", "error: stdin ('-') is closed\n"), args
