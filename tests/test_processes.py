"""The command line run as its own process, `python -m wordrep.cli`, for
what an in-process `main()` call cannot show: text passed between
processes, the entry point's exit codes, caches and lazy imports that start
empty, and refusals and running out of memory under an address-space cap."""
import json
import os
import subprocess
import sys
from pathlib import Path

from wordrep import complete, cube, cycle, graph_to_edges_text

SRC = str(Path(__file__).resolve().parents[1] / "src")
CAP_KB = 250_000  # the 13-cube's verification fits in this address space, the 15-cube's does not


def wordrep(*args, code=0, stdin=None, capped=False):
    """Run the CLI with ``args`` in a fresh interpreter, ``stdin`` piped in and, if ``capped``, its
    address space capped at CAP_KB; check that it exits ``code``, and that an exit 2 is one
    error or usage message, not a traceback.  Returns stdout and stderr."""
    argv = [sys.executable, "-m", "wordrep.cli", *args]
    if capped:
        argv = ["bash", "-c", 'ulimit -v "$0" && exec "$@"', str(CAP_KB), *argv]
    # below the 60 s each test gets, so that a hung process fails its own test
    done = subprocess.run(argv, input=stdin, capture_output=True, text=True, timeout=50,
                          env={**os.environ, "PYTHONPATH": SRC})
    out, err = done.stdout, done.stderr
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
