import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gphom import spectral
from gphom.cli import MAX_BUILTIN_SIZE, load_graph, run
from gphom.errors import InvalidInput
from gphom.graphs import (Arc, EMPTY, Graph, GraphMorphism, cross_graph,
                          cycle_graph, graph_to_json, morphism_to_json,
                          identity, undirected_cycle)
from gphom.homotopy import builtin_family
from gphom.model import (cycle_fold, cycle_projection, initial_to_cycle,
                         source_inclusion)

from conftest import count_calls


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, G):
    path = tmp_path / name
    path.write_text(json.dumps(graph_to_json(G)))
    return str(path)


def test_load_graph_builtins():
    assert load_graph("cross") == cross_graph()
    assert load_graph("uc4") == undirected_cycle(4)
    assert load_graph("cycle:3") == cycle_graph(3)
    with pytest.raises(InvalidInput):
        load_graph("cycle:x")


def test_every_builtin_family_name_loads_to_an_equal_graph():
    # homotopy.builtin_family and cli.load_graph each spell the builtin names
    family = builtin_family(6, 16)
    assert {name.partition(":")[0] for name, _ in family} == {
        "cycle", "ucycle", "uc4", "path", "figure-eight", "cross"}
    for name, G in family:
        assert load_graph(name) == G, name


def test_homotopy_eq_cross_uc4(capsys, tmp_path):
    a = write_graph(tmp_path, "cross.json", cross_graph())
    b = write_graph(tmp_path, "uc4.json", undirected_cycle(4))
    code, out, _ = invoke(capsys, "homotopy-eq", a, b)
    assert code == 0
    assert "HOMOTOPY-EQUIVALENT" in out
    assert out.count("1 - 4*u^2") == 2


def test_homotopy_eq_negative_exit_code(capsys):
    code, out, _ = invoke(capsys, "homotopy-eq", "cycle:2", "cycle:3")
    assert code == 1
    assert "NOT-HOMOTOPY-EQUIVALENT" in out


def test_polynomials_computed_once_per_graph(capsys, monkeypatch):
    dets = count_calls(monkeypatch, spectral, "_det")
    berkowitz = count_calls(monkeypatch, spectral, "_berkowitz")
    code, out, _ = invoke(capsys, "charpoly", "cross", "--json")
    assert code == 0 and len(dets) == 1
    assert json.loads(out)["reversed"] == [1, 0, -4]
    # cross is a bouquet of four 2-cycles, contracted without Berkowitz
    assert berkowitz == []
    dets.clear()
    walks = count_calls(monkeypatch, spectral, "closed_walk_counts")
    code, out, _ = invoke(capsys, "homotopy-eq", "cross", "uc4")
    assert code == 0 and out.count("1 - 4*u^2") == 2
    assert len(dets) == 2
    # uc4 has no node with one arc in: its one block goes to Berkowitz
    assert list(map(len, berkowitz)) == [4]
    # the decision compares the two polynomials and counts no walks
    assert walks == []


def test_long_cycle_census_zeta_and_homotopy_eq(capsys):
    """cycle:10000 at the default order 20000, against the closed forms of
    det(I - uA) = 1 - u^k: c_n = k [k | n] and Z = 1/(1 - u^k).  Read off
    the polynomial, each takes a fraction of a second; the time bound
    catches a census quadratic in the cycle's length."""
    k = 10000
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "census", f"cycle:{k}")
    assert (code, out) == (0, "".join(f"{n}\t{k if n % k == 0 else 0}\n"
                                      for n in range(1, 2 * k + 1)))
    code, out, _ = invoke(capsys, "zeta", f"cycle:{k}")
    assert (code, out) == (0, f"denominator: 1 - u^{k}\ncoefficients: " +
                           ", ".join(str(int(n % k == 0)) for n in range(2 * k + 1)) +
                           "\n")
    code, out, _ = invoke(capsys, "homotopy-eq", f"cycle:{k}", f"path:{k - 1}")
    assert code == 1 and out.startswith("NOT-HOMOTOPY-EQUIVALENT\n")
    assert time.perf_counter() - start < 10.0


def test_graph_commands_build_no_dense_matrix(capsys, monkeypatch):
    dense = count_calls(monkeypatch, spectral, "adjacency_matrix")
    for argv in (["charpoly", "cross"], ["charpoly", "path:3000", "--json"],
                 ["homotopy-eq", "cross", "uc4"], ["witt", "cross"],
                 ["witt", "path:3000", "--upto", "3"]):
        code, _, _ = invoke(capsys, *argv)
        assert code == 0
    assert dense == []


def test_census_cross(capsys):
    code, out, _ = invoke(capsys, "census", "cross", "--upto", "6")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert [r[1] for r in rows] == ["0", "8", "0", "32", "0", "128"]
    counts = [0, 8, 0, 32, 0, 128, 0, 512, 0, 2048]
    code, out, _ = invoke(capsys, "census", "cross")
    assert (code, out) == (0, "".join(f"{n}\t{c}\n" for n, c in
                                      enumerate(counts, start=1)))
    code, out, _ = invoke(capsys, "census", "cross", "--json")
    assert (code, out) == (0, '{\n  "counts": [\n' +
                           ",\n".join(f"    {c}" for c in counts) +
                           '\n  ],\n  "upto": 10\n}\n')


def test_charpoly_empty(capsys):
    code, out, _ = invoke(capsys, "charpoly", "empty")
    assert code == 0
    assert out.strip() == "1"


def test_witt_json(capsys):
    code, out, _ = invoke(capsys, "witt", "figure-eight", "--upto", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"ghost": [2, 4, 8, 16, 32, 64],
                    "witt": [2, 1, 2, 3, 6, 9], "upto": 6}


def test_zeta_json(capsys):
    code, out, _ = invoke(capsys, "zeta", "cross", "--upto", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, 0, 4, 0, 16, 0, 64, 0, 256]
    assert data["denominator"] == [1, 0, -4]


def test_classify(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(morphism_to_json(source_inclusion())))
    code, out, _ = invoke(capsys, "classify", str(path), "--json")
    assert code == 0
    flags = json.loads(out)["flags"]
    assert flags["whiskering"] is True
    assert flags["surjecting"] is False


def write_morphisms(directory, **legs) -> dict[str, str]:
    """Write each morphism to <name>.json; returns the paths by name."""
    files = {}
    for name, f in legs.items():
        p = directory / f"{name}.json"
        p.write_text(json.dumps(morphism_to_json(f)))
        files[name] = str(p)
    return files


def test_lift_no_lift(capsys, tmp_path):
    from gphom.graphs import EMPTY, GraphMorphism
    from gphom.model import cycle_projection, initial_to_cycle
    files = {}
    legs = {
        "left": initial_to_cycle(1),
        "right": cycle_projection(1, 2),
        "top": GraphMorphism(EMPTY, cycle_graph(2), {}, {}),
        "bottom": identity(cycle_graph(1)),
    }
    for name, f in legs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(morphism_to_json(f)))
        files[name] = str(p)
    code, out, _ = invoke(capsys, "lift", files["left"], files["right"],
                          files["top"], files["bottom"])
    assert code == 1
    assert "NO-LIFT" in out


def test_lift_deeper_than_recursion_limit(capsys, tmp_path):
    # i_n: 0 -> C_n against C_n -> C_1, ids zero-padded so that the JSON's
    # sorted arc order is the cycle's order
    n = 1500
    ids = [f"{i:04d}" for i in range(n)]
    C = Graph(tuple(ids), tuple(Arc(ids[i], ids[(i + 1) % n], ids[i])
                                for i in range(n)))
    to_loop = GraphMorphism(C, cycle_graph(1), dict.fromkeys(ids, "0"),
                            dict.fromkeys(ids, "0"))
    files = write_morphisms(tmp_path, left=GraphMorphism(EMPTY, C, {}, {}),
                            right=to_loop, top=GraphMorphism(EMPTY, C, {}, {}),
                            bottom=to_loop)
    code, out, err = invoke(capsys, "lift", files["left"], files["right"],
                            files["top"], files["bottom"])
    assert (code, err) == (0, "")
    assert json.loads(out) == morphism_to_json(identity(C))


def test_lift_found(capsys, tmp_path):
    f = identity(cycle_graph(2))
    files = []
    for name in ("l", "r", "t", "b"):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(morphism_to_json(f)))
        files.append(str(p))
    code, out, _ = invoke(capsys, "lift", *files)
    assert code == 0
    assert json.loads(out)["node_map"] == {"0": "0", "1": "1"}


def test_cofibrant_replace(capsys):
    code, out, _ = invoke(capsys, "cofibrant-replace", "figure-eight",
                          "--upto", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["necklaces"] == {"1": "2", "2": "1"} or \
        data["necklaces"] == {"1": 2, "2": 1}


def test_cofibrant_replace_output_pinned(capsys):
    # sha256 of stdout; any change to a representative or its order shows
    pins = {(): "b70fc674ca9a6854575fa45a047e2e4df7178bb296e5366bd25d78b6190fe727",
            ("--json",): "c42b4a0f5c491cc41d54a54e83483e9b359a22a52f6392953ca064b18fc4e1e4"}
    for flags, digest in pins.items():
        code, out, _ = invoke(capsys, "cofibrant-replace", "cross", "--upto", "6",
                              *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_large_graph_output_pinned(capsys):
    # sha256 of stdout, as computed by the unpacked kernels
    pins = {("charpoly", "cycle:300"):
            "bc0ea14cb5bd47c69ba76683d9070de0304bab686253c76f1f001666d1dd4ecb",
            ("census", "cycle:200"):
            "2325f3c97dfbb552eb12cecff4570d73bc9f8d180be874ac1e47f4b31d9bd9f8"}
    for argv, digest in pins.items():
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cofibrant_replace_deeper_than_recursion_limit(capsys):
    # 20000: one necklace search to depth N, about N steps of the budget
    for N in (sys.getrecursionlimit() + 100, 20000):
        code, out, _ = invoke(capsys, "cofibrant-replace", "cycle:1", "--upto", str(N))
        assert code == 0
        rows = out.splitlines()[1:N + 1]
        assert rows == ["1\t1"] + [f"{n}\t0" for n in range(2, N + 1)]


def test_cofibrant_replace_too_large_is_refused(capsys):
    # sum n*s_n is about 2.9 * 10^12 nodes: over the budget before any search
    code, out, err = invoke(capsys, "cofibrant-replace", "cross", "--upto", "40")
    assert code == 3 and out == ""
    assert "budget" in err


def test_oversized_builtin_exit_code(capsys, monkeypatch):
    with pytest.raises(InvalidInput, match="exceeds the limit"):
        load_graph(f"cycle:{MAX_BUILTIN_SIZE + 1}")
    # the boundary and the exit code, at a small limit
    monkeypatch.setattr("gphom.cli.MAX_BUILTIN_SIZE", 3)
    for name in ("cycle", "path", "ucycle"):
        assert len(load_graph(f"{name}:3").nodes) >= 3
        big = f"{name}:4"
        for argv in (["census", big], ["charpoly", big], ["zeta", big],
                     ["witt", big], ["cofibrant-replace", big],
                     ["homotopy-eq", big, "cross"],
                     ["homotopy-eq", "cross", big]):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1


def test_explore_cli(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "explore", "--nodes", "5", "--arcs", "16",
                          "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    found = False
    for bucket in report["buckets"]:
        names = {m["name"] for m in bucket["members"]}
        if {"cross", "uc4"} <= names:
            found = True
            assert any(set(p) == {"cross", "uc4"}
                       for p in bucket["nonisomorphic_pairs"])
    assert found


def test_explore_exhaustive_output_pinned(capsys):
    # digest of the output when every pair in a bucket is tested
    code, out, _ = invoke(capsys, "explore", "--exhaustive", "--json",
                          "--nodes", "4", "--arcs", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "4e6a3a96da44e461d00c3302752917d506578699f1f07b4bf99f8abc8b94eb7f"


def test_explore_exhaustive_text_and_report_pinned(capsys, tmp_path):
    # sha256 of the text output and of the --out file; --out adds one line
    argv = ("explore", "--exhaustive", "--nodes", "4", "--arcs", "3")
    code, text, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "90cc0c3a05edfe219ae5df7eac976962618974aebacc666247c111a197c18b39"
    report = tmp_path / "report.json"
    code, out, _ = invoke(capsys, *argv, "--out", str(report))
    assert code == 0 and out == text + f"report written to {report}\n"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        "987ef8fa30c126aeb6daab70d1462f08e4c2aa2559fbff1a5c5b86b0af1150ba"


def test_nset_zset_commands(capsys, tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(
        {"elements": ["0", "1", "2"],
         "sigma": {"0": "1", "1": "2", "2": "0"}}))
    code, out, _ = invoke(capsys, "zset", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["fibrant"] and data["cofibrant"] and data["elements"] == 3

    taproot = tmp_path / "taproot.json"
    taproot.write_text(json.dumps(
        {"elements": ["a", "b"], "sigma": {"a": "b", "b": "b"}}))
    code, out, _ = invoke(capsys, "zset", str(taproot))
    assert code == 2
    code, out, _ = invoke(capsys, "nset", str(taproot), "--json")
    assert code == 0
    assert json.loads(out)["fibrant"] is False


def test_malformed_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = invoke(capsys, "charpoly", str(bad))
    assert code == 2
    assert "malformed JSON" in err

    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"nodes": [], "arcs": [], "zzz": 1}))
    code, _, err = invoke(capsys, "charpoly", str(extra))
    assert code == 2


def test_budget_exit_code(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(morphism_to_json(cycle_fold(4))))
    code, _, err = invoke(capsys, "classify", str(path), "--upto", "6",
                          "--budget", "10")
    assert code == 3
    assert "budget" in err


def test_budget_error_names_the_search(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(morphism_to_json(cycle_fold(4))))
    code, out, err = invoke(capsys, "classify", str(path), "--upto", "6",
                            "--budget", "10")
    assert (code, out) == (3, "")
    assert err == ("error: search budget of 10 exceeded in the acyclicity "
                   "pullback, which needs at least 32\n")


@pytest.mark.parametrize("env, flag, message", [
    ("abc", None, "GPHOM_BUDGET must be an integer"),
    ("-1", None, "GPHOM_BUDGET must be >= 0"),
    (None, "-5", "--budget must be >= 0"),
])
def test_bad_budget_exit_code(capsys, monkeypatch, env, flag, message):
    if env is None:
        monkeypatch.delenv("GPHOM_BUDGET", raising=False)
    else:
        monkeypatch.setenv("GPHOM_BUDGET", env)
    argv = ["census", "cross"] + (["--budget", flag] if flag else [])
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("census", "cross", "--upto", "-3"),
    ("witt", "cross", "--upto", "-3"),
    ("zeta", "cross", "--upto", "-1"),
    ("cofibrant-replace", "cross", "--upto", "0"),
    ("explore", "--nodes", "-1", "--arcs", "2"),
    ("explore", "--nodes", "2", "--arcs", "-1"),
])
def test_bad_bound_exit_code(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


_FILE_ARGS = {"lift": 4, "homotopy-eq": 2}


@pytest.mark.parametrize("argv, code", [
    ((command,) + (path,) * _FILE_ARGS.get(command, 1), 2)
    for command in ("charpoly", "zeta", "census", "witt", "cofibrant-replace",
                    "classify", "lift", "homotopy-eq", "nset", "zset")
    for path in ("missing.json", "malformed.json")
] + [
    # top and bottom swapped: the square's endpoints do not match
    (("lift", "left.json", "right.json", "bottom.json", "top.json"), 2),
    (("lift", "left.json", "right.json", "top.json", "bottom.json",
      "--budget", "0"), 3),
    (("classify", "s.json", "--budget", "0"), 3),
    (("cofibrant-replace", "cross", "--budget", "0"), 3),
    (("explore", "--nodes", "2", "--arcs", "2", "--budget", "0"), 3),
    (("classify", "s.json", "--upto", "0"), 2),
    (("census", "cycle:0"), 2),
    # a row's length is spent on the budget before the row is computed
    (("census", "cycle:1", "--upto", "100000000"), 3),
    (("witt", "cross", "--budget", "5"), 3),
    (("classify", "badmap.json"), 2),
    (("nset", "badnset.json"), 2),
    (("charpoly", "notutf8.json"), 2),
    (("charpoly", "nested.json"), 2),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
def test_error_contract(capsys, monkeypatch, tmp_path, argv, code):
    # one error line on stderr, nothing on stdout, and the exit code
    (tmp_path / "malformed.json").write_text("{not json")
    (tmp_path / "notutf8.json").write_bytes(b'\xff\xfe{"nodes": [], "arcs": []}')
    (tmp_path / "nested.json").write_text("[" * 200_000)
    badmap = morphism_to_json(identity(cycle_graph(2)))
    badmap["node_map"] = {"0": 0, "1": 1}
    (tmp_path / "badmap.json").write_text(json.dumps(badmap))
    (tmp_path / "badnset.json").write_text('{"elements": "ab", "sigma": {}}')
    # the square of test_lift_no_lift, which needs a search
    write_morphisms(tmp_path, left=initial_to_cycle(1),
                    right=cycle_projection(1, 2),
                    top=GraphMorphism(EMPTY, cycle_graph(2), {}, {}),
                    bottom=identity(cycle_graph(1)), s=source_inclusion())
    monkeypatch.chdir(tmp_path)
    got, out, err = invoke(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# The exit-code contract under fuzzing: seeded mutations of argument lists
# and input files, run in-process

_HUGE = {"@huge@": "9" * 5000, "@neghuge@": "-" + "9" * 5000, "@inf@": "1e999"}
_WRONG = [None, True, -1, 0, 1.5, "", "x", [], {}, [[]], {"": None}, *_HUGE]


def _paths(doc, path=()):
    """Every position in a JSON document, as a path of keys and indices."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated_json(rnd: random.Random, doc) -> bytes:
    """doc as JSON text with one fault: a value of a wrong type, a dropped
    entry, the text cut short, buried in nesting, or bytes not UTF-8."""
    text = json.dumps(doc)
    kind = rnd.choice(("value", "value", "drop", "truncate", "nest", "bytes"))
    if kind == "truncate":
        return text[:rnd.randrange(len(text))].encode()
    if kind == "nest":
        depth = rnd.choice((50, 5000, 200_000))
        return ("[" * depth + text + "]" * depth * rnd.randrange(2)).encode()
    if kind == "bytes":
        cut = rnd.randrange(len(text) + 1)
        return text[:cut].encode() + rnd.choice((b"\xff", b"\xc3", b"\xed\xa0\x80")) + \
            text[cut:].encode()
    doc = json.loads(text)
    path = rnd.choice(list(_paths(doc))[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = rnd.choice(_WRONG)
    text = json.dumps(doc)
    for token, raw in _HUGE.items():
        text = text.replace(json.dumps(token), raw)
    return text.encode()


_FUZZ_COMMANDS = {   # the arguments of each command, by kind
    "charpoly": ("graph",), "zeta": ("graph",), "census": ("graph",),
    "witt": ("graph",), "cofibrant-replace": ("graph",),
    "classify": ("morphism",), "lift": ("left", "right", "top", "bottom"),
    "homotopy-eq": ("graph", "graph"), "explore": (),
    "nset": ("nset",), "zset": ("zset",),
}
_ROWS = ("zeta", "census", "witt", "cofibrant-replace", "classify")


def test_exit_codes_under_fuzzing(capsys, tmp_path):
    """200 seeded cases, each one fault in a valid command: a --upto,
    --budget or --nodes value missing, huge, negative or not a number, or
    an input file mutated.  The budget is small, so a huge row exits 3 at
    once.  Every case must end within a bound with exit code 0, 1, 2 or 3
    and no traceback; argparse's SystemExit code counts as the exit code."""
    docs = {"graph": graph_to_json(cross_graph()),
            "morphism": morphism_to_json(cycle_projection(2, 1)),
            "left": morphism_to_json(initial_to_cycle(1)),
            "right": morphism_to_json(cycle_projection(1, 2)),
            "top": morphism_to_json(GraphMorphism(EMPTY, cycle_graph(2), {}, {})),
            "bottom": morphism_to_json(identity(cycle_graph(1))),
            "nset": {"elements": ["a", "b", "c"], "sigma": {"a": "b", "b": "a", "c": "a"}},
            "zset": {"elements": ["a", "b"], "sigma": {"a": "b", "b": "a"}}}
    for kind, doc in docs.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps(doc))
    rnd = random.Random(29)
    codes = set()
    for case in range(200):
        command = list(_FUZZ_COMMANDS)[case % len(_FUZZ_COMMANDS)]
        kinds = _FUZZ_COMMANDS[command]
        argv = [command] + [str(tmp_path / f"{kind}.json") if kind != "graph" else
                            rnd.choice(("figure-eight", "uc4", "cycle:3", "path:2",
                                        "empty", str(tmp_path / "graph.json")))
                            for kind in kinds]
        flags = {"--budget": str(rnd.choice((0, 10, 1000, 20000)))}
        if command in _ROWS:
            flags["--upto"] = str(rnd.randint(0, 8))
        if command == "explore":
            flags.update({"--nodes": "2", "--arcs": "2"})
            argv += ["--exhaustive"] * rnd.randrange(2)
        argv += ["--json"] * rnd.randrange(2)
        fault = rnd.choice(("none", "flag", "flag") + ("file", "file") * bool(kinds))
        if fault == "file":
            i = rnd.randrange(len(kinds))
            path = tmp_path / f"case{case}.json"
            path.write_bytes(_mutated_json(rnd, docs[kinds[i]]))
            argv[1 + i] = str(path)
        elif fault == "flag":   # one of the command's flags, or one it lacks
            flag = rnd.choice([*flags, "--upto", "--nodes"])
            value = rnd.choice((None, "9" * 30, "1" + "0" * 5000, "-7", "-1",
                                "x", "1.5", "", "0x10", "1e3"))
            flags.pop(flag, None)
        for other, v in flags.items():
            argv += [other, v]
        if fault == "flag":
            argv += [flag] if value is None else [flag, value]
        start = time.perf_counter()
        try:
            code = run(argv)
        except SystemExit as e:
            code = e.code
        elapsed = time.perf_counter() - start
        _, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        assert elapsed < 5.0, argv
        codes.add(code)
    assert codes == {0, 1, 2, 3}


def test_census_prints_counts_past_the_int_digit_limit(capsys, tmp_path):
    # c_1434 of a node with 1,000 loops is 1000**1434 = 10**4302, 4,303
    # digits; written out here, as str() of it is refused past 4,300 digits
    loops = Graph(("0",), tuple(Arc(f"a{i}", "0", "0") for i in range(1000)))
    path = write_graph(tmp_path, "loops.json", loops)
    digits = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, "census", path, "--upto", "1434")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "1434\t1" + "0" * 4302
    assert sys.get_int_max_str_digits() == digits


def assert_closed_stdout_ends_quietly(argv, first_line: bytes):
    """Read the first line, which starts with `first_line`, then close."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "gphom.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    # far more output than a pipe buffers, so writing must meet the close
    assert proc.stdout.readline().startswith(first_line)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_closed_stdout_ends_quietly():
    assert_closed_stdout_ends_quietly(
        ["census", "cycle:1", "--upto", "100000"], b"1\t1\n")


def test_closed_stdout_ends_quietly_on_witt():
    # about 300 kB of output, from a table with a header line
    assert_closed_stdout_ends_quietly(
        ["witt", "figure-eight", "--upto", "1000"], b"n\tc_n\ts_n\n")


def test_closed_stdout_ends_quietly_on_zeta():
    # about 220 kB of output, nearly all of it on the second line
    assert_closed_stdout_ends_quietly(
        ["zeta", "figure-eight", "--upto", "1200"], b"denominator: 1 - 2*u\n")


def test_closed_stdout_ends_quietly_on_cofibrant_replace():
    # about 570 kB of output, nearly all of it the replacement's JSON line
    assert_closed_stdout_ends_quietly(
        ["cofibrant-replace", "ucycle:3", "--upto", "12"], b"n\ts_n\n")


def test_closed_stdout_ends_quietly_on_explore():
    # about 2.5 MB of output, over 300 kB of it on the first line
    assert_closed_stdout_ends_quietly(
        ["explore", "--nodes", "3", "--arcs", "5", "--exhaustive"], b"1: g0, ")


def test_budget_from_environment(capsys, monkeypatch, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(morphism_to_json(cycle_fold(4))))
    monkeypatch.setenv("GPHOM_BUDGET", "10")
    code, _, err = invoke(capsys, "classify", str(path), "--upto", "6")
    assert code == 3 and "budget" in err
    code, _, _ = invoke(capsys, "classify", str(path), "--upto", "6",
                        "--budget", "100")
    assert code == 0


def test_explore_unwritable_out(capsys, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = invoke(capsys, "explore", "--nodes", "2", "--arcs", "2",
                            "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_deterministic_output(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = invoke(capsys, "witt", "cross", "--upto", "8", "--json")
        runs.append(out)
    assert runs[0] == runs[1]


def loaded_modules(code: str) -> list[str]:
    """The gphom modules a fresh interpreter holds after running `code`, and
    dataclasses and inspect if it holds them, which no gphom module needs:
    importing them costs every process milliseconds."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import json, sys\n" + code + "\nprint(json.dumps(sorted(m for m in "
             "sys.modules if m.startswith('gphom') or "
             "m in ('dataclasses', 'inspect'))), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def test_import_gphom_loads_no_submodule():
    assert loaded_modules("import gphom") == ["gphom"]


def test_importing_every_submodule_loads_neither_dataclasses_nor_inspect():
    modules = ["gphom"] + [f"gphom.{m}" for m in (
        "cli", "dynamics", "errors", "graphs", "homotopy", "model", "spectral", "witt")]
    assert loaded_modules("import " + ", ".join(modules)) == modules


# what each subcommand loads besides gphom, gphom.cli, gphom.errors and
# gphom.graphs
COMMAND_MODULES = {
    "charpoly": ["spectral"],
    "zeta": ["spectral"],
    "census": ["spectral"],
    "witt": ["spectral", "witt"],
    "homotopy-eq": ["spectral", "witt", "homotopy"],
    "explore": ["spectral", "witt", "homotopy"],
    "cofibrant-replace": ["spectral", "witt", "model"],
    "classify": ["spectral", "witt", "model"],
    "lift": ["spectral", "witt", "model"],
    "nset": ["dynamics"],
    "zset": ["dynamics"],
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_imports_only_what_it_runs(tmp_path, command):
    dot = tmp_path / "dot.json"
    dot.write_text(json.dumps(morphism_to_json(identity(cycle_graph(1)))))
    nset = tmp_path / "nset.json"
    nset.write_text(json.dumps({"elements": ["a", "b"],
                                "sigma": {"a": "b", "b": "a"}}))
    argv = {
        "homotopy-eq": ["cross", "uc4"],
        "explore": ["--nodes", "2", "--arcs", "2"],
        "classify": [str(dot)],
        "lift": [str(dot)] * 4,
        "nset": [str(nset)],
        "zset": [str(nset)],
    }.get(command, ["cross"])
    code = f"import gphom.cli\nassert gphom.cli.run({[command, *argv]!r}) == 0"
    expected = ["cli", "errors", "graphs", *COMMAND_MODULES[command]]
    assert loaded_modules(code) == sorted(["gphom"] + [f"gphom.{m}" for m in expected])
