"""Tests of the benchmark itself: its oracles, its checks and its contract.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import specs as sp  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def gp():
    return run.import_gphom()


def corrupt(d):
    """The same digest with its first number, flag or id changed."""
    if d is None:
        return {}
    if isinstance(d, bool):
        return not d
    if isinstance(d, int):
        return d + 1
    if isinstance(d, str):
        return d + "x"
    if isinstance(d, dict):
        key = next(iter(d), None)
        return {**d, key: corrupt(d[key])} if key is not None else {"x": "x"}
    if isinstance(d, tuple) and d:
        items = list(d)
        for i, x in enumerate(items):
            if x not in ((), {}, None) or i == len(items) - 1:
                items[i] = corrupt(x)
                break
        return type(d)(*items) if hasattr(d, "_fields") else tuple(items)
    return ("corrupt",)


def flagged(op, digest) -> bool:
    try:
        return not op.check(digest)
    except Exception:
        return True


def first_of_each_kind(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


@pytest.mark.parametrize("name", ["invariants", "explore", "search"])
def test_checks_accept_outputs_and_flag_corrupted_ones(gp, name):
    passes = run.build_passes(name, gp, seed=7)
    ops = first_of_each_kind(passes[0])
    if name == "invariants":   # keep the test quick: skip the k = 80 graph
        ops = [op for op in passes[0] if op.size <= 16]
        ops = first_of_each_kind(ops)
    for op in ops:
        digest = op.digest(op.run(tracing.NULL))
        assert op.check(digest), op.kind
        assert flagged(op, corrupt(digest)), op.kind


def test_every_search_kind_is_covered(gp):
    kinds = {op.kind for op in run.build_passes("search", gp, seed=7)[0]}
    assert kinds == {"model.is_acyclic_bounded", "model.cofibrant_replacement",
                     "model.find_lift", "model.factorize_bounded",
                     "graphs.enumerate_morphisms", "graphs.is_isomorphic",
                     "graphs.product", "graphs.pushout", "dynamics.classify_nset_map",
                     "dynamics.cayley_graph", "dynamics.graph_to_nset"}


def test_found_and_missing_lifts_are_both_checked(gp):
    ops = [op for p in run.build_passes("search", gp, seed=3) for op in p
           if op.kind == "model.find_lift"]
    digests = [op.digest(op.run(tracing.NULL)) for op in ops]
    assert any(d is None for d in digests) and any(d is not None for d in digests)
    for op, d in zip(ops, digests):
        assert op.check(d)
        assert flagged(op, corrupt(d))


def test_cli_output_checked_against_library(gp, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    ops = run.build_passes("cli", gp, seed=5)[0]
    op = next(op for op in ops if op.kind == "cli.charpoly")
    rc, out = op.digest(op.run(tracing.NULL))
    assert op.check((rc, out))
    out["charpoly"][0] += 1
    assert not op.check((rc, out))
    assert not op.check((2, None))


def test_corrupted_output_counts_as_failed(gp):
    passes = run.build_passes("search", gp, seed=1)[:1]
    for op in passes[0]:
        op.digest = (lambda digest: lambda out: corrupt(digest(out)))(op.digest)
    res = run.Results(passes)
    res.run_pass(0, tracing.NULL)
    res.run_pass(1, tracing.NULL)
    assert res.verify() == [False] * (2 * len(passes[0]))


def test_same_seed_same_inputs_and_outputs(gp):
    a, b = (run.build_passes("search", gp, seed=9)[2] for _ in range(2))
    assert [op.digest(op.run(tracing.NULL)) for op in a] == \
           [op.digest(op.run(tracing.NULL)) for op in b]


def test_traced_counts_repeat(gp):
    passes = run.build_passes("search", gp, seed=4)
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        run.Results(passes).run_pass(0, tr)
        counts.append(run.counts_of(tr.spans))
        roots = [s for s in tr.spans if s["parent"] is None]
        assert len(roots) == len(passes[0])
        assert all(s["op"] is not None for s in tr.spans)
    assert counts[0] == counts[1]
    assert counts[0]["graphs.is_isomorphic"][1] > 0


def test_oracles_on_known_graphs():
    cross, uc4 = sp.cross(), sp.ucycle(4)
    assert oracles.signature(cross) == oracles.signature(uc4) == (1, 0, -4)
    assert oracles.graph_canonical_form(cross) != oracles.graph_canonical_form(uc4)
    X = sp.relabel(sp.wedge(2, 3), random.Random(1), "q")
    assert oracles.graph_canonical_form(X) == oracles.graph_canonical_form(sp.wedge(2, 3))
    c = oracles.graph_traces(sp.wedge(1, 2), 6)
    assert c == [1, 3, 4, 7, 11, 18]                     # Lucas numbers
    assert oracles.ghost_from_witt(oracles.witt_from_ghost(c)) == c
    assert oracles.zeta_from_denominator((1, -1, -1), 5) == [1, 1, 2, 3, 5, 8]
    # det(xI - A) = x^2 - x - 1 for the wedge of a loop and a 2-cycle
    assert oracles.power_sums_from_charpoly((-1, -1, 1), 6) == c


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (5, 40, 120, 999, 1000, 20000):
        xs = list(range(n))
        pct, value = run.tail(xs)
        assert n - 1 - value >= 10 or pct == 50.0
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(999)))[0] == 95.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == ["bench"]
