"""gphom benchmark: seeded closed-loop workloads with checked outputs.

    python3 bench/run.py --workload {invariants,explore,search,cli,all}
                         [--seed N] [--seconds S] [--trace 0|1]

One client, one process, no threads: each call into gphom is issued only
after the previous one returned.  A workload is a pool of seeded passes of
operations, run pass after pass until --seconds have elapsed.  Every output
is checked outside its timed region (see workloads.py and oracles.py).

--trace 0 prints the end-to-end metrics of the workload.  --trace 1 prints
the per-layer metrics, taken from spans around the benchmark's calls into
gphom during one traced sweep over every workload (so they do not depend on
--workload), plus fixed size points; its trace.overhead_ratio compares
traced and untraced runs of the named workload's first pass.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics.  Reports and spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("invariants", "explore", "search", "cli")
SETUP_REPEATS = 7
TAIL_LADDER = (999, 990, 950, 900, 750, 500)   # per mille
CLI_SUBCOMMANDS = ("charpoly", "zeta", "census", "witt", "homotopy-eq",
                   "cofibrant-replace", "classify", "lift", "explore", "nset")

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

TIMED = ("spectral.char_poly", "spectral.zeta_series", "witt.witt_row",
         "homotopy.homotopy_equivalent", "homotopy.explore", "graphs.is_isomorphic",
         "graphs.enumerate_morphisms", "model.is_acyclic_bounded", "model.find_lift",
         "model.cofibrant_replacement", "model.factorize_bounded")
BUDGETED = ("graphs.is_isomorphic", "graphs.enumerate_morphisms",
            "model.is_acyclic_bounded", "model.find_lift", "model.cofibrant_replacement")
POINT_REPEATS = 3

PER_LAYER = (
    [(f"{n}.{k}", u) for n in TIMED for k, u in (("calls", "count"), ("time_s", "s"))]
    + [(f"{n}.budget_used", "count") for n in BUDGETED]
    + [(name, "s") for name in wl.SIZE_POINTS]
    + [("homotopy.explore.graphs", "count"), ("homotopy.explore.buckets", "count"),
       ("homotopy.explore.iso_calls", "count"), ("homotopy.explore.noniso_ratio", "ratio"),
       ("graphs.construct.time_s", "s"), ("graphs.is_isomorphic.true_ratio", "ratio"),
       ("graphs.enumerate_morphisms.morphisms_per_budget", "ratio"),
       ("model.find_lift.found_ratio", "ratio"), ("model.factorize_bounded.complete_ratio", "ratio"),
       ("dynamics.classify_nset_map.time_s", "s"), ("dynamics.cayley_graph.time_s", "s"),
       ("dynamics.graph_to_nset.time_s", "s"), ("cli.import_ms", "ms")]
    + [(f"cli.{sub}.p50_ms", "ms") for sub in CLI_SUBCOMMANDS]
    + [("trace.overhead_ratio", "ratio")])


# ---------------------------------------------------------------------------
# Set-up

def import_gphom():
    """Import gphom afresh from this checkout's src/, and refuse any other."""
    init = SRC / "gphom" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a gphom checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "gphom" or m.startswith("gphom.")]:
        del sys.modules[name]
    gp = importlib.import_module("gphom")
    if Path(gp.__file__).resolve() != init.resolve():
        sys.exit(f"error: gphom imported from {gp.__file__}, not from {SRC}")
    return gp


def build_passes(name: str, gp, seed: int) -> list[list[wl.Op]]:
    """The workload's pool of seeded passes; cli writes its input files."""
    memo = wl.Memo()
    runner = None
    if name == "cli":
        workdir = OUT / f"cli-inputs-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        runner = wl.CliRunner(ROOT, workdir)
    passes = []
    for p in range(wl.POOL[name]):
        rng = random.Random(f"{name}:{seed}:{p}")
        if name == "cli":
            passes.append(wl.cli_pass(gp, rng, runner, f"p{p}"))
        elif name == "explore":
            passes.append(wl.explore_pass(gp, rng, memo))
        else:
            passes.append({"invariants": wl.invariants_pass,
                           "search": wl.search_pass}[name](gp, rng))
    return passes


def warm_up(name: str, ops: list[wl.Op]):
    """Run the smallest operation of each kind (one process for cli)."""
    smallest: dict[str, wl.Op] = {}
    for op in ops:
        if op.kind not in smallest or op.size < smallest[op.kind].size:
            smallest[op.kind] = op
    for op in list(smallest.values())[:1 if name == "cli" else None]:
        op.run(tracing.NULL)


def setup(name: str, seed: int):
    gp = import_gphom()
    passes = build_passes(name, gp, seed)
    warm_up(name, passes[0])
    return gp, passes


# ---------------------------------------------------------------------------
# Running and checking

class Results:
    """Outcome of every operation run; outputs of the pool's first round are
    kept for checking, later repeats are compared with them."""

    def __init__(self, passes):
        self.passes = passes
        self.best: dict[tuple[int, int], float] = {}   # fastest run of each input
        self.pool_digest: dict[tuple[int, int], object] = {}
        self.outcome: list[tuple[int, int, bool]] = []   # (pass, op, ran and matched)
        self.errors: list[str] = []

    def run_pass(self, p: int, tr) -> float:
        """Run pass p of the pool (mod its size); returns its wall time."""
        ops = self.passes[p % len(self.passes)]
        start = perf_counter()
        for i, op in enumerate(ops):
            key = (p % len(self.passes), i)
            ok, digest = self.run_op(op, tr, key, f"{p}.{i}")
            if ok and key not in self.pool_digest:
                self.pool_digest[key] = digest
            elif ok:
                ok = digest == self.pool_digest[key]
                if not ok:
                    self.errors.append(f"{op.kind} pass {p} op {i}: output differs from pass {key[0]}")
            self.outcome.append((p, i, ok))
        return perf_counter() - start

    def run_op(self, op: wl.Op, tr, key, label: str):
        start = perf_counter()
        try:
            if tr is tracing.NULL:
                out = op.run(tr)
            else:
                with tr.op(f"op.{op.kind}"):
                    out = op.run(tr)
        except Exception as e:   # a failed operation is counted, not fatal
            self.record(key, perf_counter() - start)
            self.errors.append(f"{op.kind} {label}: {type(e).__name__}: {e}")
            return False, None
        self.record(key, perf_counter() - start)
        if op.notes is not None and tr is not tracing.NULL:
            tr.note(**op.notes(out))
        return True, op.digest(out)

    def record(self, key, seconds: float):
        self.best[key] = min(seconds, self.best.get(key, seconds))

    def verify(self) -> list[bool]:
        """Check the kept outputs by their oracles; returns, per operation
        run, whether it produced a correct result."""
        good = {}
        for key, digest in self.pool_digest.items():
            op = self.passes[key[0]][key[1]]
            try:
                good[key] = bool(op.check(digest))
            except Exception as e:   # an output the oracle cannot read is wrong
                good[key] = False
                self.errors.append(f"{op.kind} {key}: check raised {type(e).__name__}: {e}")
            if not good[key]:
                self.errors.append(f"{op.kind} pass {key[0]} op {key[1]}: wrong output")
        return [ok and good.get((p % len(self.passes), i), False) for p, i, ok in self.outcome]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it
    (nearest rank), and its value."""
    xs = sorted(latencies)
    n = len(xs)

    def rank(pm):
        return max(1, -(-pm * n // 1000))

    pm = next((pm for pm in TAIL_LADDER if n - rank(pm) >= 10), TAIL_LADDER[-1])
    return pm / 10, xs[rank(pm) - 1]


def end_to_end(name: str, seed: int, seconds: int) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        gp, passes = setup(name, seed)
        setups.append(perf_counter() - start)

    res = Results(passes)
    walls, p = [], 0
    deadline = perf_counter() + seconds
    while p < len(passes) or perf_counter() < deadline:
        walls.append(res.run_pass(p, tracing.NULL))
        p += 1
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024

    # The machine's speed drifts by tens of percent within seconds, so each
    # input's latency is its fastest run; every input runs several times.
    correct = res.verify()
    good = dict.fromkeys(res.best, True)
    for (q, i, _), ok in zip(res.outcome, correct):
        good[(q % len(passes), i)] &= ok
    best = list(res.best.values())
    pct, tail_s = tail(best)
    attempted, failed = len(correct), correct.count(False)
    metrics = {"ops_per_s": sum(good.values()) / sum(best),
               "latency_p50_ms": statistics.median(best) * 1e3,
               "latency_tail_ms": tail_s * 1e3,
               "setup_s": statistics.median(setups),
               "peak_rss_mb": rss_mb}
    details = {"passes": len(walls), "distinct_inputs": len(best),
               "repeats": " to ".join(sorted({str(len(walls) // len(passes)),
                                              str(-(-len(walls) // len(passes)))})),
               "tail_percentile": pct, "fail_ratio": failed / attempted,
               "wall_ops_per_s": attempted / sum(walls), "setup_runs_s": setups,
               "pass_wall_s": walls, "errors": res.errors[:20]}
    return {"gp": gp, "attempted": attempted, "failed": failed,
            "metrics": {k: (metrics[k], unit) for k, unit in END_TO_END},
            "details": details}


# ---------------------------------------------------------------------------
# Traced run

def layer_metrics(spans: list[dict], points: dict[str, list[float]],
                  import_ms: list[float], overhead: float) -> dict:
    by: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            by[s["name"]].append(s)

    def total(name, key=None):
        return sum((s["end"] - s["start"]) if key is None else s.get(key, 0)
                   for s in by[name])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in TIMED:
        m[f"{name}.calls"] = len(by[name])
        m[f"{name}.time_s"] = total(name)
    for name in BUDGETED:
        m[f"{name}.budget_used"] = total(name, "budget_used")
    for name, xs in points.items():
        m[name] = min(xs)
    ex = "homotopy.explore"
    m.update({
        f"{ex}.graphs": total(ex, "graphs"), f"{ex}.buckets": total(ex, "buckets"),
        f"{ex}.iso_calls": total(ex, "iso_calls"),
        f"{ex}.noniso_ratio": ratio(total(ex, "flagged"), total(ex, "iso_calls")),
        "graphs.construct.time_s": total("graphs.construct"),
        "graphs.is_isomorphic.true_ratio": ratio(total("graphs.is_isomorphic", "iso"),
                                                 len(by["graphs.is_isomorphic"])),
        "graphs.enumerate_morphisms.morphisms_per_budget": ratio(
            total("graphs.enumerate_morphisms", "morphisms"),
            total("graphs.enumerate_morphisms", "budget_used")),
        "model.find_lift.found_ratio": ratio(total("model.find_lift", "found"),
                                             len(by["model.find_lift"])),
        "model.factorize_bounded.complete_ratio": ratio(
            total("model.factorize_bounded", "complete"), len(by["model.factorize_bounded"])),
        "cli.import_ms": statistics.median(import_ms),
        "trace.overhead_ratio": overhead,
    })
    for name in ("classify_nset_map", "cayley_graph", "graph_to_nset"):
        m[f"dynamics.{name}.time_s"] = total(f"dynamics.{name}")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.p50_ms"] = statistics.median(
            (s["end"] - s["start"]) * 1e3 for s in by[f"cli.{sub}"])
    return m


def counts_of(spans: list[dict]) -> dict:
    c: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for s in spans:
        if s["parent"] is not None:
            c[s["name"]][0] += 1
            c[s["name"]][1] += s.get("budget_used", 0)
    return dict(sorted(c.items()))


def code_digest() -> str:
    h = hashlib.sha256()
    for d in (SRC / "gphom", HERE):
        for f in sorted(d.glob("*.py")):
            h.update(f.name.encode() + f.read_bytes())
    return h.hexdigest()[:16]


def traced(name: str, seed: int, seconds: int) -> dict:
    gp = import_gphom()
    pools = {w: build_passes(w, gp, seed) for w in WORKLOADS}
    for w in WORKLOADS:
        warm_up(w, pools[w][0])
    results = {w: Results(pools[w]) for w in WORKLOADS}
    problems = []

    # Tracing overhead: the fastest traced against the fastest untraced run
    # of the workload's first pass, alternated.  The first traced run joins
    # the sweep; every later one must repeat its counts exactly.
    sweep = tracing.Tracer()
    plain_s, traced_s = [], []
    deadline = perf_counter() + seconds
    while len(plain_s) < 2 or perf_counter() < deadline:
        plain_s.append(results[name].run_pass(0, tracing.NULL))
        tr = tracing.Tracer() if traced_s else sweep
        traced_s.append(results[name].run_pass(0, tr))
        if counts_of(tr.spans) != counts_of(sweep.spans):
            problems.append("traced passes of one seed disagree on calls or budget_used")

    # The rest of the sweep: every other workload's first pass; for cli the
    # whole pool, so that each subcommand has several samples.
    for w in WORKLOADS:
        if w == name and w != "cli":
            continue
        for p in range(len(pools[w]) if w == "cli" else 1):
            if w == name and p == 0:
                continue
            results[w].run_pass(p, sweep)
    runner = wl.CliRunner(ROOT, OUT)
    import_ms = []
    for _ in range(5):
        start = perf_counter()
        proc = sweep.call("cli.import", runner, [sys.executable, "-c", "import gphom.cli"])
        import_ms.append((perf_counter() - start) * 1e3)
        if proc.returncode != 0:
            problems.append(f"import gphom.cli exited {proc.returncode}")

    # Size points: each figure is the fastest of its main (non-construct) calls.
    points_tr = tracing.Tracer()
    point_res = Results([wl.size_points(gp, seed)])
    for _ in range(POINT_REPEATS):
        point_res.run_pass(0, points_tr)
    points = {label: [] for label in wl.SIZE_POINTS}
    for s in points_tr.spans:
        if s["parent"] is not None and s["name"] != "graphs.construct":
            points[wl.SIZE_POINTS[s["op"] % len(wl.SIZE_POINTS)]].append(s["end"] - s["start"])

    # The same seed and code must give the same counts in every traced run.
    counts = counts_of(sweep.spans)
    OUT.mkdir(exist_ok=True)
    counts_file = OUT / f"counts-{seed}-{code_digest()}.json"
    if counts_file.exists():
        if json.loads(counts_file.read_text()) != json.loads(json.dumps(counts)):
            problems.append(f"calls or budget_used differ from {counts_file.name}")
    else:
        counts_file.write_text(json.dumps(counts, indent=1))

    verdicts = [ok for r in list(results.values()) + [point_res] for ok in r.verify()]
    errors = [e for r in list(results.values()) + [point_res] for e in r.errors] + problems
    metrics = layer_metrics(sweep.spans, points, import_ms, min(traced_s) / min(plain_s))
    units = dict(PER_LAYER)
    if set(metrics) != set(units):
        raise AssertionError(f"per-layer metrics out of step: {set(metrics) ^ set(units)}")
    spans_file = OUT / f"spans-{name}-{seed}.json"
    with open(spans_file, "w") as fh:
        json.dump({"sweep": sweep.spans, "points": points_tr.spans}, fh)
    return {"gp": gp, "attempted": len(verdicts), "failed": verdicts.count(False),
            "correct_extra": not problems,
            "metrics": {k: (metrics[k], units[k]) for k, _ in PER_LAYER},
            "details": {"overhead_pairs": len(plain_s), "counts": counts,
                        "spans_file": str(spans_file.relative_to(ROOT)),
                        "errors": errors[:20]}}


# ---------------------------------------------------------------------------
# Reporting

def provenance(gp, seed: int) -> dict:
    """Git SHA and dirty flag (None outside a git checkout), Python version,
    usable CPUs, seed, the gphom file imported and a digest of the code."""
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                        text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "dirty": dirty, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "gphom_file": str(Path(gp.__file__).resolve()),
            "code_sha256": code_digest()}


def run_one(args) -> dict:
    if args.trace:
        out = traced(args.workload, args.seed, args.seconds)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds)
    gp = out.pop("gp")
    out["correct"] = out["failed"] == 0 and out.pop("correct_extra", True)
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(gp, args.seed), **out}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"correct={out['correct']} attempted={out['attempted']} failed={out['failed']}")
    for key, (value, unit) in out["metrics"].items():
        print(f"{args.workload:<11} {key:<50} {value:>14.6g} {unit}")
    d = out["details"]
    if not args.trace:
        print(f"{args.workload:<11} {'fail_ratio':<50} {d['fail_ratio']:>14.6g} ratio "
              f"({out['failed']} of {out['attempted']})")
        print(f"{args.workload:<11} {d['passes']} passes: each of {d['distinct_inputs']} inputs "
              f"ran {d['repeats']} times and its latency is its fastest run; "
              f"latency_tail_ms is p{d['tail_percentile']:g}; wall-clock rate "
              f"{d['wall_ops_per_s']:.6g} ops/s")
    for e in d["errors"]:
        print(f"error: {e}")
    print(json.dumps(report["provenance"], sort_keys=True))
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}}


def run_all(args) -> dict:
    """Each workload in its own process, so memory peaks stay separate."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", w, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {w} exited {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
