"""Command-line front end.

Exit codes: 0 success, 1 negative verdict (e.g. NOT homotopy equivalent,
NO-LIFT), 2 input or other library error, 3 search budget exhausted.

Graph arguments are either JSON files or built-in names: cross, uc4,
figure-eight, dot, arrow, empty, cycle:n, path:n, ucycle:n.  The sized
builtins accept n <= MAX_BUILTIN_SIZE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetExceeded, GphomError, InvalidInput
from .graphs import (DEFAULT_BUDGET, Budget, EMPTY, Graph, arrow_graph,
                     cross_graph, cycle_graph, dot_graph, figure_eight,
                     graph_from_json, graph_to_json, morphism_from_json,
                     morphism_to_json, path_graph, undirected_cycle)

ENV_BUDGET = "GPHOM_BUDGET"
MAX_BUILTIN_SIZE = 10**4    # largest n of cycle:n, path:n and ucycle:n

_BUILTINS = {
    "cross": cross_graph,
    "uc4": lambda: undirected_cycle(4),
    "figure-eight": figure_eight,
    "dot": dot_graph,
    "arrow": arrow_graph,
    "empty": lambda: EMPTY,
}


def load_graph(name: str) -> Graph:
    if name in _BUILTINS:
        return _BUILTINS[name]()
    for prefix, builder in (("cycle:", cycle_graph), ("path:", path_graph),
                            ("ucycle:", undirected_cycle)):
        if name.startswith(prefix):
            try:
                size = int(name[len(prefix):])
            except ValueError as e:
                raise InvalidInput(f"bad parameter in {name!r}") from e
            if size > MAX_BUILTIN_SIZE:
                raise InvalidInput(f"size in {name!r} exceeds the limit of "
                                   f"{MAX_BUILTIN_SIZE}")
            return builder(size)
    return graph_from_json(_load_json(name))


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InvalidInput(f"cannot read {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise InvalidInput(f"{path}: malformed JSON at line {e.lineno}, "
                           f"column {e.colno}") from e
    except UnicodeDecodeError as e:
        raise InvalidInput(f"{path}: not UTF-8 text at byte {e.start}") from e
    except RecursionError as e:
        raise InvalidInput(f"{path}: JSON nested too deeply") from e


def _upto(args, *graphs: Graph) -> int:
    """--upto if given, else twice the largest node count (at least 1); a
    negative bound is an input error."""
    if args.upto is None:
        return max(2 * max((len(G.nodes) for G in graphs), default=0), 1)
    if args.upto < 0:
        raise InvalidInput(f"--upto must be >= 0, got {args.upto}")
    return args.upto


def _emit(args, payload: dict, text_lines: list[str]):
    try:
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: drop the rest, and point the descriptor
        # at devnull so that the interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# Subcommands
#
# Each imports the modules it runs when it runs: every process compiles what
# it imports, so a command should not pay for the others' code.

def cmd_charpoly(args) -> int:
    from . import spectral
    X = load_graph(args.graph)
    a = spectral.graph_char_poly(X)
    rev = spectral.graph_reversed_char_poly(X)
    _emit(args, {
        "charpoly": list(a.coefficients),
        "reversed": list(rev.coefficients),
        "text": a.format("x"),
        "reversed_text": rev.format("u"),
    }, [a.format("x")])
    return 0


def cmd_zeta(args) -> int:
    from . import spectral
    X = load_graph(args.graph)
    N = _upto(args, X)
    Z = spectral.zeta_series(X, N)
    lines = [f"denominator: {Z.denominator.format('u')}",
             "coefficients: " + ", ".join(str(c) for c in Z.coefficients)]
    _emit(args, {
        "denominator": list(Z.denominator.coefficients),
        "denominator_text": Z.denominator.format("u"),
        "coefficients": list(Z.coefficients),
        "upto": N,
    }, lines)
    return 0


def cmd_census(args) -> int:
    from . import spectral
    X = load_graph(args.graph)
    N = _upto(args, X)
    counts = spectral.closed_walk_counts(X, N)
    lines = [f"{n}\t{c}" for n, c in enumerate(counts, start=1)]
    _emit(args, {"counts": counts, "upto": N}, lines)
    return 0


def cmd_witt(args) -> int:
    from . import witt
    X = load_graph(args.graph)
    N = _upto(args, X)
    S = witt.from_graph(X)
    ghost = S.ghost_row(N)
    coords = S.witt_row(N)
    lines = ["n\tc_n\ts_n"]
    lines += [f"{n}\t{ghost[n - 1]}\t{coords[n - 1]}" for n in range(1, N + 1)]
    _emit(args, {"ghost": ghost, "witt": coords, "upto": N}, lines)
    return 0


def cmd_classify(args) -> int:
    from . import model
    f = morphism_from_json(_load_json(args.morphism))
    N = _upto(args, f.source, f.target)
    budget = Budget(args.budget)
    flags = {
        "surjecting": model.is_surjecting(f),
        "whiskering": model.is_whiskering(f),
        f"acyclic_up_to_{N}": model.is_acyclic_bounded(f, N, budget),
    }
    lines = [f"{k}\t{'yes' if v else 'no'}" for k, v in flags.items()]
    _emit(args, {"flags": flags, "acyclicity_bound": N}, lines)
    return 0


def cmd_lift(args) -> int:
    from . import model
    problem = model.LiftingProblem(
        left=morphism_from_json(_load_json(args.left)),
        right=morphism_from_json(_load_json(args.right)),
        top=morphism_from_json(_load_json(args.top)),
        bottom=morphism_from_json(_load_json(args.bottom)),
    )
    h = model.find_lift(problem, Budget(args.budget))
    if h is None:
        _emit(args, {"lift": None}, ["NO-LIFT"])
        return 1
    lift = morphism_to_json(h)
    _emit(args, {"lift": lift}, [json.dumps(lift, indent=2, sort_keys=True)])
    return 0


def cmd_cofibrant_replace(args) -> int:
    from . import model
    X = load_graph(args.graph)
    N = _upto(args, X)
    res = model.cofibrant_replacement(X, N, Budget(args.budget))
    lines = ["n\ts_n"]
    lines += [f"{n}\t{res.witt_summary[n]}" for n in sorted(res.witt_summary)]
    replacement = graph_to_json(res.graph)
    lines.append(json.dumps(replacement, sort_keys=True))
    _emit(args, {
        "replacement": replacement,
        "counit": morphism_to_json(res.counit) if args.json else None,
        "necklaces": {str(n): s for n, s in sorted(res.witt_summary.items())},
        "upto": N,
    }, lines)
    return 0


def cmd_homotopy_eq(args) -> int:
    from . import homotopy
    X = load_graph(args.graph_a)
    Y = load_graph(args.graph_b)
    sig_x, sig_y = homotopy.signature(X), homotopy.signature(Y)
    equivalent = homotopy.homotopy_equivalent(X, Y)
    verdict = "HOMOTOPY-EQUIVALENT" if equivalent else "NOT-HOMOTOPY-EQUIVALENT"
    _emit(args, {
        "equivalent": equivalent,
        "signature_a": list(sig_x.reversed_char_poly.coefficients),
        "signature_b": list(sig_y.reversed_char_poly.coefficients),
    }, [verdict, f"signature A: {sig_x.format()}", f"signature B: {sig_y.format()}"])
    return 0 if equivalent else 1


def cmd_explore(args) -> int:
    from . import homotopy
    graphs = None
    if args.exhaustive:
        graphs = [(f"g{i}", G) for i, G in
                  enumerate(homotopy.enumerate_small_graphs(args.nodes, args.arcs))]
    buckets = homotopy.explore(args.nodes, args.arcs, graphs,
                               Budget(args.budget))
    lines = []
    for b in buckets:
        names = [name for name, _ in b.members]
        flag = ""
        if b.nonisomorphic_pairs:
            shown = ", ".join(f"{a} vs {c}" for a, c in b.nonisomorphic_pairs)
            flag = f"  NON-ISOMORPHIC: {shown}"
        lines.append(f"{b.signature.format()}: {', '.join(names)}{flag}")
    report = [{
        "signature": list(b.signature.reversed_char_poly.coefficients),
        "members": [{"name": name, "graph": graph_to_json(G)}
                    for name, G in b.members],
        "nonisomorphic_pairs": [list(p) for p in b.nonisomorphic_pairs],
    } for b in buckets] if args.json or args.out else []
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump({"buckets": report}, fh, indent=2, sort_keys=True)
        except OSError as e:
            raise InvalidInput(f"cannot write {args.out!r}: {e}") from e
        lines.append(f"report written to {args.out}")
    _emit(args, {"buckets": report}, lines)
    return 0


def _nset_report(args, require_zset: bool) -> int:
    from . import dynamics
    S = dynamics.nset_from_json(_load_json(args.file), require_zset=require_zset)
    fib = dynamics.nset_fibrancy(S)
    per = dynamics.periodic_part(S)
    lines = [f"elements\t{len(S.elements)}",
             f"fibrant\t{'yes' if fib['fibrant'] else 'no'}",
             f"cofibrant\t{'yes' if fib['cofibrant'] else 'no'}",
             f"periodic\t{len(per.elements)}"]
    _emit(args, {
        "elements": len(S.elements),
        "fibrant": fib["fibrant"],
        "cofibrant": fib["cofibrant"],
        "periodic_part": dynamics.nset_to_json(per),
    }, lines)
    return 0


def cmd_nset(args) -> int:
    return _nset_report(args, require_zset=False)


def cmd_zset(args) -> int:
    return _nset_report(args, require_zset=True)


# ---------------------------------------------------------------------------

def _resolve_budget(flag: int | None) -> int:
    """--budget if given, else $GPHOM_BUDGET, else the default; >= 0."""
    origin, value = "--budget", flag
    if value is None:
        raw = os.environ.get(ENV_BUDGET)
        if raw is None:
            return DEFAULT_BUDGET
        origin = ENV_BUDGET
        try:
            value = int(raw)
        except ValueError:
            raise InvalidInput(f"{ENV_BUDGET} must be an integer, "
                               f"got {raw!r}") from None
    if value < 0:
        raise InvalidInput(f"{origin} must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=None,
                        help="search-node budget for exhaustive searches "
                             f"(default: ${ENV_BUDGET} or {DEFAULT_BUDGET})")
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    parser = argparse.ArgumentParser(
        prog="gphom",
        description="Exact homotopy invariants of finite directed multigraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("charpoly", cmd_charpoly, help="characteristic polynomial")
    p.add_argument("graph")

    for name, fn, hlp in (("zeta", cmd_zeta, "zeta series"),
                          ("census", cmd_census, "closed-walk counts"),
                          ("witt", cmd_witt, "ghost/Witt table"),
                          ("cofibrant-replace", cmd_cofibrant_replace,
                           "truncated cycle resolution")):
        p = add(name, fn, help=hlp)
        p.add_argument("graph")
        p.add_argument("--upto", type=int, default=None)

    p = add("classify", cmd_classify, help="morphism classifier flags")
    p.add_argument("morphism")
    p.add_argument("--upto", type=int, default=None)

    p = add("lift", cmd_lift, help="solve a lifting problem")
    for leg in ("left", "right", "top", "bottom"):
        p.add_argument(leg)

    p = add("homotopy-eq", cmd_homotopy_eq, help="decide homotopy equivalence")
    p.add_argument("graph_a")
    p.add_argument("graph_b")

    p = add("explore", cmd_explore, help="bucket a corpus by signature")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--arcs", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate all multigraphs within the budgets")
    p.add_argument("--out", default=None, help="write a JSON report")

    p = add("nset", cmd_nset, help="inspect a finite N-set")
    p.add_argument("file")
    p = add("zset", cmd_zset, help="inspect a finite Z-set")
    p.add_argument("file")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact counts may run past the 4,300 digits that int -> str allows by
    # default (Python 3.10.7 on); the limit is process-wide, so it is
    # restored for in-process callers
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args.budget = _resolve_budget(args.budget)
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except GphomError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
