"""Seeded plain-data inputs: graphs, morphisms and N-sets as ids and dicts.

Specs carry no gphom objects, so the oracles can read them directly and the
operations build gphom objects from them inside their timed region.
"""

from __future__ import annotations

from typing import NamedTuple


class SArc(NamedTuple):
    id: str
    src: str
    tgt: str


class Spec(NamedTuple):
    nodes: tuple[str, ...]
    arcs: tuple[SArc, ...]


def random_graph(rng, k: int, m: int, prefix: str = "") -> Spec:
    nodes = tuple(f"{prefix}v{i}" for i in range(k))
    return Spec(nodes, tuple(SArc(f"{prefix}e{i}", rng.choice(nodes), rng.choice(nodes))
                             for i in range(m)))


def relabel(spec: Spec, rng, prefix: str) -> Spec:
    """An isomorphic copy with fresh, shuffled node and arc ids."""
    fresh = [f"{prefix}{i}" for i in range(len(spec.nodes))]
    rng.shuffle(fresh)
    ren = dict(zip(spec.nodes, fresh))
    arcs = list(spec.arcs)
    rng.shuffle(arcs)
    nodes = sorted(fresh, key=lambda _: rng.random())
    return Spec(tuple(nodes), tuple(SArc(f"{prefix}a{i}", ren[a.src], ren[a.tgt])
                                    for i, a in enumerate(arcs)))


def cycle(n: int) -> Spec:
    """gphom's directed n-cycle: arc i runs from i+1 (mod n) to i."""
    return Spec(tuple(str(i) for i in range(n)),
                tuple(SArc(str(i), str((i + 1) % n), str(i)) for i in range(n)))


def ucycle(n: int) -> Spec:
    """gphom's doubled n-cycle (`ucycle:n`)."""
    arcs = []
    for i in range(n):
        arcs.append(SArc(f"f{i}", str(i), str((i + 1) % n)))
        arcs.append(SArc(f"b{i}", str(i), str((i - 1) % n)))
    return Spec(tuple(str(i) for i in range(n)), tuple(arcs))


def wedge(a: int, b: int) -> Spec:
    """Directed cycles of lengths a and b sharing node 0."""
    nodes = tuple(str(i) for i in range(a + b - 1))
    ring = ["0"] + [str(i) for i in range(a, a + b - 1)]
    arcs = [SArc(f"a{i}", str((i + 1) % a), str(i)) for i in range(a)]
    arcs += [SArc(f"b{i}", ring[i], ring[(i + 1) % b]) for i in range(b)]
    return Spec(nodes, tuple(arcs))


def path(n: int) -> Spec:
    return Spec(tuple(str(i) for i in range(n + 1)),
                tuple(SArc(str(i), str(i), str(i + 1)) for i in range(n)))


def cross() -> Spec:
    arcs = []
    for i in range(1, 5):
        arcs.append(SArc(f"out{i}", "0", str(i)))
        arcs.append(SArc(f"in{i}", str(i), "0"))
    return Spec(tuple(str(i) for i in range(5)), tuple(arcs))


def coproduct(X: Spec, Y: Spec) -> Spec:
    """Disjoint union with ids prefixed `0:` and `1:`, as gphom names them."""
    return Spec(tuple(f"0:{v}" for v in X.nodes) + tuple(f"1:{v}" for v in Y.nodes),
                tuple(SArc(f"0:{a.id}", f"0:{a.src}", f"0:{a.tgt}") for a in X.arcs)
                + tuple(SArc(f"1:{a.id}", f"1:{a.src}", f"1:{a.tgt}") for a in Y.arcs))


def whisker(X: Spec, rng, size: int, prefix: str = "t") -> Spec:
    """X with an out-directed tree of `size` new nodes attached."""
    nodes, arcs = list(X.nodes), list(X.arcs)
    for i in range(size):
        parent = rng.choice(nodes)
        nodes.append(f"{prefix}{i}")
        arcs.append(SArc(f"{prefix}a{i}", parent, f"{prefix}{i}"))
    return Spec(tuple(nodes), tuple(arcs))


def identity_maps(X: Spec) -> tuple[dict, dict]:
    return {v: v for v in X.nodes}, {a.id: a.id for a in X.arcs}


def cycle_shift(m: int, n: int, s: int) -> tuple[dict, dict]:
    """C_m -> C_n, i -> i + s (mod n), for n dividing m."""
    nm = {str(i): str((i + s) % n) for i in range(m)}
    return nm, dict(nm)


def to_json(X: Spec) -> dict:
    """gphom's canonical graph JSON."""
    return {"nodes": sorted(X.nodes),
            "arcs": [{"id": a.id, "src": a.src, "tgt": a.tgt}
                     for a in sorted(X.arcs, key=lambda a: a.id)]}


def morphism_json(src: Spec, tgt: Spec, maps: tuple[dict, dict]) -> dict:
    return {"source": to_json(src), "target": to_json(tgt),
            "node_map": dict(sorted(maps[0].items())),
            "arc_map": dict(sorted(maps[1].items()))}
