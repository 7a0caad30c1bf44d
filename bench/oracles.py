"""Independent reference computations for checking gphom's outputs.

Nothing here imports gphom.  Each function reads only the plain data of its
arguments (node ids, arc ids and endpoints, dict maps) and recomputes the
answer by its own route: sparse integer matrix powers for closed-walk counts,
Newton's identities for characteristic polynomials, series inversion for the
zeta function, brute-force permutation search for isomorphism and lifting.
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# Closed walks and the polynomials they determine

def traces(nodes, arcs, upto: int) -> list[int]:
    """tr(A^n) for n = 1..upto, by sparse row-vector powers of A.

    `arcs` is an iterable of (src, tgt) pairs over `nodes`.
    """
    idx = {v: i for i, v in enumerate(nodes)}
    k = len(nodes)
    mult: dict[tuple[int, int], int] = {}
    for s, t in arcs:
        key = (idx[s], idx[t])
        mult[key] = mult.get(key, 0) + 1
    out: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for (i, j), m in mult.items():
        out[i].append((j, m))
    counts = [0] * upto
    for start in range(k):
        v = [0] * k
        v[start] = 1
        for n in range(upto):
            w = [0] * k
            for i, x in enumerate(v):
                if x:
                    for j, m in out[i]:
                        w[j] += x * m
            v = w
            counts[n] += v[start]
    return counts


def graph_traces(G, upto: int) -> list[int]:
    return traces(G.nodes, [(a.src, a.tgt) for a in G.arcs], upto)


def power_sums_from_charpoly(coeffs, upto: int) -> list[int]:
    """Power sums p_1..p_upto of the roots of the monic polynomial whose
    ascending coefficients are `coeffs`, by Newton's identities."""
    k = len(coeffs) - 1
    e = [(-1) ** j * coeffs[k - j] for j in range(k + 1)]
    p: list[int] = []
    for m in range(1, upto + 1):
        s = sum((-1) ** (i - 1) * e[i] * p[m - i - 1]
                for i in range(1, min(m - 1, k) + 1))
        if m <= k:
            s += (-1) ** (m - 1) * m * e[m]
        p.append(s)
    return p


def reversed_charpoly_from_traces(p: list[int], k: int) -> tuple[int, ...]:
    """Ascending coefficients of det(I - uA) for a k x k matrix A with
    power sums p_1..p_k, trailing zeros dropped."""
    e = [1]
    for j in range(1, k + 1):
        acc = sum((-1) ** (i - 1) * e[j - i] * p[i - 1] for i in range(1, j + 1))
        if acc % j:
            raise ArithmeticError(f"e_{j} is not integral")
        e.append(acc // j)
    d = [(-1) ** j * e[j] for j in range(k + 1)]
    while d and d[-1] == 0:
        d.pop()
    return tuple(d)


def signature(G) -> tuple[int, ...]:
    """det(I - uA) of G, ascending and stripped, as gphom's signature key."""
    k = len(G.nodes)
    return reversed_charpoly_from_traces(graph_traces(G, k), k)


def zeta_from_denominator(d, N: int) -> list[int]:
    """Coefficients z_0..z_N of 1/d(u), for d(0) = 1, by series inversion."""
    z = [1]
    for m in range(1, N + 1):
        z.append(-sum(d[i] * z[m - i] for i in range(1, min(m, len(d) - 1) + 1)))
    return z


def ghost_from_witt(s: list[int]) -> list[int]:
    """c_n = sum_{d | n} d * s_d for n = 1..len(s)."""
    return [sum(d * s[d - 1] for d in range(1, n + 1) if n % d == 0)
            for n in range(1, len(s) + 1)]


def witt_from_ghost(c: list[int]) -> list[int]:
    """Inverse of ghost_from_witt, solved triangularly (no Moebius table)."""
    s: list[int] = []
    for n in range(1, len(c) + 1):
        rest = c[n - 1] - sum(d * s[d - 1] for d in range(1, n) if n % d == 0)
        if rest % n:
            raise ArithmeticError(f"c_{n} is not a ghost component")
        s.append(rest // n)
    return s


# ---------------------------------------------------------------------------
# Isomorphism

def canonical_form(nodes, arcs) -> tuple:
    """Least relabelled arc multiset over all node permutations.

    Two graphs are isomorphic exactly when their canonical forms are equal.
    Intended for graphs of at most six or so nodes.
    """
    k = len(nodes)
    best = None
    for perm in itertools.permutations(range(k)):
        rel = dict(zip(nodes, perm))
        key = tuple(sorted((rel[s], rel[t]) for s, t in arcs))
        if best is None or key < best:
            best = key
    return (k, best)


def graph_canonical_form(G) -> tuple:
    return canonical_form(G.nodes, [(a.src, a.tgt) for a in G.arcs])


# ---------------------------------------------------------------------------
# Morphisms, given as (source, target, node_map, arc_map) of plain data

def is_morphism(src, tgt, node_map: dict, arc_map: dict) -> bool:
    if set(node_map) != set(src.nodes) or set(arc_map) != {a.id for a in src.arcs}:
        return False
    tgt_nodes = set(tgt.nodes)
    tgt_arcs = {a.id: a for a in tgt.arcs}
    if any(w not in tgt_nodes for w in node_map.values()):
        return False
    for a in src.arcs:
        b = tgt_arcs.get(arc_map[a.id])
        if b is None or b.src != node_map[a.src] or b.tgt != node_map[a.tgt]:
            return False
    return True


def compose(second: tuple[dict, dict], first: tuple[dict, dict]) -> tuple[dict, dict]:
    """(node_map, arc_map) of second after first."""
    return ({v: second[0][w] for v, w in first[0].items()},
            {a: second[1][b] for a, b in first[1].items()})


def is_surjecting(src, tgt, node_map: dict, arc_map: dict) -> bool:
    """Every arc leaving f(x) is the image of an arc leaving x."""
    for x in src.nodes:
        hit = {arc_map[a.id] for a in src.arcs if a.src == x}
        if any(b.id not in hit for b in tgt.arcs if b.src == node_map[x]):
            return False
    return True


def is_whiskering(src, tgt, node_map: dict, arc_map: dict) -> bool:
    """Injective, and the target outside the image is a forest of
    out-directed trees rooted in the image."""
    nodes_in = set(node_map.values())
    arcs_in = set(arc_map.values())
    if len(nodes_in) != len(node_map) or len(arcs_in) != len(arc_map):
        return False
    into = {v: [b for b in tgt.arcs if b.tgt == v] for v in tgt.nodes}
    for v in tgt.nodes:
        if v in nodes_in:
            if any(b.id not in arcs_in for b in into[v]):
                return False
            continue
        seen = set()
        while v not in nodes_in:
            if len(into[v]) != 1 or v in seen:
                return False
            seen.add(v)
            v = into[v][0].src
    return True


def find_lift(Y, A, left, right, top, bottom):
    """Some diagonal (node_map, arc_map) h: Y -> A with h.left == top and
    right.h == bottom, or None; exhaustive over arcs then isolated nodes.

    `left` maps X -> Y, `right` A -> B, `top` X -> A, `bottom` Y -> B, each
    as a (node_map, arc_map) pair.
    """
    forced_nodes: dict = {}
    forced_arcs: dict = {}
    for forced, l_map, t_map in ((forced_nodes, left[0], top[0]),
                                 (forced_arcs, left[1], top[1])):
        for x, y in l_map.items():
            if forced.setdefault(y, t_map[x]) != t_map[x]:
                return None
    choices = []
    for b in Y.arcs:
        cands = [c for c in A.arcs
                 if right[1][c.id] == bottom[1][b.id]
                 and forced_arcs.get(b.id, c.id) == c.id]
        choices.append(cands)
    touched = {b.src for b in Y.arcs} | {b.tgt for b in Y.arcs}
    free = [v for v in Y.nodes if v not in touched]
    for pick in itertools.product(*choices):
        nm: dict = {}
        ok = True
        for b, c in zip(Y.arcs, pick):
            for v, w in ((b.src, c.src), (b.tgt, c.tgt)):
                if nm.setdefault(v, w) != w:
                    ok = False
        if not ok:
            continue
        for cand in itertools.product(A.nodes, repeat=len(free)):
            full = dict(nm)
            full.update(zip(free, cand))
            if all(full[v] == w for v, w in forced_nodes.items()) and \
               all(right[0][full[v]] == bottom[0][v] for v in Y.nodes):
                return full, {b.id: c.id for b, c in zip(Y.arcs, pick)}
    return None


# ---------------------------------------------------------------------------
# N-sets, given as a dict sigma: element -> element

def _periodic(sigma: dict, n: int) -> set:
    out = set()
    for x in sigma:
        y = x
        for _ in range(n):
            y = sigma[y]
        if y == x:
            out.add(x)
    return out


def classify_nset_map(src_sigma: dict, tgt_sigma: dict, f: dict) -> dict:
    """The three flags of gphom.dynamics.classify_nset_map, from definitions."""
    bound = max(len(src_sigma), len(tgt_sigma), 1)
    acyclic = True
    for n in range(1, bound + 1):
        src, tgt = _periodic(src_sigma, n), _periodic(tgt_sigma, n)
        image = [f[x] for x in src]
        if len(set(image)) != len(image) or set(image) != tgt:
            acyclic = False
            break
    surjecting = all(
        {y for y in tgt_sigma if tgt_sigma[y] == f[x]}
        <= {f[u] for u in src_sigma if src_sigma[u] == x}
        for x in src_sigma)
    image = set(f.values())
    whiskering = len(image) == len(f)
    if whiskering:
        for y in tgt_sigma:
            z, steps = y, 0
            while z not in image and steps <= len(tgt_sigma):
                z, steps = tgt_sigma[z], steps + 1
            if z not in image:
                whiskering = False
                break
    return {"acyclic_bounded": acyclic, "surjecting": surjecting,
            "whiskering": whiskering}
