import functools
import itertools
import random
from itertools import repeat
from operator import and_, mul

import pytest

from gphom.errors import IntegralityViolation, InvalidInput, NotRealizable
from gphom.graphs import (Arc, Graph, GraphMorphism, cycle_graph,
                          enumerate_morphisms)
from gphom.homotopy import enumerate_small_graphs
from gphom.model import _defects, morphism_key
from gphom.spectral import IntPolynomial, adjacency_matrix


def random_graph(rnd: random.Random, max_nodes: int, max_arcs: int) -> Graph:
    k = rnd.randint(1, max_nodes)
    nodes = tuple(str(i) for i in range(k))
    m = rnd.randint(0, max_arcs)
    arcs = tuple(Arc(f"a{i}", str(rnd.randrange(k)), str(rnd.randrange(k)))
                 for i in range(m))
    return Graph(nodes, arcs)


def relabel(X: Graph, rnd: random.Random) -> Graph:
    """An isomorphic copy: nodes and arcs renamed, both listed in a
    shuffled order."""
    nodes = list(X.nodes)
    arcs = list(X.arcs)
    rnd.shuffle(nodes)
    rnd.shuffle(arcs)
    node_names = {v: f"r{i}" for i, v in enumerate(nodes)}
    return Graph(tuple(node_names[v] for v in nodes),
                 tuple(Arc(f"ra{i}", node_names[a.src], node_names[a.tgt])
                       for i, a in enumerate(arcs)))


def brute_force_closed_walks(X: Graph, n: int):
    """Independent walk oracle: filter all arc n-tuples by adjacency."""
    walks = []
    for seq in itertools.product(X.arcs, repeat=n):
        if all(seq[i].src == seq[(i + 1) % n].tgt for i in range(n)):
            walks.append(tuple(a.id for a in seq))
    return walks


def brute_force_necklaces(X: Graph, n: int) -> list[tuple[str, ...]]:
    """Aperiodic closed walks of length n up to rotation: the sorted least
    rotations, found by building every rotation of every closed walk."""
    aperiodic = set()
    for walk in brute_force_closed_walks(X, n):
        rots = {walk[r:] + walk[:r] for r in range(n)}
        if len(rots) == n:
            aperiodic.add(min(rots))
    return sorted(aperiodic)


def brute_force_isomorphic(X: Graph, Y: Graph) -> bool:
    """Isomorphism oracle: try every unused node of Y for each node of X in
    node order, pruned only by degrees and by arc counts against every
    mapped node.  Exponential; for small graphs only."""
    if len(X.nodes) != len(Y.nodes) or len(X.arcs) != len(Y.arcs):
        return False

    def arc_count(G: Graph):
        cnt: dict[tuple[str, str], int] = {}
        for a in G.arcs:
            cnt[(a.src, a.tgt)] = cnt.get((a.src, a.tgt), 0) + 1
        return cnt

    cx, cy = arc_count(X), arc_count(Y)
    xn = list(X.nodes)

    def search(i: int, node_map: dict[str, str], used: set[str]) -> bool:
        if i == len(xn):
            return True
        v = xn[i]
        for w in Y.nodes:
            if w in used:
                continue
            if (X.indegree(v), X.outdegree(v)) != (Y.indegree(w), Y.outdegree(w)):
                continue
            if any(cx.get((v, u), 0) != cy.get((w, wu), 0) or
                   cx.get((u, v), 0) != cy.get((wu, w), 0)
                   for u, wu in node_map.items()):
                continue
            if cx.get((v, v), 0) != cy.get((w, w), 0):
                continue
            node_map[v] = w
            used.add(w)
            if search(i + 1, node_map, used):
                return True
            del node_map[v]
            used.remove(w)
        return False

    return search(0, {}, set())


def brute_force_morphisms(X: Graph, Y: Graph):
    """Every morphism X -> Y as (node_map, arc_map): each tuple of arc
    images in lexicographic order, kept when the endpoints agree, then each
    choice of images for the nodes touched by no arc."""
    touched = {v for a in X.arcs for v in (a.src, a.tgt)}
    free = [v for v in X.nodes if v not in touched]
    found = []
    for images in itertools.product(Y.arcs, repeat=len(X.arcs)):
        node_map: dict[str, str] = {}
        if all(node_map.setdefault(a.src, b.src) == b.src and
               node_map.setdefault(a.tgt, b.tgt) == b.tgt
               for a, b in zip(X.arcs, images)):
            arc_map = {a.id: b.id for a, b in zip(X.arcs, images)}
            for free_images in itertools.product(Y.nodes, repeat=len(free)):
                found.append(({**node_map, **dict(zip(free, free_images))},
                              arc_map))
    return found


@functools.lru_cache(maxsize=None)
def cycle_homs(n: int, X: Graph) -> tuple[GraphMorphism, ...]:
    """Every morphism C_n -> X, found by search; cached because the
    exhaustive tests ask for the same few graphs thousands of times."""
    return tuple(enumerate_morphisms(cycle_graph(n), X))


def brute_force_acyclic_bounded(f: GraphMorphism, N: int) -> bool:
    """Search oracle for acyclicity up to N: enumerate every morphism
    C_n -> X and C_n -> Y and check that composing with f is a bijection."""
    for n in range(1, N + 1):
        src = cycle_homs(n, f.source)
        tgt = cycle_homs(n, f.target)
        # morphism_key of f . m, without building and validating f . m
        images = {(tuple(f.node_map[m.node_map[v]] for v in m.source.nodes),
                   tuple(f.arc_map[m.arc_map[a.id]] for a in m.source.arcs))
                  for m in src}
        if len(images) != len(src) or images != {morphism_key(m) for m in tgt}:
            return False
    return True


def brute_force_periodic(S) -> tuple[str, ...]:
    """Walk oracle for the periodic part of an N-set: the elements x with
    sigma^n(x) = x for some n <= |S|, the largest period a finite N-set
    allows, in the order of S.elements.  Up to |S| steps from every
    element, so quadratic."""
    periodic = []
    for x in S.elements:
        y = x
        for _ in range(len(S.elements)):
            y = S.sigma[y]
            if y == x:
                periodic.append(x)
                break
    return tuple(periodic)


def brute_force_nset_whiskering(f) -> bool:
    """Walk oracle for N-set whiskerings: f injective, and from every
    element outside the image, at most |T| steps of sigma reach it."""
    image = set(f.map.values())
    if len(image) != len(f.map):
        return False
    T = f.target
    for y in T.elements:
        z = y
        for _ in range(len(T.elements)):
            if z in image:
                break
            z = T.sigma[z]
        if z not in image:
            return False
    return True


def brute_force_whiskering(f: GraphMorphism) -> bool:
    """Walk oracle for graph whiskerings: f injective on nodes and arcs,
    every arc into the image in it, every node outside with one arc in, and
    at most |Y| steps back along those arcs from each reach the image."""
    nm, am = f.node_map, f.arc_map
    if len(set(nm.values())) != len(nm) or len(set(am.values())) != len(am):
        return False
    node_image, arc_image = set(nm.values()), set(am.values())
    Y = f.target
    if any(b.tgt in node_image and b.id not in arc_image for b in Y.arcs):
        return False
    outside = [v for v in Y.nodes if v not in node_image]
    if any(Y.indegree(v) != 1 for v in outside):
        return False
    for v in outside:
        for _ in range(len(Y.nodes)):
            v = Y.in_arcs[v][0].src
            if v in node_image:
                break
        else:
            return False
    return True


def brute_force_factorize(f: GraphMorphism, depth: int):
    """Round-by-round oracle for the small-object factorization: each
    round rescans every node of W for defects and copies W into a new
    Graph, so the work grows as depth * |W|.  Returns (w, p, complete)."""
    X, Y = f.source, f.target
    W = X
    p_nodes, p_arcs = dict(f.node_map), dict(f.arc_map)
    fresh = 0
    for _ in range(depth):
        new_nodes, new_arcs = list(W.nodes), list(W.arcs)
        for x, b in list(_defects(W, Y, p_nodes, p_arcs)):
            while f"w{fresh}" in X.node_index or f"wa{fresh}" in X.arc_by_id:
                fresh += 1
            new_nodes.append(f"w{fresh}")
            new_arcs.append(Arc(f"wa{fresh}", x, f"w{fresh}"))
            p_nodes[f"w{fresh}"] = b.tgt
            p_arcs[f"wa{fresh}"] = b.id
            fresh += 1
        if len(new_nodes) == len(W.nodes):
            break
        W = Graph(tuple(new_nodes), tuple(new_arcs))
    w = GraphMorphism(X, W, {v: v for v in X.nodes},
                      {a.id: a.id for a in X.arcs})
    p = GraphMorphism(W, Y, p_nodes, p_arcs)
    return w, p, next(_defects(W, Y, p_nodes, p_arcs), None) is None


class CountingDict(dict):
    """A dict that counts its item lookups d[key]."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def dense_cycle_count(X: Graph, n: int) -> int:
    """Matrix-power oracle: tr(A^n) by n - 1 dense vector-matrix products
    per row."""
    A = adjacency_matrix(X)
    size = len(A)
    total = 0
    for i in range(size):
        vec = A[i][:]
        for _ in range(n - 1):
            vec = [sum(vec[k] * A[k][j] for k in range(size)) for j in range(size)]
        total += vec[i]
    return total


def walk_census(X: Graph, upto: int, bits: int = 1 << 24) -> list[int]:
    """Packed-walk oracle: [c_1, ..., c_upto], c_n = tr(A^n), without the
    characteristic polynomial.

    A closed walk never leaves the strongly connected component it starts
    in, so tr(A^n) is the sum of the traces of X.cyclic_blocks.  A lone node
    with d loops adds d^n.  Within a larger component, walk counts from all
    start nodes are pushed along its arcs together, once per length: start
    node s owns bit field s of every node's int, so one step is one big-int
    addition per arc, and c_n gains field j of node j for every j.  A count
    of walks of length n is at most d^n for d the largest indegree in the
    component, so with k nodes, fields of w bits with k * d^upto < 2^w never
    carry into each other, and the sum of the diagonal fields fits in one
    field too.  Start nodes go in batches that keep the packed vector within
    `bits` bits.  Empty when upto < 1.
    """
    if upto < 1:
        return []
    counts = [0] * upto
    for block in X.cyclic_blocks:
        k = len(block)
        if k == 1:   # a lone node with d loops adds d^n
            d, p = len(block[0]), 1
            for n in range(upto):
                p *= d
                counts[n] += p
            continue
        w = (k * max(map(len, block)) ** upto).bit_length()
        size = max(1, bits // (k * w))
        for s0 in range(0, k, size):
            # start node s owns field s - s0 of every node's int
            fields = range(0, min(size, k - s0) * w, w)
            vec = [0] * k
            vec[s0:s0 + len(fields)] = [1 << f for f in fields]
            diag = [0] * s0 + [((1 << w) - 1) << f for f in fields]
            # the diagonal fields, gathered in one int, are summed by
            # adding its upper half to its lower half until one is left
            folds = []
            m = len(fields)
            while m > 1:
                m -= m // 2
                folds.append((m * w, (1 << m * w) - 1))
            for n in range(upto):
                vec = list(map(sum, map(map, repeat(vec.__getitem__), block)))
                d = sum(map(and_, vec, diag))
                for h, low in folds:
                    d = (d >> h) + (d & low)
                counts[n] += d
    return counts


def dense_char_poly(A: list[list[int]]) -> IntPolynomial:
    """Dense Berkowitz oracle: copies each principal block and multiplies
    every entry, O(k^4)."""
    n = len(A)
    coeffs = [1]   # descending
    for k in range(1, n + 1):
        row = A[k - 1][:k - 1]
        vec = [A[i][k - 1] for i in range(k - 1)]
        t = [A[k - 1][k - 1]]
        if k > 1:
            m = len(vec)
            t.append(sum(row[i] * vec[i] for i in range(m)))
            M = [r[:k - 1] for r in A[:k - 1]]
            for _ in range(k - 2):
                vec = [sum(M[i][j] * vec[j] for j in range(m)) for i in range(m)]
                t.append(sum(row[i] * vec[i] for i in range(m)))
        new = [0] * (k + 1)
        for i, c in enumerate(coeffs):
            new[i] += c
        for m, tm in enumerate(t):
            for i, c in enumerate(coeffs):
                if i + m + 1 <= k:
                    new[i + m + 1] -= tm * c
        coeffs = new
    return IntPolynomial.from_list(list(reversed(coeffs)))


def mobius(n: int) -> int:
    """Moebius function by trial factorization."""
    if n < 1:
        raise InvalidInput("mobius needs n >= 1")
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def mobius_witt(c, n: int) -> int:
    """Witt-coordinate oracle: s_n = (1/n) * sum_{d|n} mobius(n/d) * c_d,
    every c_d read from the callable c, with the library's realizability
    errors.  Independent of the divisor recursion in gphom.witt."""
    if n < 1:
        raise InvalidInput("witt index must be >= 1")
    total = sum(mobius(n // d) * c(d) for d in range(1, n + 1) if n % d == 0)
    if total % n != 0:
        raise NotRealizable(f"divisor sum {total} at n={n} is not divisible by {n}")
    s = total // n
    if s < 0:
        raise NotRealizable(f"negative orbit count s_{n} = {s}")
    return s


def expand_log_exp(ghost, N: int) -> list[int]:
    """Coefficients of exp(sum_{n>=1} ghost(n) u^n / n) up to order N.

    Uses the derivative recurrence k*z_k = sum_{i<=k} c_i z_{k-i} with exact
    integer division; a remainder raises IntegralityViolation (integrality
    is a theorem for graphs, so this doubles as a self-test).
    """
    c: list[int] = []
    z = [1]
    for k in range(1, N + 1):
        c.append(ghost(k))
        acc = sum(map(mul, c, reversed(z)))
        q, r = divmod(acc, k)
        if r:
            raise IntegralityViolation(
                f"zeta coefficient z_{k} = {acc}/{k} not integral")
        z.append(q)
    return z


def zeta_exp_form(S, N: int) -> list[int]:
    """Zeta-series oracle for gphom.witt.zeta_product_form: coefficients of
    exp(sum c_n u^n / n) to order N, from the ghost components of the
    AlmostFiniteZSet S."""
    return expand_log_exp(S.ghost, N)


def count_calls(monkeypatch, module, name) -> list:
    """Record the first argument of every call to module.name."""
    real, calls = getattr(module, name), []

    def wrapper(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "trusted_construction: run with the library's unvalidated "
        "Graph._trusted and GraphMorphism._trusted, not the re-validating ones")


@pytest.fixture(autouse=True)
def revalidate_trusted(request, monkeypatch):
    """Build every graph and morphism that the library builds through
    _trusted by the validating constructor instead, so that each test also
    checks every internal construction it reaches.  A test marked
    trusted_construction keeps the unvalidated path."""
    if request.node.get_closest_marker("trusted_construction"):
        return
    for cls in (Graph, GraphMorphism):
        monkeypatch.setattr(cls, "_trusted",
                            classmethod(lambda cls, *fields: cls(*fields)))


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    # re-emit the acceptance verdicts; stdout capture hides the prints
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def small_corpus():
    """Exhaustive multigraphs with <= 3 nodes, <= 4 arcs."""
    return list(enumerate_small_graphs(3, 4))


@pytest.fixture(scope="session")
def seeded_corpus():
    """200 seeded random graphs with <= 4 nodes, <= 6 arcs."""
    rnd = random.Random(20240817)
    return [random_graph(rnd, 4, 6) for _ in range(200)]
