import random
import tracemalloc
from math import comb

import pytest

from gphom import spectral
from gphom.errors import IntegralityViolation, InvalidInput
from gphom.graphs import Arc, EMPTY, Graph, coproduct, cycle_graph, \
    cross_graph, dot_graph, figure_eight, path_graph, product, \
    undirected_cycle, enumerate_morphisms
from gphom.homotopy import signature
from gphom.spectral import (IntPolynomial, adjacency_matrix, char_poly,
                            closed_walk_counts, cycle_count, graph_char_poly,
                            graph_reversed_char_poly, newton_power_sums,
                            reversed_char_poly, zeta_series)
from gphom.witt import from_graph

from conftest import (brute_force_closed_walks, count_calls, dense_char_poly,
                      dense_cycle_count, expand_log_exp, random_graph,
                      walk_census)


def multigraph(rnd: random.Random, k: int) -> Graph:
    """k nodes and 3k random arcs, plus a loop and a parallel arc when k > 0."""
    pairs = [(rnd.randrange(k), rnd.randrange(k)) for _ in range(3 * k)]
    if k:
        pairs += [(k - 1, k - 1), pairs[0]]
    return Graph(tuple(str(i) for i in range(k)),
                 tuple(Arc(f"a{i}", str(u), str(v)) for i, (u, v) in enumerate(pairs)))


SIZES = range(25)


def test_adjacency_matrix_examples():
    assert adjacency_matrix(figure_eight()) == [[2]]
    A = adjacency_matrix(cross_graph())
    assert A[0] == [0, 1, 1, 1, 1]
    assert [row[0] for row in A] == [0, 1, 1, 1, 1]
    C3 = adjacency_matrix(cycle_graph(3))
    assert sum(sum(r) for r in C3) == 3 and all(sum(r) == 1 for r in C3)


def test_char_poly_worked_examples():
    # ascending coefficients: x^5 - 4x^3 and x^4 - 4x^2
    assert char_poly(adjacency_matrix(cross_graph())).coefficients == \
        (0, 0, 0, -4, 0, 1)
    assert char_poly(adjacency_matrix(undirected_cycle(4))).coefficients == \
        (0, 0, -4, 0, 1)
    assert char_poly(adjacency_matrix(cycle_graph(3))).coefficients == \
        (-1, 0, 0, 1)


def test_char_poly_monic_and_degree():
    rnd = random.Random(7)
    for _ in range(20):
        X = random_graph(rnd, 5, 8)
        a = char_poly(adjacency_matrix(X))
        assert a.degree == len(X.nodes)
        assert a[a.degree] == 1


def test_char_poly_matches_dense_oracle():
    rnd = random.Random(14)
    for k in SIZES:
        A = adjacency_matrix(multigraph(rnd, k))
        assert char_poly(A) == dense_char_poly(A)


def test_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(14)
    for k in SIZES:
        A = adjacency_matrix(multigraph(rnd, k))
        expected = sympy.Matrix(k, k, [x for row in A for x in row]).charpoly()
        assert list(char_poly(A).coefficients) == \
            [int(c) for c in reversed(expected.all_coeffs())]


def test_reversed_char_poly():
    assert reversed_char_poly(adjacency_matrix(cross_graph())).coefficients \
        == (1, 0, -4)
    assert reversed_char_poly(adjacency_matrix(undirected_cycle(4))).coefficients \
        == (1, 0, -4)
    assert reversed_char_poly(adjacency_matrix(cycle_graph(1))).coefficients \
        == (1, -1)


def test_reversal_identity():
    rnd = random.Random(8)
    for _ in range(20):
        X = random_graph(rnd, 5, 8)
        A = adjacency_matrix(X)
        a = char_poly(A)
        rev = reversed_char_poly(A)
        n = len(X.nodes)
        expected = [a[n - k] for k in range(n + 1)]
        while expected and expected[-1] == 0:
            expected.pop()
        assert list(rev.coefficients) == expected


def test_cycle_count_examples():
    assert cycle_count(cross_graph(), 2) == 8
    assert cycle_count(cross_graph(), 4) == 32
    assert cycle_count(figure_eight(), 3) == 8
    assert cycle_count(figure_eight(), 3) == \
        len(enumerate_morphisms(cycle_graph(3), figure_eight()))
    for m in range(1, 5):
        for n in range(1, 7):
            assert cycle_count(cycle_graph(m), n) == (m if n % m == 0 else 0)


def test_cycle_count_matches_enumeration(small_corpus):
    rnd = random.Random(9)
    for X in rnd.sample(small_corpus, 40):
        for n in range(1, 7):
            assert cycle_count(X, n) == \
                len(enumerate_morphisms(cycle_graph(n), X))


def test_closed_walk_counts_match_matrix_powers():
    rnd = random.Random(15)
    for k in range(0, 13, 2):
        X = multigraph(rnd, k)
        N = 2 * k + 2
        assert closed_walk_counts(X, N) == \
            [dense_cycle_count(X, n) for n in range(1, N + 1)]
    assert closed_walk_counts(cross_graph(), 0) == []


def layered_multigraph(rnd: random.Random, k: int) -> Graph:
    """k nodes in random layers: arcs inside a layer in both directions, and
    between layers only upwards, so some nodes lie on no cycle and the
    strongly connected components are several; plus a loop and a parallel
    arc."""
    layer = [rnd.randrange(4) for _ in range(k)]
    pairs = []
    while len(pairs) < 2 * k:
        u, v = rnd.randrange(k), rnd.randrange(k)
        if layer[u] <= layer[v]:
            pairs.append((u, v))
    pairs += [(0, 0), pairs[0]]
    return Graph(tuple(str(i) for i in range(k)),
                 tuple(Arc(f"a{i}", str(u), str(v)) for i, (u, v) in enumerate(pairs)))


def test_closed_walk_counts_sum_over_components():
    rnd = random.Random(17)
    for k in range(1, 13):
        X = layered_multigraph(rnd, k)
        X = coproduct(X, coproduct(path_graph(rnd.randrange(4)), multigraph(rnd, 3)))
        assert closed_walk_counts(X, 8) == \
            [dense_cycle_count(X, n) for n in range(1, 9)]


def test_closed_walk_counts_long_path_does_not_recurse():
    P = path_graph(3000)
    X = Graph(P.nodes, P.arcs + (Arc("back", "3000", "2999"),))
    assert closed_walk_counts(X, 6) == [0, 2, 0, 2, 0, 2]
    assert closed_walk_counts(P, 3) == [0, 0, 0]


def test_closed_walk_counts_match_brute_force(small_corpus):
    rnd = random.Random(16)
    for X in rnd.sample(small_corpus, 30):
        assert closed_walk_counts(X, 5) == \
            [len(brute_force_closed_walks(X, n)) for n in range(1, 6)]


def test_ghost_row_extends_past_degree():
    # Newton's identities past n = k become a recurrence of order k
    rnd = random.Random(17)
    for k in range(0, 9):
        X = multigraph(rnd, k)
        N = 3 * k + 3
        oracle = [dense_cycle_count(X, n) for n in range(1, N + 1)]
        assert from_graph(X).ghost_row(N) == oracle
        S = from_graph(X)
        assert S.ghost(N) == oracle[-1]
        assert S.ghost_row(N) == oracle


def test_ghost_row_with_factor_x_to_the_m():
    # det(xI - A) = x^m * q(x): whiskered cycles, and a path beside a cycle
    tree = [("0", "w0"), ("w0", "w1"), ("w0", "w2"), ("1", "w3")]
    graphs = [Graph(cycle_graph(3).nodes + tuple(f"w{i}" for i in range(4)),
                    cycle_graph(3).arcs + tuple(Arc(f"t{i}", s, t)
                                                for i, (s, t) in enumerate(tree))),
              coproduct(path_graph(5), cycle_graph(2)),
              coproduct(path_graph(3), figure_eight())]
    for X in graphs:
        N = 3 * len(X.nodes)
        oracle = [dense_cycle_count(X, n) for n in range(1, N + 1)]
        assert graph_char_poly(X)[0] == 0
        assert from_graph(X).ghost_row(N) == oracle
        assert newton_power_sums(reversed_char_poly(adjacency_matrix(X)), N) == oracle


def test_newton_power_sums_of_sparse_polynomials():
    # 1 - u^m has power sums m * [m | n]; the sums extend a list in place
    for m in (1, 2, 3, 7, 10000):
        d = IntPolynomial.from_list([1] + [0] * (m - 1) + [-1])
        want = [m if n % m == 0 else 0 for n in range(1, 2 * m + 4)]
        assert newton_power_sums(d, 2 * m + 3) == want
        p = newton_power_sums(d, m - 1)
        assert newton_power_sums(d, 2 * m + 3, p) is p and p == want
    # against the dense recurrence: short tails are read whole, long sparse
    # ones at their nonzero terms only, all-zero tails included
    for coeffs in ((1, 0, 0, 5, 0, 0, 0, -2), (1, 0), (1,) + (0,) * 20,
                   (1,) + (0,) * 16 + (5,) + (0,) * 22 + (-2,)):
        d = IntPolynomial(coeffs)
        p = []
        for k in range(1, 90):
            p.append(-k * d[k] - sum(d[i] * p[k - i - 1] for i in range(1, k)))
        assert newton_power_sums(d, 89) == p


def test_newton_consistency():
    rnd = random.Random(10)
    for _ in range(30):
        X = random_graph(rnd, 6, 9)
        a = reversed_char_poly(adjacency_matrix(X))
        assert newton_power_sums(a, len(X.nodes)) == walk_census(X, len(X.nodes))


def test_zeta_series_examples():
    Z = zeta_series(cycle_graph(1), 5)
    assert Z.coefficients == (1, 1, 1, 1, 1, 1)
    Z = zeta_series(cross_graph(), 8)
    assert Z.coefficients == (1, 0, 4, 0, 16, 0, 64, 0, 256)
    for m in range(1, 5):
        Z = zeta_series(cycle_graph(m), 6)
        denom = [1] + [0] * (m - 1) + [-1]
        assert list(Z.denominator.coefficients) == denom
    # 1/(1 - u^40), whose recurrences read one term
    Z = zeta_series(cycle_graph(40), 130)
    assert Z.coefficients == tuple(int(n % 40 == 0) for n in range(131))


def test_zeta_series_inverts_denominator():
    rnd = random.Random(11)
    for _ in range(15):
        X = random_graph(rnd, 4, 6)
        N = 2 * max(len(X.nodes), 1)
        Z = zeta_series(X, N)
        prod = [0] * (N + 1)
        for i, d in enumerate(Z.denominator.coefficients):
            for k in range(N + 1 - i):
                prod[i + k] += d * Z.coefficients[k]
        assert prod == [1] + [0] * N


def test_zeta_multiplicative_over_coproduct():
    rnd = random.Random(12)
    for _ in range(10):
        X = random_graph(rnd, 3, 4)
        Y = random_graph(rnd, 3, 4)
        N = 6
        zx = zeta_series(X, N).coefficients
        zy = zeta_series(Y, N).coefficients
        zc = zeta_series(coproduct(X, Y), N).coefficients
        prod = [sum(zx[i] * zy[k - i] for i in range(k + 1)) for k in range(N + 1)]
        assert list(zc) == prod


def test_ghost_multiplicative_over_product():
    rnd = random.Random(13)
    for _ in range(10):
        X = random_graph(rnd, 3, 4)
        Y = random_graph(rnd, 3, 4)
        P = product(X, Y)
        for n in range(1, 6):
            assert cycle_count(P, n) == cycle_count(X, n) * cycle_count(Y, n)


def test_expand_log_exp_rejects_nonintegral():
    with pytest.raises(IntegralityViolation):
        expand_log_exp(lambda n: 1 if n == 2 else 0, 3)


def test_cycle_count_rejects_bad_n():
    with pytest.raises(InvalidInput):
        cycle_count(cycle_graph(2), 0)


def test_polynomial_format():
    assert IntPolynomial((1, 0, -4)).format("u") == "1 - 4*u^2"
    assert IntPolynomial(()).format("x") == "0"
    assert IntPolynomial((0, 1)).format("x") == "x"
    assert IntPolynomial((-1, 0, 0, 1)).format("x") == "-1 + x^3"
    assert IntPolynomial((1,)).format("x") == "1"


# ---------------------------------------------------------------------------
# The packed kernels: bit fields at their widths, batches at every boundary

def graph_of(n: int, pairs) -> Graph:
    return Graph(tuple(str(i) for i in range(n)),
                 tuple(Arc(f"a{i}", str(u), str(v))
                       for i, (u, v) in enumerate(pairs)))


def loop_node_graph(loops: int) -> Graph:
    """Node 1 carries `loops` parallel loops and lies on a 3-cycle with nodes
    0 and 2; a pendant path 3 -> 4 -> 0 feeds in."""
    return graph_of(5, [(1, 1)] * loops
                    + [(0, 1), (1, 2), (2, 0), (3, 4), (4, 0)])


def complete_multigraph(k: int, m: int) -> Graph:
    """m arcs from every node to every node, loops included: every row sum
    and indegree is k*m, so the walks of length n from a node number
    exactly (k*m)^n, the bound the field widths are sized by."""
    return graph_of(k, [(u, v) for u in range(k) for v in range(k)] * m)


def scrambled_components() -> Graph:
    """Several strongly connected components whose nodes are listed out of
    order and interleaved, a long chain ending on a loop node, a loopless
    node, and parallel arcs."""
    pairs = [(7, 2), (2, 11), (11, 7), (11, 2),        # {2, 7, 11}
             (9, 4), (4, 9), (9, 9),                   # {4, 9}, with a loop
             (0, 0), (0, 0), (0, 0),                   # {0}, three loops
             (5, 1), (1, 3), (3, 10), (10, 6), (6, 8), (8, 0),   # chain into 0
             (2, 4), (4, 12)]                          # 12 is loopless
    return graph_of(13, pairs)


def loop_cycle(k: int, r: int) -> Graph:
    """A k-cycle with r loops on every node: A = rI + C, so det(I - uA) is
    (1 - ru)^k - u^k.  Its coefficients C(k, j) r^j are, for small k, within
    a few bits of the Hadamard bound Berkowitz's packed product is sized by,
    and the first sweep field of a row holds r, its largest value."""
    return graph_of(k, [(i, (i + 1) % k) for i in range(k)] +
                    [(i, i) for i in range(k) for _ in range(r)])


def loop_cycle_det(k: int, r: int) -> IntPolynomial:
    det = [comb(k, j) * (-r) ** j for j in range(k + 1)]
    det[k] -= 1
    return IntPolynomial.from_list(det)


def edge_graphs() -> list[Graph]:
    graphs = [EMPTY, dot_graph(), scrambled_components(),
              coproduct(path_graph(12), loop_node_graph(1)),
              complete_multigraph(2, 1), complete_multigraph(3, 2),
              complete_multigraph(4, 3)]
    for b in (1, 2, 3, 7, 8):
        graphs += [loop_node_graph(2 ** b - 1), loop_node_graph(2 ** b)]
    graphs += [loop_cycle(k, r) for k, r in ((2, 5), (2, 8), (3, 7), (3, 8), (6, 2 ** 7))]
    return graphs


def test_packed_char_poly_at_field_width_edges():
    for X in edge_graphs():
        A = adjacency_matrix(X)
        a = dense_char_poly(A)
        assert char_poly(A) == a
        n = len(A)
        rev = [a[n - k] for k in range(n + 1)]
        while rev and rev[-1] == 0:
            rev.pop()
        assert list(reversed_char_poly(A).coefficients) == rev


def test_loop_cycle_closed_form(monkeypatch):
    """Blocks past 64 nodes widen the packed polynomial's fields as they go;
    the small bit budget also splits their sweeps into batches."""
    cases = [(k, r) for k in (2, 3, 5, 64, 65, 66, 130) for r in (1, 2, 5, 8)]
    for bits in (spectral._PACK_BITS, 3000):
        monkeypatch.setattr(spectral, "_PACK_BITS", bits)
        for k, r in cases:
            assert graph_reversed_char_poly(loop_cycle(k, r)) == loop_cycle_det(k, r)


def large_blocks() -> list[Graph]:
    """ucycle:70 and random components of 65, 80 and 100 nodes, past the
    first width of the packed polynomial."""
    rnd = random.Random(36)
    graphs = [undirected_cycle(70)]
    for k in (65, 80, 100):
        pairs = [(i, (i + 1) % k) for i in range(k)]
        pairs += [(rnd.randrange(k), rnd.randrange(k)) for _ in range(2 * k)]
        graphs.append(graph_of(k, pairs))
    return graphs


def test_large_blocks_match_walk_counts(monkeypatch):
    """By Newton's identities the power sums of the packed polynomial are
    the walk counts tr(A^n), which the walk oracle finds without it."""
    graphs = large_blocks()
    for bits in (spectral._PACK_BITS, 1 << 16):
        monkeypatch.setattr(spectral, "_PACK_BITS", bits)
        for X in graphs:
            n = len(X.nodes)
            d = reversed_char_poly(adjacency_matrix(X))
            assert d.degree <= n
            assert newton_power_sums(d, n) == walk_census(X, n, bits)


def test_packed_char_poly_matches_sympy_at_edges():
    sympy = pytest.importorskip("sympy")
    for X in edge_graphs()[1:]:
        A = adjacency_matrix(X)
        k = len(A)
        expected = sympy.Matrix(k, k, [x for row in A for x in row]).charpoly()
        assert list(char_poly(A).coefficients) == \
            [int(c) for c in reversed(expected.all_coeffs())]


def test_packed_census_at_field_width_edges():
    # the walk oracle's fields and the library's census, at their widths
    for census in (walk_census, closed_walk_counts):
        for X in edge_graphs():
            N = 10
            assert census(X, N) == \
                [dense_cycle_count(X, n) for n in range(1, N + 1)]
        # one node with d loops: c_n = d^n, the full width of a field
        for d in (1, 2 ** 5 - 1, 2 ** 5, 2 ** 12 - 1, 2 ** 12):
            assert census(graph_of(1, [(0, 0)] * d), 9) == \
                [d ** n for n in range(1, 10)]
        # a complete multigraph of k nodes and m-fold arcs: c_n = (k*m)^n
        for k, m in ((2, 1), (3, 2), (5, 1)):
            assert census(complete_multigraph(k, m), 12) == \
                [(k * m) ** n for n in range(1, 13)]


@pytest.mark.parametrize("bits", [1, 40, 300, 3000])
def test_packed_kernels_at_every_batch_boundary(monkeypatch, bits):
    """A bit budget of one bit packs one field per batch; the others split
    the steps and start nodes at assorted boundaries.  The components of
    16 and 17 nodes take Berkowitz's sparse rows in batches short of the
    whole block."""
    rnd = random.Random(bits)
    graphs = edge_graphs() + [multigraph(rnd, k) for k in (5, 9, 14)] + \
        [layered_multigraph(rnd, 11), undirected_cycle(16), theta_graph(6, 7, 5)]
    expected = [(char_poly(adjacency_matrix(X)), walk_census(X, 9))
                for X in graphs]
    monkeypatch.setattr(spectral, "_PACK_BITS", bits)
    for X, (poly, counts) in zip(graphs, expected):
        A = adjacency_matrix(X)
        assert char_poly(A) == poly == dense_char_poly(A)
        assert walk_census(X, 9, bits) == counts
        # Berkowitz cut at orders below and above the blocks' sizes
        for N in (1, 4, 9):
            assert newton_power_sums(spectral._det(X.cyclic_blocks, N), N) == counts[:N]
        assert closed_walk_counts(X, 9) == counts


def test_census_memory_stays_within_bit_budget(monkeypatch):
    # below its node count, the census of ucycle:100 runs Berkowitz cut at
    # u^60: unbatched, each of the 100 rows packs a sweep field for each of
    # the 100 steps, as wide as r^min(k+1, 60), 4,330 bits in all (54 kB over
    # the rows); an 8 kB budget cuts the steps into batches
    X, N, bits = undirected_cycle(100), 60, 1 << 16

    def peak() -> tuple[list[int], int]:
        tracemalloc.start()
        try:
            counts = closed_walk_counts(X, N)
            return counts, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    counts, unbatched = peak()
    monkeypatch.setattr(spectral, "_PACK_BITS", bits)
    batched_counts, batched = peak()
    # below the length of the cycle, a closed walk steps back and forth
    assert batched_counts == counts == \
        [0 if n % 2 else 100 * comb(n, n // 2) for n in range(1, N + 1)]
    # the live state: the old and new sweep vectors and the t's of at most
    # `bits` each, plus the masks and the ints' object headers
    assert batched < 4 * bits // 8 + 256 * len(X.nodes)
    assert 4 * batched < unbatched


def cut(d: IntPolynomial, N: int) -> IntPolynomial:
    """d without its terms past u^N."""
    return IntPolynomial.from_list(d.coefficients[:N + 1])


def test_truncated_det_matches_full_polynomial_and_walk_oracle(monkeypatch):
    """_det at order N, whose Berkowitz computes only u^0..u^N, against the
    whole polynomial cut at u^N, and its Newton sums against the walk
    oracle: 600 seeded graphs of at most 14 nodes at 7 orders each, and the
    large blocks at 8 orders, below and above their sizes, under bit
    budgets that batch their steps one to a batch and upwards."""
    rnd = random.Random(29)
    for _ in range(600):
        X = random_graph(rnd, 14, 30)
        full, walks = graph_reversed_char_poly(X), walk_census(X, 25)
        for N in (1, 2, 3, 5, 8, 13, 25):
            d = spectral._det(X.cyclic_blocks, N)
            assert d == cut(full, N)
            assert newton_power_sums(d, N) == walks[:N]
    graphs = large_blocks()
    expected = [(graph_reversed_char_poly(X), walk_census(X, 2 * len(X.nodes)))
                for X in graphs]
    for bits in (1, 40, 3000, 1 << 24):
        monkeypatch.setattr(spectral, "_PACK_BITS", bits)
        for X, (full, walks) in zip(graphs, expected):
            k = len(X.nodes)
            for N in (1, 3, 8, 25, 64, 65, k - 1, 2 * k):
                d = spectral._det(X.cyclic_blocks, N)
                assert d == cut(full, N)
                assert newton_power_sums(d, N) == walks[:N]


def test_census_and_zeta_match_walk_and_dense_oracles():
    """The census reads det(I - uA) cut at its order below the node count,
    and whole at or above it: on fresh graphs at orders below and above
    their blocks' sizes, against the walk oracle and dense matrix powers,
    and the zeta series against exp of the oracle's census."""
    graphs = [X for X, _ in structured_graphs()] + edge_graphs() + planted_graphs()
    for X in graphs:
        k = len(X.nodes)
        walks = walk_census(X, k + 2)
        block = max(map(len, X.cyclic_blocks), default=0)
        for N in sorted({1, 2, max(block - 1, 1), block + 1, k + 2}):
            assert closed_walk_counts(Graph(X.nodes, X.arcs), N) == walks[:N]
            assert walks[N - 1] == dense_cycle_count(X, N)
            assert zeta_series(Graph(X.nodes, X.arcs), N).coefficients == \
                tuple(expand_log_exp(lambda n: walks[n - 1], N))


def test_char_poly_rejects_negative_entries():
    with pytest.raises(InvalidInput, match="nonnegative"):
        char_poly([[0, -1], [1, 0]])
    with pytest.raises(InvalidInput, match="nonnegative"):
        reversed_char_poly([[1, 0], [0, -2]])
    assert char_poly([[0, 0], [0, 0]]).coefficients == (0, 0, 1)


@pytest.mark.parametrize("A", [[[1], [1, 1]], [[0, 1], [1]], [[1, 2]], [[]],
                               [[1.5]], [[0.0, 1], [1, 0]], [[2, -1], [0, 1]],
                               [[None]], [["1"]], [1, 2]])
def test_char_poly_rejects_ragged_and_non_int_matrices(A):
    for f in (char_poly, reversed_char_poly):
        with pytest.raises(InvalidInput, match="square matrix of nonnegative integers"):
            f(A)


# ---------------------------------------------------------------------------
# det(I - uA) factored over strongly connected components, and the census's
# lone loop nodes: the library and the walk oracle share the component pass,
# so only these dense oracles can catch a fault in it

def planted_components(rnd: random.Random, parts: int) -> Graph:
    """`parts` strongly connected parts of 1 to 5 nodes on shuffled node
    numbers, so the components are listed out of node order and interleave.
    A part of two or more nodes is a cycle plus random inner arcs, parallel
    ones among them; a lone node has 0 to 3 loops.  Arcs between parts run
    only forwards in the order of the parts, one of them into a chain of
    loopless nodes that ends on a loop node."""
    sizes = [rnd.choice((1, 1, 2, 3, 5)) for _ in range(parts)]
    chain_length = rnd.randrange(6)
    ids = list(range(sum(sizes) + chain_length + 1))
    rnd.shuffle(ids)
    groups, start = [], 0
    for size in sizes:
        groups.append(ids[start:start + size])
        start += size
    chain = ids[start:]
    pairs = list(zip(chain, chain[1:])) + [(chain[-1], chain[-1])]
    for g in groups:
        if len(g) > 1:
            pairs += list(zip(g, g[1:] + g[:1]))
            pairs += [(rnd.choice(g), rnd.choice(g)) for _ in range(len(g))]
        else:
            pairs += [(g[0], g[0])] * rnd.randrange(4)
    for _ in range(2 * parts):
        a, b = sorted(rnd.randrange(parts) for _ in range(2))
        if a < b:
            pairs.append((rnd.choice(groups[a]), rnd.choice(groups[b])))
    pairs += [(rnd.choice(groups[-1]), chain[0]), pairs[0]]
    rnd.shuffle(pairs)
    return graph_of(len(ids), pairs)


def planted_graphs() -> list[Graph]:
    rnd = random.Random(31)
    return [EMPTY] + [planted_components(rnd, parts)
                      for parts in range(1, 6) for _ in range(6)]


def test_factored_char_poly_matches_dense_oracle():
    for X in planted_graphs():
        A = adjacency_matrix(X)
        a = dense_char_poly(A)
        assert char_poly(A) == a
        n = len(A)
        assert reversed_char_poly(A) == \
            IntPolynomial.from_list(a[n - k] for k in range(n + 1))


def test_factored_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for X in planted_graphs():
        A = adjacency_matrix(X)
        k = len(A)
        expected = sympy.Matrix(k, k, [x for row in A for x in row]).charpoly()
        assert list(char_poly(A).coefficients) == \
            [int(c) for c in reversed(expected.all_coeffs())]


def test_long_path_runs_no_berkowitz(monkeypatch):
    berkowitz = count_calls(monkeypatch, spectral, "_berkowitz")
    A = adjacency_matrix(path_graph(2000))
    assert char_poly(A).coefficients == (0,) * len(A) + (1,)
    assert reversed_char_poly(A).coefficients == (1,)
    assert berkowitz == []


def test_berkowitz_runs_only_on_blocks_of_two_or_more(monkeypatch):
    contracted = count_calls(monkeypatch, spectral, "_contract")
    berkowitz = count_calls(monkeypatch, spectral, "_berkowitz")
    A = adjacency_matrix(scrambled_components())
    assert char_poly(A) == dense_char_poly(A)
    # the blocks {2, 7, 11} and {4, 9}; the lone nodes, with loops or
    # without, enter the product directly.  Both blocks contract: {4, 9} to
    # the bouquet 1 - u - u^2 at 9, {2, 7, 11} to 1 - u^2 - u^3 at 2
    assert sorted(map(len, contracted)) == [2, 3]
    assert berkowitz == []
    # a block with three nodes of two arcs in each is refused
    A = adjacency_matrix(coproduct(scrambled_components(), undirected_cycle(3)))
    assert char_poly(A) == dense_char_poly(A)
    assert list(map(len, berkowitz)) == [3]


def test_census_sums_loop_nodes_beside_a_component():
    rnd = random.Random(32)
    for _ in range(6):
        k, lone = rnd.randint(3, 7), rnd.randint(10, 20)
        pairs = [(u, (u + 1) % k) for u in range(k)]
        pairs += [(rnd.randrange(k), rnd.randrange(k)) for _ in range(k)]
        for v in range(k, k + lone):   # 0 to 3 loops, fed from earlier nodes
            pairs += [(v, v)] * rnd.randrange(4) + [(rnd.randrange(v), v)]
        ids = list(range(k + lone))
        rnd.shuffle(ids)
        X = graph_of(len(ids), [(ids[u], ids[v]) for u, v in pairs])
        assert closed_walk_counts(X, 8) == \
            [dense_cycle_count(X, n) for n in range(1, 9)]


# ---------------------------------------------------------------------------
# One component pass per graph, read by every spectral invariant and by the
# walk oracle, so only the dense oracles below can catch a fault in the pass
# itself

def routes(n: int, legs) -> Graph:
    """Nodes 0..n-1, plus a chain of l arcs from u to v through new nodes
    for every (u, v, l) in `legs`."""
    pairs = []
    for u, v, length in legs:
        inner = list(range(n, n + length - 1))
        n += length - 1
        pairs += zip([u] + inner, inner + [v])
    return graph_of(n, pairs)


def shuffled(X: Graph, rnd: random.Random) -> Graph:
    """X with its node numbers permuted and its arcs in random order, so
    the components are listed out of node order."""
    ids = list(range(len(X.nodes)))
    rnd.shuffle(ids)
    arcs = list(X.arcs)
    rnd.shuffle(arcs)
    return graph_of(len(ids), [(ids[int(a.src)], ids[int(a.tgt)]) for a in arcs])


def theta_graph(p: int, q: int, r: int) -> Graph:
    """Branch nodes 0 and 1, joined by chains of p and q arcs from 0 to 1
    and one of r arcs back: det(I - uA) = 1 - u^(p+r) - u^(q+r)."""
    return routes(2, [(0, 1, p), (0, 1, q), (1, 0, r)])


def bouquet(lengths) -> Graph:
    """Cycles of the given lengths through node 0: det(I - uA) is
    1 - sum of u^l."""
    return routes(1, [(0, 0, length) for length in lengths])


def structured_graphs() -> list[tuple[Graph, IntPolynomial | None]]:
    """Long chains, theta graphs, bouquets, a chain ending on a loop node,
    parallel arcs and shuffled components, each with its det(I - uA) where
    a closed form gives it."""
    rnd = random.Random(34)
    one = IntPolynomial((1,))
    cases = [(routes(2, [(0, 1, 24)]), one),
             (routes(1, [(0, 0, 23)]), IntPolynomial.from_list([1] + [0] * 22 + [-1])),
             (routes(2, [(0, 1, 14), (1, 1, 1), (1, 1, 1)]), IntPolynomial((1, -2))),
             (routes(2, [(0, 1, 1), (0, 1, 1), (1, 0, 1)]), IntPolynomial((1, 0, -2))),
             (scrambled_components(), None)]
    for _ in range(6):
        p, q, r = (rnd.randint(1, 5) for _ in range(3))
        det = [1] + [0] * (max(p, q) + r)
        det[p + r] -= 1
        det[q + r] -= 1
        cases.append((theta_graph(p, q, r), IntPolynomial.from_list(det)))
        lengths = [rnd.randint(1, 5) for _ in range(rnd.randint(1, 4))]
        det = [1] + [0] * max(lengths)
        for length in lengths:
            det[length] -= 1
        cases.append((bouquet(lengths), IntPolynomial.from_list(det)))
    cases += [(shuffled(X, rnd), det) for X, det in cases]
    # two parallel copies of a few arcs of each shuffled theta and bouquet
    for X, _ in cases[-12:]:
        extra = rnd.sample(X.arcs, 2)
        pairs = [(a.src, a.tgt) for a in X.arcs + 2 * tuple(extra)]
        cases.append((graph_of(len(X.nodes), pairs), None))
    return cases + [(X, None) for X in planted_graphs()[1::5]]


def test_graph_polynomial_matches_dense_oracle():
    for X, closed_form in structured_graphs():
        A = adjacency_matrix(X)
        a = dense_char_poly(A)
        det = IntPolynomial.from_list(reversed(a.coefficients))
        assert graph_char_poly(X) == char_poly(A) == a
        assert graph_reversed_char_poly(X) == reversed_char_poly(A) == det
        assert closed_form in (None, det)


def test_graph_census_matches_dense_oracle():
    for X, _ in structured_graphs():
        assert closed_walk_counts(X, 8) == \
            [dense_cycle_count(X, n) for n in range(1, 9)]


def test_graph_routes_build_no_dense_matrix(monkeypatch):
    dense = count_calls(monkeypatch, spectral, "adjacency_matrix")
    for X in (cross_graph(), scrambled_components(), path_graph(3000)):
        signature(X)
        zeta_series(X, 8)
        from_graph(X).ghost(5)
    assert dense == []


def test_signature_is_kept_on_the_instance(monkeypatch):
    dets = count_calls(monkeypatch, spectral, "_det")
    berkowitz = count_calls(monkeypatch, spectral, "_berkowitz")
    X = cross_graph()
    assert signature(X) == signature(X)
    assert len(dets) == 1
    # kept per instance, not per equal graph
    assert signature(cross_graph()) == signature(X)
    assert len(dets) == 2
    assert berkowitz == []


# ---------------------------------------------------------------------------
# The rome contraction: a block with at most two nodes of other than one arc
# in, against closed forms, _berkowitz and the dense oracle

def upoly(terms) -> IntPolynomial:
    """The sum of c u^e over the (e, c) in terms."""
    coeffs = [0] * (max(e for e, _ in terms) + 1)
    for e, c in terms:
        coeffs[e] += c
    return IntPolynomial.from_list(coeffs)


def rome_graph(a, b, c, d) -> Graph:
    """Rome nodes 0 and 1 and a chain of l arcs for each l: from 0 to 0 in
    a, from 1 to 0 in b, from 0 to 1 in c and from 1 to 1 in d."""
    return routes(2, [(0, 0, x) for x in a] + [(1, 0, x) for x in b]
                  + [(0, 1, x) for x in c] + [(1, 1, x) for x in d])


def rome_det(a, b, c, d) -> IntPolynomial:
    """det(I - A_R(u)) = (1 - a)(1 - d) - bc of rome_graph(a, b, c, d),
    each entry the sum of u^l over its lengths."""
    return upoly([(0, 1)] + [(x, -1) for x in a + d]
                 + [(x + y, 1) for x in a for y in d]
                 + [(x + y, -1) for x in b for y in c])


def test_cycles_contract_to_one_minus_u_to_the_k(monkeypatch):
    contracted = count_calls(monkeypatch, spectral, "_contract")
    for k in (2, 3, 64, 65, 10000):
        X = cycle_graph(k)
        assert graph_reversed_char_poly(X) == upoly([(0, 1), (k, -1)])
        if k < 100:
            assert IntPolynomial.from_list(
                spectral._berkowitz(X.cyclic_blocks[0])) == upoly([(0, 1), (k, -1)])
    # two 5,000-cycles: the product skips the zeros of both factors
    berkowitz = count_calls(monkeypatch, spectral, "_berkowitz")
    X = coproduct(cycle_graph(5000), cycle_graph(5000))
    assert graph_reversed_char_poly(X) == \
        upoly([(0, 1), (5000, -2), (10000, 1)])
    assert berkowitz == []
    assert list(map(len, contracted)) == [2, 3, 64, 65, 10000, 5000, 5000]


def test_bouquets_and_two_node_romes_contract_to_closed_forms(monkeypatch):
    berkowitz = count_calls(monkeypatch, spectral, "_berkowitz")
    rnd = random.Random(36)
    cases = [(bouquet(lengths), upoly([(0, 1)] + [(x, -1) for x in lengths]))
             for lengths in ([2], [1, 2, 5], [3, 3], [1, 1, 4], [2, 2, 2, 2])]
    # chains ending on a loop node: a loop and a longer cycle through it
    cases += [(routes(1, [(0, 0, 1), (0, 0, 9)]), upoly([(0, 1), (1, -1), (9, -1)])),
              (theta_graph(2, 3, 4), upoly([(0, 1), (6, -1), (7, -1)]))]
    # theta graphs with two chains each way, so both branch nodes have two
    # arcs in; then random two-node romes, loops and parallel chains included
    legs = [([], [1, 3], [2, 5], []), ([], [4, 4], [1, 2], []),
            ([2], [3], [1], [4]), ([1], [1, 1], [1], [1])]
    for _ in range(12):
        a, b, c, d = ([rnd.randint(1, 6) for _ in range(rnd.randint(lo, 3))]
                      for lo in (0, 1, 1, 0))
        if len(a) + len(b) > 1 and len(c) + len(d) > 1:
            legs.append((a, b, c, d))
    cases += [(rome_graph(*leg), rome_det(*leg)) for leg in legs]
    cases += [(shuffled(X, rnd), det) for X, det in cases]
    for X, det in cases:
        A = adjacency_matrix(X)
        assert graph_reversed_char_poly(X) == reversed_char_poly(A) == det
        assert char_poly(A) == dense_char_poly(A)
    assert berkowitz == []


def planted_chain_graph(rnd: random.Random) -> Graph:
    """One to four hub nodes with random arcs among them, and one to five
    chains of 1 to 4 arcs between random nodes, on shuffled node numbers:
    its blocks hold chain nodes, and often at most two other nodes."""
    hubs = rnd.randint(1, 4)
    pairs = [(rnd.randrange(hubs), rnd.randrange(hubs))
             for _ in range(rnd.randint(0, 3 * hubs))]
    X = routes(hubs, [(rnd.randrange(hubs), rnd.randrange(hubs), rnd.randint(1, 4))
                      for _ in range(rnd.randint(1, 5))])
    pairs += [(int(a.src), int(a.tgt)) for a in X.arcs]
    return shuffled(graph_of(len(X.nodes), pairs), rnd)


def test_contraction_matches_berkowitz_and_dense_oracle():
    rnd = random.Random(37)
    blocks = contracted = 0
    for _ in range(2500):
        X = planted_chain_graph(rnd)
        for block in X.cyclic_blocks:
            if len(block) < 2:
                continue
            blocks += 1
            want = IntPolynomial.from_list(spectral._berkowitz(block))
            got = spectral._contract(block)
            if got is not None:
                contracted += 1
                assert IntPolynomial.from_list(got) == want, block
        A = adjacency_matrix(X)
        assert char_poly(A) == dense_char_poly(A)
    # 331 k-cycles, 1,081 blocks with one rome node and 608 with two
    assert (blocks, contracted) == (2410, 2020)
