"""Exact integer linear algebra over the adjacency operator.

Two primitives carry every invariant, and both read `Graph.cyclic_blocks`,
the strongly connected components holding a cycle, found once per graph.
`graph_reversed_char_poly` gives det(I - uA), the product of det(I - uA_C)
over them by the division-free Berkowitz algorithm, once per graph; the
zeta series and the ghost components derive from it.  `closed_walk_counts`
gives tr(A^n) by pushing walk counts along the components' arcs.  Each
route checks the other but for the shared component pass, which the tests
check against dense oracles.  `char_poly(A)` builds the components from A.

Both advance many small vectors at once: the vectors' entries for one node
sit in bit fields of one Python int, so a single big-int addition does the
per-vector arithmetic in C.  The entries are nonnegative and bounded, and
each field's width follows from its bound, so fields never carry into each
other.  Berkowitz keeps its polynomial packed too, signed coefficients in
fields as wide as Hadamard's bound asks, so one big-int product per
bordering step is its whole Toeplitz update.  The two routes pack
independently.  No floating point anywhere: all coefficients are Python
ints.
"""

from __future__ import annotations

from itertools import repeat
from math import prod
from operator import add, and_, index, itemgetter, lshift, mul, neg, rshift, sub

from .errors import IntegralityViolation, InvalidInput
from .graphs import Graph, _Value, _cyclic_blocks, _set

_PACK_BITS = 1 << 24   # bit budget of one batch of packed vectors


class IntPolynomial(_Value):
    """Integer polynomial, coefficients ascending by degree."""

    def __init__(self, coefficients: tuple[int, ...]):
        _set(self, "coefficients", coefficients)

    @staticmethod
    def from_list(coeffs) -> "IntPolynomial":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return IntPolynomial(tuple(map(int, c)))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else -1

    def __getitem__(self, k: int) -> int:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0

    def format(self, var: str = "x") -> str:
        """Canonical ascending text, e.g. '1 - 4*u^2'."""
        if not self.coefficients:
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                power = var if k == 1 else f"{var}^{k}"
                term = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


def adjacency_matrix(X: Graph) -> list[list[int]]:
    """Entry (i, j) counts arcs from node i to node j, in node order."""
    idx = X.node_index
    n = len(X.nodes)
    A = [[0] * n for _ in range(n)]
    for a in X.arcs:
        A[idx[a.src]][idx[a.tgt]] += 1
    return A


def _berkowitz(block: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - B), highest degree first, by the Berkowitz
    algorithm (division-free, exact) with all bordering steps at once.  B is
    a block of Graph.cyclic_blocks of two or more nodes, read as a matrix:
    the transpose of the component's, with the same determinant.

    Step k borders the principal k block M_k with row R_k, column S_k and
    corner b_kk.  Highest degree first, det(xI - M_k) lists the coefficients
    c_j of det(I - uM_k) = sum_j c_j u^j, and step k multiplies that by
    Q = 1 - sum_i t_i(k) u^(i+1), t(k) = (b_kk, R_k S_k, R_k M_k S_k, ...,
    R_k M_k^(k-1) S_k), dropping the powers past u^(k+1).

    The sweeps.  The int V[i] holds (M_k^j S_k)[i] in a bit field of step
    k, for every open step k > i, so one sweep U = B V, a big-int addition
    per arc, advances every step: t_j(k) is step k's field of U[k].  Step
    k's field counts weighted walks of length <= k + 1 from one row, so
    with r the largest row sum it is at most r^(k+1), and its width is that
    of r^(k+1), wherever it sits; the entries are nonnegative, so fields
    never borrow or carry into each other.  The fields go in descending
    order, the last step at offset 0.  V[i] is U[i] with the fields of the
    steps <= i cleared, and once sweep k has run, step k has all its t and
    its field is cleared from every row (a batch's first step's, one sweep
    later): those are the high fields, so the ints shrink as the sweeps
    go.  The steps go in batches that keep the packed vectors within
    _PACK_BITS bits.

    The product (Kronecker substitution).  The polynomial stays packed as
    P = sum_j c_j 2^(jW), and Q, read off the sweeps' fields with C-level
    maps, is packed the same way, so one big-int product is the whole
    Toeplitz update: P*Q mod 2^((k+2)W), taken balanced (minus 2^((k+2)W)
    when its top bit is set), is P's next value exactly while every
    |c_j| < 2^(W-1).  A zero t costs nothing: on a long cycle Q is 1 but at
    the last step.  W comes from Hadamard's bound: c_j is a sum of j x j
    principal minors, so |c_j| <= e_j(rho) <= prod (1 + rho_i) <=
    sqrt(prod 2(1 + rho_i^2)), with rho_i the 2-norm of row i and rho_i^2
    the sum of its squared arc multiplicities; the product over the first
    h + 1 rows covers the steps up to h.  W covers the first 64 steps, then
    an eighth more steps at a time, each time unpacking P and repacking it
    wider, so a large block's early products stay short.  P is unpacked
    for the last time at the end.
    """
    n = len(block)
    # ends[k]: the width of the sweep fields of the steps before k, step k's
    # holding r^(k+1); vals[i]: 1 + rho_i^2
    r, p, ends, vals = max(map(len, block)), 1, [0], []
    for row in block:
        p *= r
        ends.append(ends[-1] + p.bit_length())
        vals.append(1 + sum(map(row.count, row)))
    # W covers the steps up to h: sqrt(2^(h+1) bound) < 2^(W-1)
    h = min(n, 64) - 1
    bound = prod(vals[:h + 1])
    W = (bound.bit_length() + h + 2) // 2 + 1
    P = 1
    k0 = 0
    while k0 < n:
        k1 = k0 + 1
        while k1 < n and (k1 + 1) * (ends[k1 + 1] - ends[k0]) <= _PACK_BITS:
            k1 += 1
        # the arcs of the leading k1 x k1 block
        rows = block if k1 == n else [[j for j in row if j < k1] for row in block[:k1]]
        # step k's field runs from bit top - ends[k + 1] up to top - ends[k]
        top = ends[k1]
        edges = [1 << top - e for e in ends[k0:k1 + 1]]
        units = edges[1:]
        keep = [-1] * k0 + [u - 1 for u in units]   # clears the fields <= i
        diag = [0] * k0 + list(map(sub, edges, units))   # field i of row i
        # sweeping unit vectors gives t_0(k) = b_kk and V[i] = S_k[i]
        V = [0] * k0 + units
        D = []   # D[j]: t_j(k) in step k's field, for every k
        for j in range(k1 - 1):
            U = list(map(sum, map(map, repeat(V.__getitem__), rows)))
            D.append(sum(map(and_, U, diag)))
            if j > k0:   # the steps <= j are closed: clear their fields from every row
                keep[:j] = repeat(keep[j], j)
                diag[j] = 0
            V = list(map(and_, U, keep))
        # the last sweep is for t_(k1-1)(k1-1) only
        D.append(sum(map(V.__getitem__, rows[-1])) & diag[-1])
        for k in range(k0, k1):
            if k > h:   # an eighth more steps, and P repacked at the new W
                coeffs = _unpack(P, W, k + 1)
                bound *= prod(vals[h + 1:h + h // 8 + 1])
                h = min(n - 1, h + h // 8)
                W = (bound.bit_length() + h + 2) // 2 + 1
                P = sum(map(lshift, coeffs, range(0, (k + 1) * W, W)))
            # Q = 1 - q, q = sum_i t_i 2^((i+1)W), t_i step k's field of D[i]
            t = list(map(and_, map(rshift, D[:k + 1], repeat(top - ends[k + 1])),
                         repeat((1 << ends[k + 1] - ends[k]) - 1)))
            step = W
            while len(t) > 64:   # pair neighbours: the shifted sum costs len(t)^2
                t.append(0)
                t = list(map(add, t[::2], map(lshift, t[1::2], repeat(step))))
                step *= 2
            q = sum(map(lshift, t, range(W, W + len(t) * step, step)))
            if q:   # P = P Q, balanced mod 2^end
                end = (k + 2) * W
                P = (P - P * q) & ((1 << end) - 1)
                if P >> (end - 1):
                    P -= 1 << end
        k0 = k1
    return _unpack(P, W, n + 1)


def _unpack(P: int, W: int, m: int) -> list[int]:
    """The m signed W-bit fields of P = sum_j c_j 2^(jW), lowest first,
    each |c_j| < 2^(W-1)."""
    half, mask = 1 << (W - 1), (1 << W) - 1
    coeffs = []
    for _ in range(m):
        c = ((P + half) & mask) - half
        coeffs.append(c)
        P = (P - c) >> W
    return coeffs


def _det(blocks: list[list[list[int]]]) -> IntPolynomial:
    """det(I - uA) from Graph.cyclic_blocks: A is block triangular, so it is
    the product over them of 1 - d*u for a lone node with d loops, else of
    _berkowitz's det(xI - A_C), highest degree first: det(I - uA_C).  Each
    factor starts with 1 and loses its trailing zeros, so the product of
    the plain lists has none either."""
    det = [1]
    for block in blocks:
        factor = _berkowitz(block) if len(block) > 1 else [1, -len(block[0])]
        while not factor[-1]:
            factor.pop()
        prod = [0] * (len(det) + len(factor) - 1)
        for i, a in enumerate(det):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        det = prod
    return IntPolynomial(tuple(det))


def graph_reversed_char_poly(X: Graph) -> IntPolynomial:
    """det(I - uA) for X's adjacency matrix A, without building A; kept on
    X, as X.cyclic_blocks is, so Berkowitz runs once per graph.  Set with
    _set, not through vars(X), which on Python 3.11 slows X's attribute loads."""
    poly = getattr(X, "_reversed_char_poly", None)
    if poly is None:
        poly = _det(X.cyclic_blocks)
        _set(X, "_reversed_char_poly", poly)
    return poly


def graph_char_poly(X: Graph) -> IntPolynomial:
    """det(xI - A) = x^n det(I - A/x) for the adjacency matrix A of X."""
    d = graph_reversed_char_poly(X).coefficients
    return IntPolynomial((0,) * (len(X.nodes) + 1 - len(d)) + d[::-1])


def reversed_char_poly(A: list[list[int]]) -> IntPolynomial:
    """det(I - uA) for a square matrix A of nonnegative integers, such as
    adjacency_matrix(X), trailing zeros dropped; a ragged or non-square A,
    or an entry that is negative or not an int, raises InvalidInput.  Read
    as A[i][j] arcs i -> j: cost grows with their sum."""
    try:
        n = len(A)
        valid = {*map(len, A)} <= {n}
        if valid:
            succ = [[j for j, a in enumerate(row) if a for _ in range(a)] for row in A]
            # range rejects a nonzero entry that is not an int, and index a
            # row sum that is not one; a negative entry adds no arcs, so it
            # leaves its row with more arcs than its sum
            valid = list(map(len, succ)) == list(map(index, map(sum, A)))
    except TypeError:
        valid = False
    if not valid:
        raise InvalidInput("char_poly needs a square matrix of nonnegative integers")
    return _det(_cyclic_blocks(succ))


def char_poly(A: list[list[int]]) -> IntPolynomial:
    """det(xI - A) = x^n det(I - A/x) for a square matrix A of nonnegative
    integers, such as adjacency_matrix(X); any other A raises InvalidInput,
    as in reversed_char_poly."""
    d = reversed_char_poly(A).coefficients
    return IntPolynomial((0,) * (len(A) + 1 - len(d)) + d[::-1])


def closed_walk_counts(X: Graph, upto: int) -> list[int]:
    """[c_1, ..., c_upto] with c_n = tr(A^n), the closed walks of length n.

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
    _PACK_BITS bits.  No use of the characteristic polynomial; empty when
    upto < 1.
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
        size = max(1, _PACK_BITS // (k * w))
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
                vec = [sum(map(vec.__getitem__, p)) for p in block]
                d = sum(map(and_, vec, diag))
                for h, low in folds:
                    d = (d >> h) + (d & low)
                counts[n] += d
    return counts


def cycle_count(X: Graph, n: int) -> int:
    """Number of closed walks of length n, i.e. tr(A^n), exactly."""
    if n < 1:
        raise InvalidInput("cycle count needs n >= 1")
    return closed_walk_counts(X, n)[-1]


class ZetaSeries(_Value):
    """1/det(I - uA) as a rational form plus its truncated expansion."""

    def __init__(self, denominator: IntPolynomial, truncation_order: int,
                 coefficients: tuple[int, ...]):   # z_0 .. z_N
        _set(self, "denominator", denominator)
        _set(self, "truncation_order", truncation_order)
        _set(self, "coefficients", coefficients)
        self.__post_init__()

    def __post_init__(self):
        if self.coefficients and self.coefficients[0] != 1:
            raise IntegralityViolation("zeta series must start with 1")


def zeta_series(X: Graph, N: int) -> ZetaSeries:
    """Zeta series of X to order N: the inverse Z of D = det(I - uA), checked
    against the closed-walk counts c_n, the coefficients of u Z'/Z = -u D' Z."""
    if N < 0:
        raise InvalidInput("truncation order must be >= 0")
    denom = graph_reversed_char_poly(X)
    tail = denom.coefficients[1:]
    steps, ds, back, pad = _lookback(tail)
    slopes = list(map(mul, steps, ds))   # i * d_i
    z = [0] * pad + [1]
    for n, c in enumerate(closed_walk_counts(X, N), start=1):
        if c != -sum(map(mul, slopes, back(z))):   # -u D' Z at u^n
            raise IntegralityViolation(f"walk count c_{n} disagrees with det(I - uA)")
        # z_n = -sum_{i>=1} d_i z_{n-i}, since d_0 = det(I) = 1
        z.append(-sum(map(mul, ds, back(z))))
    return ZetaSeries(denom, N, tuple(z[pad:]))


def _lookback(tail: tuple[int, ...]):
    """How a recurrence reads sum_i d_i a_(n-i), tail = (d_1, d_2, ...):
    the i, the d_i, a function that gives the a_(n-i) in the same order
    from a list of `pad` zeros and then a_0..a_(n-1), and pad.  A tail is
    read whole unless at most a quarter of it, less 4, is nonzero; then only
    at its nonzero d_i, so 1 - u^m costs one product per term, not m.  The
    set-up that takes does not pay on a shorter or denser tail."""
    if len(tail) < 4 * (len(tail) - tail.count(0)) + 16:
        return range(1, len(tail) + 1), tail, reversed, 0
    # two zero terms, read at index 0, keep itemgetter's result a tuple
    steps = [0, 0] + [i for i, d in enumerate(tail, start=1) if d]
    return steps, [0, 0, *filter(None, tail)], itemgetter(*map(neg, steps)), len(tail) + 1


def newton_power_sums(d: IntPolynomial, upto: int,
                      p: list[int] | None = None) -> list[int]:
    """Power sums p_1..p_upto of the roots of det(xI - A), read from its
    reversal d = det(I - uA), whose d_0 is 1.

    Newton's identities: p_k = -k*d_k - sum_{i=1}^{k-1} d_i p_{k-i}, with
    d_i = 0 past the degree of d; only the nonzero d_i of a sparse d are
    read.  Exact over ints.  Passing the list an earlier call returned as
    `p` extends it.
    """
    if d[0] != 1:
        raise InvalidInput("expected constant term 1")
    p = [] if p is None else p
    tail = d.coefficients[1:]   # d_1, d_2, ..., d_deg
    _, ds, back, pad = _lookback(tail)
    q = [0] * pad + p if pad else p
    for k in range(len(p) + 1, upto + 1):
        acc = -sum(map(mul, ds, back(q)))
        if k <= len(tail):
            acc -= k * tail[k - 1]
        q.append(acc)
    if pad:
        p += q[pad + len(p):]
    return p
