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
sit in fixed-width bit fields of one Python int, so a single big-int
addition does the per-vector arithmetic in C.  The entries are nonnegative
and bounded, and the field widths follow from the bounds, so fields never
carry into each other.  The two routes pack independently.
No floating point anywhere: all coefficients are Python ints.
"""

from __future__ import annotations

from operator import and_, mul

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
    corner b_kk, and multiplies the previous polynomial by the Toeplitz
    column built from t(k) = (b_kk, R_k S_k, R_k M_k S_k, ...,
    R_k M_k^(k-1) S_k).  The int V[i] holds (M_k^j S_k)[i] in a bit field
    of step k, for every k > i, so one sweep U = B V, a big-int addition
    per arc, advances every step: t_(j+1)(k) is step k's field of U[k], and
    V[i] is U[i] with the fields of the steps <= i cleared.  The fields go
    in descending order, the last step at offset 0, so those are V[i]'s
    high fields and clearing them shrinks the int: the later the row, the
    fewer fields it carries.  A field counts weighted walks of length <= n
    from one row, so with r the largest row sum it is at most r^n < 2^w,
    wherever it sits.  That needs nonnegative entries: fields then never
    borrow or carry into each other.  The steps go in batches that keep the
    packed vector within _PACK_BITS bits.
    """
    n = len(block)
    w = (max(map(len, block)) ** n).bit_length()
    mask = (1 << w) - 1
    size = max(1, _PACK_BITS // (n * w))   # steps per batch
    coeffs = [1]
    for k0 in range(0, n, size):
        k1 = min(n, k0 + size)
        # the arcs of the leading k1 x k1 block
        rows = [[j for j in row if j < k1] for row in block[:k1]]
        fields = range((k1 - k0 - 1) * w, -1, -w)   # step k at (k1-1-k)*w
        units = [1 << f for f in fields]
        keep = [-1] * k0 + [u - 1 for u in units]   # clears the fields <= i
        diag = [0] * k0 + [mask * u for u in units]   # field i of row i
        # sweeping unit vectors gives t_0(k) = b_kk and V[i] = S_k[i]
        V = [0] * k0 + units
        D = []   # D[j]: t_j(k) in step k's field, for every k
        for j in range(k1):
            if j == k1 - 1:   # the last sweep is for t_j(k1 - 1) only
                rows, diag = rows[-1:], diag[-1:]
            U = [sum(map(V.__getitem__, row)) for row in rows]
            D.append(sum(map(and_, U, diag)))
            V = list(map(and_, U, keep))
        for k, f in enumerate(fields, start=k0 + 1):
            t = [d >> f & mask for d in D]
            # new[j] = prev[j] - sum_i t[i] * prev[j-1-i], degree k
            rev = coeffs[::-1]
            new = coeffs + [0]
            for j in range(1, k + 1):
                new[j] -= sum(map(mul, t, rev[k - j:]))
            coeffs = new
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
    adjacency_matrix(X), trailing zeros dropped; a negative entry raises
    InvalidInput.  Read as A[i][j] arcs i -> j: cost grows with their sum."""
    if A and min(map(min, A)) < 0:
        raise InvalidInput("char_poly needs a matrix of nonnegative integers")
    return _det(_cyclic_blocks([[j for j, a in enumerate(row) if a
                                 for _ in range(a)] for row in A]))


def char_poly(A: list[list[int]]) -> IntPolynomial:
    """det(xI - A) = x^n det(I - A/x) for a square matrix A of nonnegative
    integers, such as adjacency_matrix(X); a negative entry raises
    InvalidInput."""
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
    slopes = [i * d for i, d in enumerate(tail, start=1)]
    coeffs = [1]
    for n, c in enumerate(closed_walk_counts(X, N), start=1):
        if c != -sum(map(mul, slopes, reversed(coeffs))):   # -u D' Z at u^n
            raise IntegralityViolation(f"walk count c_{n} disagrees with det(I - uA)")
        # z_n = -sum_{i>=1} d_i z_{n-i}, since d_0 = det(I) = 1
        coeffs.append(-sum(map(mul, tail, reversed(coeffs))))
    return ZetaSeries(denom, N, tuple(coeffs))


def newton_power_sums(d: IntPolynomial, upto: int,
                      p: list[int] | None = None) -> list[int]:
    """Power sums p_1..p_upto of the roots of det(xI - A), read from its
    reversal d = det(I - uA), whose d_0 is 1.

    Newton's identities: p_k = -k*d_k - sum_{i=1}^{k-1} d_i p_{k-i}, with
    d_i = 0 past the degree of d.  Exact over ints.  Passing the list an
    earlier call returned as `p` extends it.
    """
    if d[0] != 1:
        raise InvalidInput("expected constant term 1")
    p = [] if p is None else p
    tail = d.coefficients[1:]   # d_1, d_2, ..., d_deg
    for k in range(len(p) + 1, upto + 1):
        acc = -sum(map(mul, tail, reversed(p)))
        if k <= len(tail):
            acc -= k * tail[k - 1]
        p.append(acc)
    return p
