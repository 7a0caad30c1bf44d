"""Exact integer linear algebra over the adjacency operator.

Two primitives carry every invariant.  `char_poly` runs the division-free
Berkowitz algorithm over sparse rows; det(I - uA), the zeta series (its
inverse) and, through Newton's identities, the ghost components derive from
it.  `closed_walk_counts` gives tr(A^n) for n = 1..N in one sweep over the
arcs of each strongly connected component, independently of the
polynomial, so each route can check the other.
No floating point anywhere: all coefficients are Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import IntegralityViolation, InvalidInput
from .graphs import Graph


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending by degree."""

    coefficients: tuple[int, ...]

    @staticmethod
    def from_list(coeffs) -> "IntPolynomial":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return IntPolynomial(tuple(int(x) for x in c))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else -1

    def __getitem__(self, k: int) -> int:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coefficients or not other.coefficients:
            return IntPolynomial(())
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial.from_list(out)

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


def char_poly(A: list[list[int]]) -> IntPolynomial:
    """det(xI - A) by the Berkowitz algorithm (division-free, exact).

    Step k borders the principal (k-1) block M with row R, column S and
    corner a_kk, and multiplies the previous polynomial by the Toeplitz
    column built from t = (a_kk, R S, R M S, ..., R M^(k-2) S).  M is held
    as sparse rows that gain one column per step, so each product M v costs
    the nonzeros of the block rather than (k-1)^2.
    """
    n = len(A)
    cols: list[list[int]] = []   # cols[i], vals[i]: nonzeros of row i of M
    vals: list[list[int]] = []
    # coefficients descending: [1] means the constant polynomial 1
    coeffs = [1]
    for k in range(1, n + 1):
        m = k - 1
        row = A[m]
        r_cols = [j for j in range(m) if row[j]]
        r_vals = [row[j] for j in r_cols]
        vec = [A[i][m] for i in range(m)]
        t = [row[m]]
        if m:
            t.append(sum(map(mul, r_vals, map(vec.__getitem__, r_cols))))
            for _ in range(m - 1):
                vec = [sum(map(mul, vs, map(vec.__getitem__, js)))
                       for js, vs in zip(cols, vals)]
                t.append(sum(map(mul, r_vals, map(vec.__getitem__, r_cols))))
        # new[j] = prev[j] - sum_i t[i] * prev[j-1-i], degree k
        rev = coeffs[::-1]
        new = coeffs + [0]
        for j in range(1, k + 1):
            new[j] -= sum(map(mul, t, rev[k - j:]))
        coeffs = new
        # grow M to the principal k x k block: column m, then row m
        for i in range(m):
            if A[i][m]:
                cols[i].append(m)
                vals[i].append(A[i][m])
        if row[m]:
            r_cols.append(m)
            r_vals.append(row[m])
        cols.append(r_cols)
        vals.append(r_vals)
    return IntPolynomial.from_list(list(reversed(coeffs)))


def reversed_char_poly(A: list[list[int]]) -> IntPolynomial:
    """det(I - uA) = u^n * a(1/u), trailing zeros dropped."""
    n = len(A)
    a = char_poly(A)
    # coefficient of u^k in u^n a(1/u) is the coefficient of x^{n-k} in a(x)
    return IntPolynomial.from_list([a[n - k] for k in range(n + 1)])


def _strong_components(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of the digraph with successor lists
    `succ`, by Tarjan's algorithm with an explicit stack instead of
    recursion, so long paths cannot exhaust the interpreter's stack."""
    size = len(succ)
    index = [-1] * size
    low = [0] * size
    on_stack = [False] * size
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def closed_walk_counts(X: Graph, upto: int) -> list[int]:
    """[c_1, ..., c_upto] with c_n = tr(A^n), the closed walks of length n.

    A closed walk never leaves the strongly connected component it starts
    in, so tr(A^n) is the sum of the traces of the components' blocks, and
    nodes on no cycle contribute nothing.  Within a component, walk counts
    from each start node are pushed along its arcs once per length:
    O(sum over components of k_C * upto * (k_C + arcs_C)) integer
    additions, and no use of the characteristic polynomial.  Empty when
    upto < 1.
    """
    idx = X.node_index
    succ: list[list[int]] = [[] for _ in X.nodes]
    for a in X.arcs:
        succ[idx[a.src]].append(idx[a.tgt])
    comps = _strong_components(succ)
    comp_of = [0] * len(succ)
    pos = [0] * len(succ)
    for c, comp in enumerate(comps):
        for i, v in enumerate(comp):
            comp_of[v] = c
            pos[v] = i
    # preds[c][j] lists the source of every arc into node j of component c
    # from inside c, parallel arcs repeated
    preds = [[[] for _ in comp] for comp in comps]
    for v, ws in enumerate(succ):
        for w in ws:
            if comp_of[v] == comp_of[w]:
                preds[comp_of[w]][pos[w]].append(pos[v])
    counts = [0] * max(upto, 0)
    for block in preds:
        if not any(block):   # a single node without a loop
            continue
        for s in range(len(block)):
            vec = [0] * len(block)
            vec[s] = 1
            for n in range(upto):
                vec = [sum(map(vec.__getitem__, p)) for p in block]
                counts[n] += vec[s]
    return counts


def cycle_count(X: Graph, n: int) -> int:
    """Number of closed walks of length n, i.e. tr(A^n), exactly."""
    if n < 1:
        raise InvalidInput("cycle count needs n >= 1")
    return closed_walk_counts(X, n)[-1]


@dataclass(frozen=True)
class ZetaSeries:
    """1/det(I - uA) as a rational form plus its truncated expansion."""

    denominator: IntPolynomial
    truncation_order: int
    coefficients: tuple[int, ...]   # z_0 .. z_N

    def __post_init__(self):
        if self.coefficients and self.coefficients[0] != 1:
            raise IntegralityViolation("zeta series must start with 1")


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


def zeta_series(X: Graph, N: int) -> ZetaSeries:
    """Zeta series of X to order N: the inverse of det(I - uA), checked
    against the exp form of the closed-walk counts."""
    if N < 0:
        raise InvalidInput("truncation order must be >= 0")
    denom = reversed_char_poly(adjacency_matrix(X))
    # z_k = -sum_{i>=1} d_i z_{k-i}, since d_0 = det(I) = 1
    tail = denom.coefficients[1:]
    coeffs = [1]
    for _ in range(N):
        coeffs.append(-sum(map(mul, tail, reversed(coeffs))))
    counts = closed_walk_counts(X, N)
    exp_form = expand_log_exp(lambda n: counts[n - 1], N)
    if exp_form != coeffs:
        k = next(k for k, (a, b) in enumerate(zip(exp_form, coeffs)) if a != b)
        raise IntegralityViolation(
            f"exp form of the walk counts differs from 1/det(I - uA) at order {k}")
    return ZetaSeries(denom, N, tuple(coeffs))


def newton_power_sums(a: IntPolynomial, upto: int,
                      p: list[int] | None = None) -> list[int]:
    """Power sums p_1..p_upto of the roots of a monic polynomial.

    Newton's identities: p_k = -k*b_{n-k} - sum_{i=1}^{k-1} b_{n-i} p_{k-i},
    with b the coefficients of a (b_n = 1 leading) and b_j = 0 for j < 0.
    Exact over ints.  Passing the list an earlier call returned as `p`
    extends it in place.
    """
    n = a.degree
    if n < 0 or a[n] != 1:
        raise InvalidInput("expected a monic polynomial")
    p = [] if p is None else p
    b = a.coefficients[-2::-1]   # b_{n-1}, b_{n-2}, ..., b_0
    for k in range(len(p) + 1, upto + 1):
        acc = -sum(map(mul, b, reversed(p)))
        if k <= n:
            acc -= k * b[k - 1]
        p.append(acc)
    return p
