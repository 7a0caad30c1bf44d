"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail
line; a failed assertion prints the fail line before propagating.
"""

import contextlib
import random
import time

from gphom.graphs import (coproduct, cross_graph, cycle_graph,
                          enumerate_morphisms, figure_eight, is_isomorphic,
                          product, undirected_cycle)
from gphom.dynamics import (FinNSet, NSetMap, cayley_morphism, cyclic_zset,
                            is_nset_acyclic, is_nset_surjecting,
                            is_nset_whiskering, nset_fibrancy, zset_is_acyclic)
from gphom.homotopy import explore, homotopy_equivalent
from gphom.model import (cofibrant_replacement, cycle_fold, find_lift,
                         initial_to_cycle, is_acyclic_bounded, is_cofibrant,
                         is_fibrant, is_surjecting, is_whiskering,
                         morphism_key, source_inclusion)
from gphom.spectral import (adjacency_matrix, char_poly, cycle_count,
                            newton_power_sums, reversed_char_poly, zeta_series)
from gphom.witt import (divisors, from_graph, ghost_to_witt, witt_to_ghost,
                        zeta_product_form)

import conftest
from conftest import (brute_force_necklaces, random_graph, walk_census,
                      zeta_exp_form)
from test_model import _whisker_surjecting_squares, brute_force_cofibrant


@contextlib.contextmanager
def report(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        conftest.ACCEPTANCE_LINES.append(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")
    conftest.ACCEPTANCE_LINES.append(f"[PASS] {label}")


def test_criterion_1_worked_example():
    with report("1. worked example (doubled 4-cycle vs 4-star), exact, <1s"):
        start = time.perf_counter()
        X, Y = cross_graph(), undirected_cycle(4)
        assert char_poly(adjacency_matrix(X)).coefficients == \
            (0, 0, 0, -4, 0, 1)
        assert char_poly(adjacency_matrix(Y)).coefficients == (0, 0, -4, 0, 1)
        assert reversed_char_poly(adjacency_matrix(X)).coefficients == (1, 0, -4)
        assert reversed_char_poly(adjacency_matrix(Y)).coefficients == (1, 0, -4)
        for G in (X, Y):
            assert zeta_series(G, 8).coefficients == \
                (1, 0, 4, 0, 16, 0, 64, 0, 256)
            for n in range(1, 7):
                assert cycle_count(G, 2 * n) == 2 ** (2 * n + 1)
                assert cycle_count(G, 2 * n - 1) == 0
        assert homotopy_equivalent(X, Y)
        assert not is_isomorphic(X, Y)[0]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_census_oracle(small_corpus, seeded_corpus):
    with report("2. cycle census vs morphism-enumeration oracle, <60s"):
        start = time.perf_counter()
        for X in list(small_corpus) + list(seeded_corpus):
            for n in range(1, 7):
                assert cycle_count(X, n) == \
                    len(enumerate_morphisms(cycle_graph(n), X))
        assert time.perf_counter() - start < 60.0


def test_criterion_3_newton_consistency():
    with report("3. char-poly power sums agree with census (100 graphs)"):
        rnd = random.Random(101)
        for _ in range(100):
            X = random_graph(rnd, 6, 9)
            k = len(X.nodes)
            sums = newton_power_sums(reversed_char_poly(adjacency_matrix(X)),
                                     max(k, 6))
            assert sums == walk_census(X, max(k, 6))


def test_criterion_4_witt_layer(small_corpus):
    with report("4. Witt coordinates: inversion, congruences, oracle table"):
        rnd = random.Random(102)
        for _ in range(50):
            s = {n: rnd.randint(0, 25)
                 for n in rnd.sample(range(1, 13), rnd.randint(1, 8))}
            for n in range(1, 13):
                c = {d: witt_to_ghost(s, d) for d in divisors(n)}
                assert ghost_to_witt(c, n) == s.get(n, 0)
        for X in small_corpus:
            S = from_graph(X)
            for n in range(1, 13):
                assert S.witt(n) >= 0
        oracle = [len(brute_force_necklaces(figure_eight(), n))
                  for n in range(1, 7)]
        assert oracle == [2, 1, 2, 3, 6, 9]
        assert from_graph(figure_eight()).witt_row(6) == oracle


def test_criterion_5_zeta_identities(small_corpus):
    with report("5. zeta: rational form, product form, (co)product laws"):
        rnd = random.Random(103)
        sample = rnd.sample(small_corpus, 25)
        for X in sample:
            Z = zeta_series(X, 8)
            # denominator * series == 1 up to the truncation order
            d = Z.denominator.coefficients
            z = Z.coefficients
            for k in range(9):
                conv = sum(d[i] * z[k - i]
                           for i in range(min(k + 1, len(d))))
                assert conv == (1 if k == 0 else 0)
            S = from_graph(X)
            assert zeta_product_form(S, 8) == zeta_exp_form(S, 8)
            assert zeta_exp_form(S, 8) == list(z)
        for _ in range(10):
            X = random_graph(rnd, 3, 4)
            Y = random_graph(rnd, 3, 4)
            zx = zeta_series(X, 5).coefficients
            zy = zeta_series(Y, 5).coefficients
            zc = zeta_series(coproduct(X, Y), 5).coefficients
            for k in range(6):
                assert zc[k] == sum(zx[i] * zy[k - i] for i in range(k + 1))
            P = product(X, Y)
            for n in range(1, 6):
                assert cycle_count(P, n) == \
                    cycle_count(X, n) * cycle_count(Y, n)


def test_criterion_6_model_structure(small_corpus):
    with report("6. lifting, generators, replacement counits, (co)fibrancy"):
        rnd = random.Random(104)
        squares = _whisker_surjecting_squares(rnd, 100)
        assert len(squares) >= 100
        for p in squares:
            h = find_lift(p)
            assert h is not None
            assert morphism_key(h.compose(p.left)) == morphism_key(p.top)
            assert morphism_key(p.right.compose(h)) == morphism_key(p.bottom)
        s = source_inclusion()
        assert is_whiskering(s) and not is_surjecting(s)
        for n in range(1, 5):
            assert is_surjecting(cycle_fold(n))
            assert not is_acyclic_bounded(cycle_fold(n), n)
            assert not is_whiskering(initial_to_cycle(n))
        for X in rnd.sample(small_corpus, 15):
            res = cofibrant_replacement(X, 4)
            assert is_cofibrant(res.graph)
            assert is_acyclic_bounded(res.counit, 4)
        for X in small_corpus:
            assert is_fibrant(X) == all(X.out_arcs[v] for v in X.nodes)
            assert is_cofibrant(X) == brute_force_cofibrant(X)


def test_criterion_7_transported_dynamics():
    with report("7. classifiers transported to N-set / Z-set dynamics"):
        rnd = random.Random(105)
        checked = 0
        while checked < 60:
            k = rnd.randint(1, 6)
            elems = tuple(f"x{i}" for i in range(k))
            S = FinNSet(elems, {e: rnd.choice(elems) for e in elems})
            m = rnd.randint(1, 6)
            telems = tuple(f"y{i}" for i in range(m))
            T = FinNSet(telems, {e: rnd.choice(telems) for e in telems})
            mapping = {}
            ok = True
            for x in S.elements:   # greedy equivariant extension
                cur, img = x, None
                for y in T.elements:
                    trial = dict(mapping)
                    trial[cur] = y
                    good = True
                    for a, b in trial.items():
                        sa = S.sigma[a]
                        if sa in trial and trial[sa] != T.sigma[b]:
                            good = False
                            break
                    if good:
                        img = y
                        break
                if img is None:
                    ok = False
                    break
                mapping[x] = img
            if not ok:
                continue
            f = NSetMap(S, T, mapping)
            g = cayley_morphism(f)
            bound = max(len(S.elements), len(T.elements))
            assert is_nset_surjecting(f) == is_surjecting(g)
            assert is_nset_whiskering(f) == is_whiskering(g)
            assert is_nset_acyclic(f) == is_acyclic_bounded(g, bound)
            assert nset_fibrancy(S)["fibrant"] == is_fibrant(cayley_morphism(
                NSetMap(S, S, {x: x for x in S.elements})).source)
            checked += 1
        for n, m in [(1, 1), (2, 1), (4, 2), (6, 3), (6, 2)]:
            Zn, Zm = cyclic_zset(n), cyclic_zset(m)
            for shift in range(m):
                f = NSetMap(Zn, Zm,
                            {str(i): str((i + shift) % m) for i in range(n)})
                assert is_nset_surjecting(f)
                assert zset_is_acyclic(f) == f.is_bijective()


def test_criterion_8_exploration():
    with report("8. exploration flags equivalent non-isomorphic pair, <5min"):
        start = time.perf_counter()
        buckets = explore(5, 16)
        hit = False
        for b in buckets:
            names = {name for name, _ in b.members}
            if {"cross", "uc4"} <= names:
                pairs = {frozenset(p) for p in b.nonisomorphic_pairs}
                assert frozenset(("cross", "uc4")) in pairs
                hit = True
        assert hit
        assert time.perf_counter() - start < 300.0
