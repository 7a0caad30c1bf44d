import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gphom.errors import InvalidInput, NotRealizable
from gphom.graphs import coproduct, cross_graph, cycle_graph, figure_eight, product
from gphom.spectral import zeta_series
from gphom.witt import (AlmostFiniteZSet, ZERO, burnside_add, burnside_mul,
                        divisors, from_ghost, from_graph, from_witt,
                        ghost_to_witt, witt_to_ghost, zeta_product_form)

from conftest import (brute_force_necklaces, mobius, mobius_witt, random_graph,
                      zeta_exp_form)


def test_mobius_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0,
                9: 0, 10: 1, 12: 0, 30: -1, 36: 0}
    for n, mu in expected.items():
        assert mobius(n) == mu


def test_divisors():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    # trial division up to sqrt(n) against trial division up to n
    for n in range(-2, 3000):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_ghost_to_witt_examples():
    assert ghost_to_witt({1: 2, 2: 4, 4: 16}, 4) == 3
    assert all(ghost_to_witt(lambda d: 1, n) == 0 for n in range(2, 10))
    assert ghost_to_witt({1: 1, 2: 3}, 2) == 1


def test_witt_to_ghost_examples():
    assert witt_to_ghost({2: 4, 4: 6}, 4) == 2 * 4 + 4 * 6
    for n in range(1, 8):
        assert witt_to_ghost({1: 5}, n) == 5


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(1, 12), st.integers(0, 30), max_size=8))
def test_round_trip_witt_ghost_witt(s):
    for n in range(1, 13):
        c = {d: witt_to_ghost(s, d) for d in divisors(n)}
        assert ghost_to_witt(c, n) == s.get(n, 0)


def test_round_trip_fifty_random_vectors():
    rnd = random.Random(14)
    for _ in range(50):
        s = {n: rnd.randint(0, 20) for n in rnd.sample(range(1, 13), rnd.randint(1, 6))}
        for n in range(1, 13):
            c = {d: witt_to_ghost(s, d) for d in divisors(n)}
            assert ghost_to_witt(c, n) == s.get(n, 0)


def test_from_graph_c1():
    S = from_graph(cycle_graph(1))
    assert S.ghost_row(6) == [1] * 6
    assert S.witt_row(6) == [1, 0, 0, 0, 0, 0]


def test_figure_eight_witt_table_with_brute_force_oracle():
    X = figure_eight()
    oracle = [len(brute_force_necklaces(X, n)) for n in range(1, 7)]
    assert oracle == [2, 1, 2, 3, 6, 9]
    S = from_graph(X)
    assert S.ghost_row(6) == [2, 4, 8, 16, 32, 64]
    assert S.witt_row(6) == oracle


def test_cross_witt_table():
    S = from_graph(cross_graph())
    assert S.ghost_row(6) == [0, 8, 0, 32, 0, 128]
    assert S.witt_row(6) == [0, 4, 0, 6, 0, 20]
    # the even coordinates agree with divisor-sum arithmetic by hand:
    # s2 = 8/2, s4 = (32-8)/4, s6 = (128-8)/6
    assert S.witt(2) == 4 and S.witt(4) == 6 and S.witt(6) == 20


def test_realizability_congruence_on_corpus(small_corpus):
    rnd = random.Random(15)
    for X in rnd.sample(small_corpus, 30):
        S = from_graph(X)
        for n in range(1, 13):
            assert S.witt(n) >= 0   # raises NotRealizable on congruence failure


def test_not_realizable():
    bad = from_ghost({1: 0, 2: 1})
    with pytest.raises(NotRealizable):
        bad.witt(2)
    negative = from_ghost({1: 3, 2: 1})
    with pytest.raises(NotRealizable):
        negative.witt(2)


def test_witt_index_must_be_positive():
    S = from_graph(cross_graph())
    for bad in (lambda: S.witt(0), lambda: S.witt(-3),
                lambda: from_witt({1: 1}).witt(0), lambda: ghost_to_witt({}, 0),
                lambda: ghost_to_witt(lambda d: 1, -2)):
        with pytest.raises(InvalidInput, match="^witt index must be >= 1$"):
            bad()
    assert S.witt(2) == 4


def test_burnside_add_matches_coproduct():
    rnd = random.Random(16)
    for _ in range(8):
        X = random_graph(rnd, 3, 4)
        Y = random_graph(rnd, 3, 4)
        total = burnside_add(from_graph(X), from_graph(Y))
        direct = from_graph(coproduct(X, Y))
        assert total.ghost_row(6) == direct.ghost_row(6)
        assert total.witt_row(6) == direct.witt_row(6)


def test_burnside_add_zero_and_witt_additivity():
    S = from_graph(figure_eight())
    assert burnside_add(S, ZERO).ghost_row(6) == S.ghost_row(6)
    T = from_graph(cycle_graph(3))
    assert burnside_add(S, T).witt_row(6) == \
        [a + b for a, b in zip(S.witt_row(6), T.witt_row(6))]


def test_burnside_mul_orbit_laws():
    # Z/2 x Z/3 = one copy of Z/6
    P = burnside_mul(from_witt({2: 1}), from_witt({3: 1}))
    assert P.witt_row(6) == [0, 0, 0, 0, 0, 1]
    assert P.ghost(6) == 6
    # Z/2 x Z/2 = two copies of Z/2
    P = burnside_mul(from_witt({2: 1}), from_witt({2: 1}))
    assert P.witt_row(4) == [0, 2, 0, 0]


def test_burnside_mul_matches_product():
    rnd = random.Random(17)
    for _ in range(8):
        X = random_graph(rnd, 3, 4)
        Y = random_graph(rnd, 3, 4)
        P = burnside_mul(from_graph(X), from_graph(Y))
        direct = from_graph(product(X, Y))
        assert P.ghost_row(5) == direct.ghost_row(5)


def test_zeta_product_form_examples():
    assert zeta_product_form(from_witt({1: 1}), 6) == [1] * 7
    S = from_graph(figure_eight())
    assert zeta_product_form(S, 6) == [1, 2, 4, 8, 16, 32, 64]
    cross_s = from_witt({2: 4, 4: 6, 6: 20})
    assert zeta_product_form(cross_s, 6) == [1, 0, 4, 0, 16, 0, 64]


def test_product_form_matches_exp_form(small_corpus):
    rnd = random.Random(18)
    for X in [figure_eight(), cross_graph()] + rnd.sample(small_corpus, 20):
        S = from_graph(X)
        assert zeta_product_form(S, 120) == zeta_exp_form(S, 120) == \
            list(zeta_series(X, 120).coefficients)


def test_lazy_memoization_and_infinite_support():
    calls = []

    def ghost(n):
        calls.append(n)
        return 2 ** n

    S = AlmostFiniteZSet(ghost)
    S.witt(4)
    S.witt(4)
    assert calls.count(4) == 1


def row_to_first_error(witt, upto: int) -> list:
    """witt(n) for n = 1..upto in index order; the first index that fails
    ends the row with (n, error type, message)."""
    row = []
    for n in range(1, upto + 1):
        try:
            row.append(witt(n))
        except (InvalidInput, NotRealizable) as e:
            row.append((n, type(e), str(e)))
            break
    return row


def oracle_row(c, upto: int) -> list:
    return row_to_first_error(lambda n: mobius_witt(c, n), upto)


def test_witt_recursion_matches_mobius_oracle_on_corpus(small_corpus):
    rnd = random.Random(25)
    for X in rnd.sample(small_corpus, 30):
        S = from_graph(X)
        assert row_to_first_error(S.witt, 200) == oracle_row(S.ghost, 200)


def test_witt_recursion_matches_mobius_oracle_on_vectors():
    rnd = random.Random(26)
    outcomes = set()
    for _ in range(150):
        s = {n: rnd.randint(0, 9) for n in rnd.sample(range(1, 40), rnd.randint(1, 8))}
        expected = [s.get(n, 0) for n in range(1, 40)]
        assert row_to_first_error(from_witt(s).witt, 39) == expected
        c = {n: witt_to_ghost(s, n) for n in range(1, 40)}
        assert oracle_row(c.__getitem__, 39) == expected
        assert [ghost_to_witt(c, n) for n in range(1, 40)] == expected
        # one perturbed component: realizable again, or an error at or after it
        m = rnd.randrange(1, 40)
        c[m] += rnd.choice((-1, 1)) * rnd.randint(1, 3 * m)
        row = row_to_first_error(from_ghost(c).witt, 39)
        assert row == oracle_row(c.__getitem__, 39)
        outcomes.add(row[-1][2].split()[0] if isinstance(row[-1], tuple) else "ok")
    for _ in range(150):
        c = {n: rnd.randint(-3, 20) for n in range(1, 13)}
        assert row_to_first_error(from_ghost(c).witt, 12) == oracle_row(c.__getitem__, 12)
    assert outcomes == {"ok", "divisor", "negative"}


def test_witt_direct_calls_raise_at_the_first_failing_divisor():
    # s_2 = 1/2 is not an integer, though the Moebius sum at 4 is 4
    c = {1: 0, 2: 1, 4: 5}
    for fail in (lambda: from_ghost(c).witt(4), lambda: ghost_to_witt(c, 4)):
        with pytest.raises(NotRealizable,
                           match="^divisor sum 1 at n=2 is not divisible by 2$"):
            fail()
    # a mapping that lacks a divisor is an input error, not a KeyError
    with pytest.raises(InvalidInput, match="^ghost component c_1 not provided$"):
        ghost_to_witt({2: 4, 4: 16}, 4)

