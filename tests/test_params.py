import random
from fractions import Fraction
from math import floor, gcd, lcm

import pytest

import oracles
from finhyp.cyclo import root_of_unity
from finhyp import params as params_module
from finhyp.errors import (
    BoundExceeded,
    DoesNotSplit,
    FinHypError,
    LengthMismatch,
    NotCoprime,
    NotDisjointModZ,
)
from finhyp.finfield import make_field
from finhyp.params import HGParams, _term_exponents, parse_fraction_list

F = Fraction


def test_reduction_mod_one():
    p = HGParams([F(1, 2), F(1, 2)], [1, 1])
    assert p.alpha == (F(1, 2), F(1, 2))
    assert p.beta == (F(0), F(0))
    assert p.d == 2


def test_disjointness_enforced():
    with pytest.raises(NotDisjointModZ):
        HGParams([F(1, 3)], [F(1, 3)])
    with pytest.raises(NotDisjointModZ):
        HGParams([F(4, 3)], [F(1, 3)])


def test_lengths_enforced():
    with pytest.raises(LengthMismatch):
        HGParams([F(1, 2)], [0, 0])
    with pytest.raises(LengthMismatch):
        HGParams([], [])


def test_parse():
    p = HGParams.parse("1/5,2/5,3/5,4/5", "0,1,2,1/2")
    assert p.alpha == (F(1, 5), F(2, 5), F(3, 5), F(4, 5))
    assert p.beta == (F(0), F(0), F(0), F(1, 2))
    assert parse_fraction_list("3/4, 1") == [F(3, 4), F(1)]


@pytest.mark.parametrize("call", [
    lambda: parse_fraction_list("abc"),
    lambda: parse_fraction_list("1/0"),
    lambda: make_field(5, 0),
])
def test_malformed_values_raise_typed_error(call):
    with pytest.raises(FinHypError):
        call()


def test_common_denominator():
    assert HGParams([F(1, 2), F(1, 2)], [0, 0]).common_denominator() == 2
    assert HGParams([F(1, 5), F(4, 5)], [0, 0]).common_denominator() == 5
    assert HGParams([F(1, 3)], [F(1, 4)]).common_denominator() == 12


def test_conjugate():
    p = HGParams([F(1, 5), F(4, 5)], [0, 0])
    assert p.conjugate(2).alpha == (F(2, 5), F(3, 5))
    assert p.conjugate(1) == p
    q = HGParams([F(1, 2), F(1, 2)], [0, 0])
    assert q.conjugate(3) == q
    with pytest.raises(NotCoprime):
        p.conjugate(5)


def test_stabilizer_examples():
    p4 = HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, 0, 0, 0])
    assert p4.stabilizer() == (1, 2, 3, 4)
    assert p4.is_defined_over_q()
    p2 = HGParams([F(1, 5), F(4, 5)], [0, 0])
    assert p2.stabilizer() == (1, 4)
    assert not p2.is_defined_over_q()
    assert p2.splits_at(11)
    assert not p2.splits_at(2)
    ph = HGParams([F(1, 2), F(1, 2)], [0, 0])
    assert ph.stabilizer() == (1,)
    assert ph.is_defined_over_q()


def test_stabilizer_is_subgroup():
    for p in (
        HGParams([F(1, 5), F(4, 5)], [0, 0]),
        HGParams([F(1, 8), F(3, 8)], [0, 0]),
        HGParams([F(1, 12), F(5, 12)], [0, F(1, 2)]),
    ):
        d = p.common_denominator()
        h = set(p.stabilizer())
        assert 1 in h
        for a in h:
            for b in h:
                assert a * b % d in h


def test_term_exponent_hand_value():
    p = HGParams([F(1, 2), F(1, 2)], [0, 0])
    assert p.term_exponent(5, 2) == 0
    assert p.term_exponent(5, 0) == 0
    for prime in (3, 5, 7, 13):
        assert p.term_exponent(prime, 0) == 0


def _term_exponent_fractional(params, p, m):
    # independent evaluation through fractional parts
    x = F(m, p - 1)
    total = F(0)
    for a in params.alpha:
        total += ((a + x) % 1) - (a % 1)
    for b in params.beta:
        total += ((-b - x) % 1) - ((-b) % 1)
    assert total.denominator == 1
    return int(total)


def test_term_exponent_forms_agree():
    cases = [
        HGParams([F(1, 2), F(1, 2)], [0, 0]),
        HGParams([F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]),
        HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, 0, 0, 0]),
        HGParams([F(1, 8), F(5, 8)], [F(1, 3), F(2, 3)]),
    ]
    for params in cases:
        d = params.common_denominator()
        for p in (5, 7, 11, 13):
            if d % p == 0:
                continue
            for m in range(p - 1):
                assert params.term_exponent(p, m) == _term_exponent_fractional(params, p, m)


def test_term_exponent_bounded_by_delta():
    cases = [
        HGParams([F(1, 2)], [0]),
        HGParams([F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]),
        HGParams([F(1, 6), F(5, 6)], [0, F(1, 2)]),
    ]
    for params in cases:
        delta = params.denominator_exponent()
        for p in (5, 7, 11):
            if params.common_denominator() % p == 0:
                continue
            for m in range(p - 1):
                assert -params.term_exponent(p, m) <= delta


def _delta_bruteforce(params):
    # grid fine enough to hit every piece of the step function
    d = params.common_denominator()
    steps = 2 * lcm(d, 2) * params.d
    best = None
    for j in range(steps + 1):
        x = F(j, steps)
        s = sum(floor(x + a) - floor(a) for a in params.alpha)
        s += sum(floor(-x - b) - floor(-b) for b in params.beta)
        best = s if best is None else max(best, s)
    return best


def test_delta_examples():
    assert HGParams([F(1, 2)], [0]).denominator_exponent() == 0
    assert HGParams([F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]).denominator_exponent() == 1
    p = HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, 0, 0, 0])
    assert p.denominator_exponent() >= 0
    assert p.global_denominator_exponent() == p.denominator_exponent()


def test_delta_against_grid():
    cases = [
        HGParams([F(1, 2)], [0]),
        HGParams([F(1, 2), F(1, 2)], [0, 0]),
        HGParams([F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]),
        HGParams([F(1, 6), F(5, 6)], [0, F(1, 2)]),
        HGParams([F(1, 8), F(3, 8), F(5, 8)], [0, F(1, 3), F(2, 3)]),
        HGParams([F(1, 5), F(4, 5)], [F(1, 2), F(1, 3)]),
    ]
    for params in cases:
        assert params.denominator_exponent() == _delta_bruteforce(params)


def test_delta_le_global():
    p = HGParams([F(1, 8), F(3, 8)], [0, F(1, 2)])
    d = p.common_denominator()
    cap = p.global_denominator_exponent()
    seen = []
    for k in range(1, d + 1):
        if gcd(k, d) == 1:
            seen.append(p.conjugate(k).denominator_exponent())
    assert max(seen) == cap
    assert p.denominator_exponent() <= cap


def test_unit_loops_match_conjugate_definitions():
    rng = random.Random(20)
    for _ in range(40):
        params = _random_pair(rng, max_den=10)
        dd = params.common_denominator()
        conjugates = [params.conjugate(k) for k in range(1, dd + 1) if gcd(k, dd) == 1]
        assert params.global_denominator_exponent() == max(
            c.denominator_exponent() for c in conjugates), params
        assert params.is_defined_over_q() == all(c == params for c in conjugates), params


def test_unit_loops_refuse_large_denominators(monkeypatch):
    # D = 17 * 19 * 23 * 13 = 96577: each loop is priced and refused before it starts
    params = HGParams.parse("1/17,1/19", "1/23,1/13")
    assert params.common_denominator() == 96577
    for helper in ("_max_drop", "_drop"):
        monkeypatch.setattr(params_module, helper, lambda *a: pytest.fail("the loop ran"))
    monkeypatch.setattr(HGParams, "_fixed_by", lambda *a: pytest.fail("the loop ran"))
    for method in (params.stabilizer, params.is_defined_over_q,
                   params.global_denominator_exponent):
        with pytest.raises(BoundExceeded):
            method()
    assert issubclass(BoundExceeded, FinHypError)


def _random_pair(rng, max_d=4, max_den=24):
    while True:
        d = rng.randint(1, max_d)
        alpha, beta = ([F(rng.randrange(n), n) for n in
                        (rng.randint(1, max_den) for _ in range(d))] for _ in range(2))
        if not set(alpha) & set(beta):
            return HGParams(alpha, beta)


PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_integer_exponents_match_fraction_references():
    rng = random.Random(18)
    for _ in range(60):
        params = _random_pair(rng)
        assert params.denominator_exponent() == oracles.denominator_exponent(params), params
        for p in PRIMES_TO_31:
            ref = tuple(oracles.term_exponent(params, p, m) for m in range(p - 1))
            assert _term_exponents(params, p) == ref, (params, p)
            assert params.term_exponent(p, p + 3) == oracles.term_exponent(params, p, p + 3)


def _orbit_closed_pair(rng, max_d=4):
    """A random pair of unions of orbits of x -> k*x mod 1, for a random k
    prime to the denominator D <= 24: it splits at every prime p = k mod D."""
    while True:
        dd = rng.randint(2, 24)
        k = rng.choice([k for k in range(1, dd) if gcd(k, dd) == 1])
        sides = []
        for _ in range(2):
            side, size = [], rng.randint(1, max_d)
            while len(side) < size:
                orbit, x = [], rng.randrange(dd)
                while x not in orbit:
                    orbit.append(x)
                    x = k * x % dd
                side += [F(x, dd) for x in orbit]
            sides.append(side)
        if len(sides[0]) == len(sides[1]) and not set(sides[0]) & set(sides[1]):
            return HGParams(*sides)


def test_splitting_matches_conjugate_definition():
    rng = random.Random(19)
    pairs = [_random_pair(rng) for _ in range(40)] + [_orbit_closed_pair(rng) for _ in range(60)]
    nontrivial = 0
    for params in pairs:
        dd = params.common_denominator()
        for p in PRIMES_TO_31:
            fixed = gcd(p, dd) == 1 and params.conjugate(p) == params
            assert params.splits_at(p) == fixed, (params, p)
            if fixed:
                nontrivial += p % dd != 1
                for table, values in zip(params.p_orbits(p), (params.alpha, params.beta)):
                    _assert_orbit_table(table, p, values)
        if dd <= 10**4:
            assert params.stabilizer() == tuple(
                k for k in range(1, dd + 1) if gcd(k, dd) == 1 and params.conjugate(k) == params)
    assert nontrivial > 20


def _orbit(q, ln, e):
    """The orbit {Fraction(e, q^l - 1) q^i mod 1 : i < l} of a table pair (l, e)."""
    return [F(e, q**ln - 1) * q**i % 1 for i in range(ln)]


def _assert_orbit_table(table, q, values):
    """Each pair (l, e) of table rebuilds an orbit of l distinct members whose
    least is e/(q^l - 1), and the orbits make up the multiset values."""
    orbits = [_orbit(q, ln, e) for ln, e in table]
    for (ln, e), orbit in zip(table, orbits):
        assert len(set(orbit)) == ln and min(orbit) == F(e, q**ln - 1), (ln, e)
    assert sorted(x for orbit in orbits for x in orbit) == sorted(values)


def test_p_orbits():
    p4 = HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, 0, 0, 0])
    ao, bo = p4.p_orbits(7)
    assert ao == [(4, (7**4 - 1) // 5)] and bo == [(1, 0)] * 4
    _assert_orbit_table(ao, 7, p4.alpha)
    _assert_orbit_table(bo, 7, p4.beta)

    p2 = HGParams([F(1, 5), F(4, 5)], [0, 0])
    ao, _ = p2.p_orbits(11)
    assert ao == [(1, 2), (1, 8)]
    with pytest.raises(DoesNotSplit):
        p2.p_orbits(2)

    ph = HGParams([F(1, 2), F(1, 2)], [0, 0])
    ao, _ = ph.p_orbits(7)
    assert ao == [(1, 3), (1, 3)]

    # at q = 4 the orbit {1/5, 4/5} has length 2 and its component is F_16
    ao, _ = p4.p_orbits(4)
    assert ao == [(2, 3), (2, 6)]
    _assert_orbit_table(ao, 4, p4.alpha)


def test_orbit_multiset_union():
    p = HGParams([F(1, 8), F(3, 8), F(1, 8), F(3, 8)], [0, 0, F(1, 2), F(1, 2)])
    ao, bo = p.p_orbits(3)
    assert ao == [(2, 1), (2, 1)] and bo == [(1, 0), (1, 0), (1, 1), (1, 1)]
    _assert_orbit_table(ao, 3, p.alpha)
    _assert_orbit_table(bo, 3, p.beta)


def test_defining_polynomials():
    p = HGParams([F(1, 2), F(1, 2)], [0, 0])
    pa, pb = p.defining_polynomials()
    assert [c.as_rational() for c in pa] == [1, 2, 1]
    assert [c.as_rational() for c in pb] == [1, -2, 1]

    p4 = HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, 0, 0, 0])
    pa, _ = p4.defining_polynomials()
    assert [c.as_rational() for c in pa] == [1, 1, 1, 1, 1]

    p2 = HGParams([F(1, 5), F(4, 5)], [0, 0])
    pa, _ = p2.defining_polynomials()
    assert pa[1] == -(root_of_unity(5, 1) + root_of_unity(5, 4))
    assert pa[1].as_rational() is None


def test_disjointness_stable_under_conjugation():
    p = HGParams([F(1, 8), F(3, 8)], [0, F(1, 2)])
    d = p.common_denominator()
    for k in range(1, d):
        if gcd(k, d) == 1:
            p.conjugate(k)  # construction revalidates disjointness


def test_defined_over_q_iff_integer_polys():
    over_q = HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, F(1, 2), F(1, 2), 0])
    assert over_q.is_defined_over_q()
    pa, pb = over_q.defining_polynomials()
    for c in pa + pb:
        r = c.as_rational()
        assert r is not None and r.denominator == 1
    not_over_q = HGParams([F(1, 5), F(4, 5)], [0, 0])
    assert not not_over_q.is_defined_over_q()
    pa, _ = not_over_q.defining_polynomials()
    assert any(c.as_rational() is None for c in pa)
