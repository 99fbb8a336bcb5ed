import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from finhyp.errors import (
    BadPrecision,
    BadPrime,
    BoundExceeded,
    ConductorNotDividing,
    DivisionByZero,
    ExponentNotIntegral,
    FieldMismatch,
    NotPAdicInteger,
    ZeroArgument,
    ZeroElement,
)
from finhyp.cyclo import CycloNum, root_of_unity
from finhyp.hypergeometric import classic_sum
from finhyp.padic import (
    PadicNum,
    PiExp,
    _gamma_blocks,
    _vp,
    _gamma_cache,
    _gamma_compute,
    _gamma_work,
    _unit_terms,
    embed_cyclotomic,
    gamma_p,
    gauss_sum_padic,
    padic_sum_direct,
    padic_sum_via_orbits,
    prefetch_gamma_p,
    teichmuller,
)
from finhyp.params import HGParams

F = Fraction


# ------------------------------------------------------------ PadicNum


def test_from_rational_and_lift():
    a = PadicNum.from_rational(F(7, 3), 5, 4)
    # 7/3 = 7 * inv(3) mod 625
    assert (a.u * 3 - 7) % 5**4 == 0 and a.v == 0
    b = PadicNum.from_rational(F(25, 2), 5, 4)
    assert b.v == 2
    c = PadicNum.from_rational(F(3, 25), 5, 4)
    assert c.v == -2
    assert PadicNum.from_rational(9, 7, 3).centered_lift() == 9
    assert PadicNum.from_rational(-11, 7, 3).centered_lift() == -11


def test_precision_tracking_on_add():
    p = 5
    a = PadicNum(p, 0, 1, 6)       # 1 + O(5^6)
    b = PadicNum(p, 4, 1, 2)       # 5^4 + O(5^6)
    s = a + b
    assert s.abs_prec == 6
    z = a - a
    assert z.u == 0 and z.abs_prec == 6
    # adding a low-precision value degrades the result
    c = PadicNum(p, 0, 1, 2)
    assert (a + c).abs_prec == 2


def test_mul_with_inexact_zero():
    p = 5
    z = PadicNum(p, 3, 0, 0)       # O(5^3)
    a = PadicNum(p, 1, 2, 4)       # 2*5 + O(5^5)
    prod = z * a
    assert prod.u == 0 and prod.abs_prec == 4


def test_inverse_and_division():
    a = PadicNum.from_rational(F(3, 7), 13, 5)
    assert (a * a.inverse()).eq_mod(PadicNum.from_rational(1, 13, 5), 5)
    with pytest.raises(DivisionByZero):
        PadicNum.exact_zero(13).inverse()


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=9),
    st.fractions(min_value=-50, max_value=50, max_denominator=9),
    st.fractions(min_value=-50, max_value=50, max_denominator=9),
)
def test_padic_field_laws(x, y, z):
    p, n = 7, 6
    a = PadicNum.from_rational(x, p, n)
    b = PadicNum.from_rational(y, p, n)
    c = PadicNum.from_rational(z, p, n)
    lhs = (a + b) + c
    rhs = a + (b + c)
    k = min(lhs.abs_prec, rhs.abs_prec)
    assert lhs.eq_mod(rhs, k)
    lhs = a * (b + c)
    rhs = a * b + a * c
    k = min(lhs.abs_prec, rhs.abs_prec, 4)
    assert lhs.eq_mod(rhs, k)


def test_json_round_trip():
    a = PadicNum.from_rational(F(7, 6), 5, 5)
    b = PadicNum.from_json(a.to_json())
    assert a.eq_mod(b, 5)
    z = PadicNum.exact_zero(5)
    assert PadicNum.from_json(z.to_json()).is_exact_zero()


# ---------------------------------------------------------- teichmuller


def test_teichmuller():
    p, n = 5, 6
    mod = p**n
    assert teichmuller(1, p, n).u == 1
    assert teichmuller(p - 1, p, n).u == mod - 1
    for a in range(1, p):
        t = teichmuller(a, p, n)
        assert pow(t.u, p - 1, mod) == 1
        assert t.u % p == a
    with pytest.raises(ZeroElement):
        teichmuller(0, p, n)


# -------------------------------------------------------------- gamma_p


def _gamma_bruteforce(x_residue, p, n):
    mod = p**n
    prod = 1
    for j in range(1, x_residue):
        if j % p:
            prod = prod * j % mod
    return (mod - prod) % mod if x_residue % 2 else prod


def test_gamma_small_values():
    assert gamma_p(1, 5, 6).u == 5**6 - 1          # Gamma(1) = -1
    assert gamma_p(0, 5, 6).u == 1                 # Gamma(0) = 1
    assert gamma_p(2, 7, 4).u == 1                 # Gamma(2) = 1


def test_gamma_matches_bruteforce():
    rng = random.Random(0)
    for p, n in ((3, 4), (5, 3), (7, 3)):
        mod = p**n
        for _ in range(15):
            r = rng.randrange(1, mod + 1)
            assert gamma_p(r if r < mod else 0, p, n).u == _gamma_bruteforce(r, p, n), (p, n, r)


def test_gamma_functional_equation():
    # Gamma(x+1) = -x Gamma(x) when p does not divide x, else -Gamma(x)
    p, n = 7, 4
    mod = p**n
    for x in (1, 2, 3, 6, 7, 13, 14, 48):
        lhs = gamma_p(x + 1, p, n).u
        rhs = (-x * gamma_p(x, p, n).u) % mod if x % p else (-gamma_p(x, p, n).u) % mod
        assert lhs == rhs, x


def _residue(x, mod):
    x = F(x)
    return x.numerator * pow(x.denominator, -1, mod) % mod or mod


def test_gamma_reflection():
    # gamma_p reads Gamma_p(1 - x) off a cached Gamma_p(x), so both values
    # are checked against the defining product before the identity
    rng = random.Random(1)
    for p in (3, 5, 7):
        n = 4
        mod = p**n
        for _ in range(12):
            x = F(rng.randrange(1, 50), rng.choice([1, 2, 4, 11]))
            if x.denominator % p == 0:
                continue
            gx, gy = gamma_p(x, p, n), gamma_p(1 - x, p, n)
            assert gx.u == _gamma_bruteforce(_residue(x, mod), p, n)
            assert gy.u == _gamma_bruteforce(_residue(1 - x, mod), p, n)
            x0 = int(x.numerator * pow(x.denominator, -1, p) % p) or p
            assert (gx * gy).u == ((mod - 1) if x0 % 2 else 1)


def _count_evaluations(monkeypatch, p, n):
    """Empty the (p, n) cache for one test and record the residue of every
    evaluation."""
    from finhyp import padic

    calls = []
    monkeypatch.setattr(padic, "_gamma_compute",
                        lambda r, *a: calls.append(r) or _gamma_compute(r, *a))
    monkeypatch.setitem(_gamma_cache, (p, n), {})
    return calls


@pytest.mark.parametrize("p,n", [(13, 7), (3, 6), (5, 4), (11, 7), (13, 9), (101, 3)])
def test_gamma_batch_evaluates_one_value_per_reflection_pair(p, n, monkeypatch):
    # k/(p-1), k < p-1: k and p-1-k pair, (p-1)/2 (x = 1/2) pairs with
    # itself and 0 (the residue p^n) with 1, which is not in the batch
    mod = p**n
    calls = _count_evaluations(monkeypatch, p, n)
    args = [F(k, p - 1) for k in range(p - 1)]
    values = prefetch_gamma_p(args, p, n)
    assert len(calls) == 1 + (p - 1) // 2
    residues = [_residue(x, mod) for x in args]
    assert residues[0] == mod and residues[(p - 1) // 2] == _residue(F(1, 2), mod)
    assert values == [_gamma_compute(r, p, n) for r in residues]
    # a partner cached by the earlier call: 1 pairs with 0
    calls.clear()
    assert gamma_p(1, p, n).u == _gamma_compute(1, p, n) and calls == []


def test_gamma_p2_values_are_not_reflected(monkeypatch):
    # the odd-p sign of the reflection formula fails at p = 2
    p, n = 2, 8
    mod = p**n
    calls = _count_evaluations(monkeypatch, p, n)
    args = [F(1, 3), F(2, 3), F(1, 5), F(4, 5), 0, 1, 5, -4]
    residues = [_residue(x, mod) for x in args]
    assert prefetch_gamma_p(args, p, n) == [_gamma_bruteforce(r, p, n) for r in residues]
    assert sorted(calls) == sorted(residues)


def test_gamma_continuity():
    p, n = 5, 6
    for x, m in ((3, 3), (17, 2), (230, 4)):
        a = gamma_p(x, p, n)
        b = gamma_p(x + p**m, p, n)
        assert (a - b).is_zero_mod(m)


def test_gamma_rejects_non_integer():
    with pytest.raises(NotPAdicInteger):
        gamma_p(F(1, 5), 5, 4)


def test_gamma_cost_cap(monkeypatch):
    # a cached value skips the check, so the test sees an empty 13^9 cache
    monkeypatch.setitem(_gamma_cache, (13, 9), {})
    # W = 117 for f, 2916 for the blocks, 337 for the one value
    assert _gamma_work(13, 9, 1) == 3370
    with pytest.raises(BoundExceeded):
        gamma_p(F(1, 3), 13, 9, max_pn=3369)


def test_gamma_cheap_request_passes_default_cap():
    # W = 3370, although its representative in [1, 13^9] is 3534833125
    x = F(1, 3)
    assert (gamma_p(x + 1, 13, 9) + gamma_p(x, 13, 9) * x).is_zero_mod(9)


def test_gamma_costly_request_refused_before_work():
    # representative 2 (of 1 - x), but the tail loop alone is p steps
    start = time.perf_counter()
    with pytest.raises(BoundExceeded):
        gamma_p(-1, 10000019, 1)
    assert time.perf_counter() - start < 0.5
    assert (10000019, 1) not in _gamma_cache and (10000019, 1) not in _gamma_blocks


@pytest.mark.parametrize("route", [padic_sum_direct, padic_sum_via_orbits])
def test_costly_series_refused_before_its_arguments(route):
    # p-1 distinct Gamma_p arguments are priced before any of them is built
    p = 100003
    start = time.perf_counter()
    with pytest.raises(BoundExceeded):
        route(HGParams([F(1, 2)], [0]), p, 1, 6)
    assert time.perf_counter() - start < 0.5
    assert (p, 6) not in _gamma_cache and (p, 6) not in _gamma_blocks
    assert not any(key[2] == p for key in _unit_terms)


def test_benchmark_call_interface():
    # the benchmark passes max_pn positionally, as p^N
    p, n = 11, 7
    params = HGParams([F(1, 2), F(1, 2)], [0, 0])
    calls = [
        lambda cap: gamma_p(F(3, 10), p, n, cap),
        lambda cap: gauss_sum_padic(p, 1, 3, n, cap),
        lambda cap: padic_sum_direct(params, p, 2, n, cap),
        lambda cap: padic_sum_via_orbits(params, p, 2, n, cap),
    ]
    _gamma_cache.pop((p, n), None)  # a cached value skips the check
    _unit_terms.clear()
    for call in calls:
        with pytest.raises(BoundExceeded):
            call(10)
    for call in calls:
        assert call(p**n) is not None


def test_gamma_doubling_matches_bruteforce():
    # p = 2, p^N up to 10^5, N = 1; residues at block edges kp and kp + 1
    rng = random.Random(2)
    for p, n in ((2, 16), (3, 10), (17, 4), (3, 3), (2, 3), (2, 1), (3, 1), (13, 1)):
        mod = p**n
        ks = {0, 1, mod // p - 1} | {rng.randrange(mod // p) for _ in range(3)}
        residues = {1, 2, mod - 1, mod} | {k * p for k in ks if k} | {k * p + 1 for k in ks}
        for r in sorted(x for x in residues if 1 <= x <= mod):
            assert gamma_p(r % mod, p, n).u == _gamma_bruteforce(r, p, n), (p, n, r)


def test_gamma_every_residue_matches_bruteforce():
    # every bit pattern of k = (r - 1) // p below 2^7, so every block offset
    for p, n in ((2, 8), (3, 5), (7, 3)):
        mod = p**n
        for r in range(1, mod + 1):
            assert gamma_p(r % mod, p, n).u == _gamma_bruteforce(r, p, n), (p, n, r)


def test_gamma_identities_at_large_precision():
    p, n = 101, 20
    mod = p**n

    def g(x):
        return gamma_p(x, p, n)

    assert g(0).u == 1
    assert g(1).u == mod - 1
    for x in (F(1, 3), F(7, 100), 12345, p, 2 * p):
        rhs = -(g(x) * x) if F(x).numerator % p else -g(x)
        assert (g(x + 1) - rhs).is_zero_mod(n), x
    for x in (F(1, 3), F(5, 7)):
        # one of g(x), g(1 - x) is read off the other: check both directly
        for y in (x, 1 - x):
            assert g(y).u == _gamma_compute(_residue(y, mod), p, n), y
        x0 = int(x.numerator * pow(x.denominator, -1, p) % p) or p
        assert (g(x) * g(1 - x)).u == ((mod - 1) if x0 % 2 else 1), x
    for x, m in ((F(2, 9), 5), (17, 12)):
        assert (g(x) - g(x + p**m)).is_zero_mod(m)


def test_gamma_rejects_nonpositive_precision():
    for prec in (0, -2):
        with pytest.raises(BadPrecision):
            gamma_p(2, 5, prec)
        with pytest.raises(BadPrecision):
            prefetch_gamma_p([2], 5, prec)


def test_prefetch_returns_units_in_argument_order():
    p, n = 5, 3
    args = [7, 3, 7, F(1, 2), p**n]
    residues = [7, 3, 7, pow(2, -1, p**n), p**n]
    assert prefetch_gamma_p(args, p, n) == [_gamma_bruteforce(r, p, n) for r in residues]
    assert prefetch_gamma_p([], p, n) == []


# --------------------------------------------------------- Gauss sums


def test_gauss_sum_padic_trivial():
    g = gauss_sum_padic(5, 1, 0, 6)
    assert g.e == 0 and g.u == 5**6 - 1
    # multiples of p-1 also give the trivial character
    g2 = gauss_sum_padic(5, 1, 8, 6)
    assert g2.e == 0 and g2.u == 5**6 - 1
    # and the conversion agrees with embedding the exact Gauss sum
    from finhyp.charsums import MultChar, gauss_sum
    from finhyp.finfield import make_field

    for p in (5, 7):
        exact = gauss_sum(MultChar(make_field(p), 0))  # rational value -1
        emb = embed_cyclotomic(exact.is_in_subfield(1), p, 6)
        conv = gauss_sum_padic(p, 1, p - 1, 6).to_padic()
        assert conv.eq_mod(emb, 6)


def test_gauss_sum_padic_prime_case():
    # f = 1 reduces to a single Gamma factor
    p, n = 7, 5
    for m in range(1, 6):
        g = gauss_sum_padic(p, 1, m, n)
        frac = F(m % (p - 1), p - 1)
        assert g.e == (p - 1) * frac
        assert g.u == (-gamma_p(frac, p, n).u) % p**n


def test_gauss_sum_padic_frobenius_invariance():
    g1 = gauss_sum_padic(7, 2, 5, 6)
    g2 = gauss_sum_padic(7, 2, 5 * 7, 6)
    assert g1.e == g2.e and g1.u == g2.u


def test_pi_exp_conversion():
    p = 5
    g = PiExp(p, 4, 2 * (p - 1), 3)
    v = g.to_padic()
    assert v.v == 2 and v.u == 3
    h = PiExp(p, 4, p - 1, 3)
    assert h.to_padic().u == (p**4 - 3) % p**4  # odd power of pi picks up -1
    with pytest.raises(ExponentNotIntegral):
        PiExp(p, 4, F(3, 2), 1).to_padic()


# ------------------------------------------------- hypergeometric sums


def test_padic_sum_validations():
    params = HGParams([F(1, 2)], [0])
    with pytest.raises(ZeroArgument):
        padic_sum_direct(params, 5, 5, 4)
    with pytest.raises(BadPrime):
        padic_sum_direct(HGParams([F(1, 5)], [0]), 5, 1, 4)


def test_gross_koblitz_end_to_end_small():
    cases = [
        HGParams([F(1, 2)], [0]),
        HGParams([F(1, 2), F(1, 2)], [0, 0]),
        HGParams([F(1, 4), F(3, 4)], [0, F(1, 2)]),
    ]
    for params in cases:
        delta = params.denominator_exponent()
        for t in range(1, 5):
            v = classic_sum(params, 5, t).is_in_subfield(4)
            assert v is not None
            emb = embed_cyclotomic(v, 5, 6)
            gp = padic_sum_direct(params, 5, t, 6)
            assert gp.eq_mod(emb, 6 - delta), (params, t)


def test_orbit_route_matches_direct():
    params = HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, 0, 0, 0])
    delta = params.denominator_exponent()
    for t in range(1, 7):
        d = padic_sum_direct(params, 7, t, 6)
        o = padic_sum_via_orbits(params, 7, t, 6)
        assert d.eq_mod(o, 6 - delta)


@pytest.mark.parametrize("alpha, beta", [
    ([F(1, 3), F(2, 3)], [0, 0]),
    ([0, F(1, 2)], [F(1, 3), F(2, 3)]),
])
def test_orbit_route_checks_cap_before_work(monkeypatch, alpha, beta):
    from finhyp import padic

    # cached Gamma_p values or unit terms would skip the check
    monkeypatch.setitem(_gamma_cache, (13, 9), {})
    monkeypatch.setattr(padic, "_unit_terms", {})

    def cached():
        return {key: len(values) for key, values in _gamma_cache.items() if values}

    before = cached()
    # every Gauss sum over F_13 is within the cap on its own, the route is not
    with pytest.raises(BoundExceeded):
        padic_sum_via_orbits(HGParams(alpha, beta), 13, 2, 9, _gamma_work(13, 9, 1))
    assert cached() == before


def test_warm_padic_sums_reuse_their_unit_terms(monkeypatch):
    from finhyp import padic

    params = HGParams([F(1, 8), F(3, 8)], [0, 0])
    cold = [route(params, 17, t, 6) for route in (padic_sum_direct, padic_sum_via_orbits)
            for t in (2, 5)]

    def no_gamma_work(*args):
        raise AssertionError("a warm sum rebuilt its Gamma_p arguments")

    for name in ("prefetch_gamma_p", "series_residues", "_gauss_orbits"):
        monkeypatch.setattr(padic, name, no_gamma_work)
    warm = [route(params, 17, t, 6) for route in (padic_sum_direct, padic_sum_via_orbits)
            for t in (2, 5)]
    assert warm == cold


def _digits(v):
    return (v.v, v.u, v.prec, v.exact)


@pytest.mark.parametrize("alpha, beta, p, divides", [
    ("1/2,1/2", "0,0", 7, True),
    ("1/8,3/8", "0,1/2", 17, True),
    ("1/3,2/3", "1/2,1/2", 7, True),  # delta = 1
    ("1/7,6/7", "0,0", 13, False),
    ("1/4,3/4", "1/3,2/3", 5, False),
    ("1/3,1/2,2/3", "0,1/4,3/4", 11, False),
    ("1/5,2/5", "0,0", 7, False),  # does not split: direct route only
])
def test_series_routes_match_fraction_references(alpha, beta, p, divides):
    # the integer routes against gamma_p at Fraction arguments, PiExp row
    # products and PadicNum assembly, digit for digit, with and without
    # D | p-1
    params = HGParams.parse(alpha, beta)
    assert ((p - 1) % params.common_denominator() == 0) == divides
    for prec in (1, 4, 8):
        for t in range(1, p):
            assert (_digits(padic_sum_direct(params, p, t, prec))
                    == _digits(oracles.sum_direct(params, p, t, prec))), (prec, t)
            if params.splits_at(p):
                assert (_digits(padic_sum_via_orbits(params, p, t, prec))
                        == _digits(oracles.sum_via_orbits(params, p, t, prec))), (prec, t)


def test_series_routes_match_fraction_references_random():
    from finhyp.checks import random_params

    rng = random.Random(18)
    orbit_cases = 0
    for _ in range(25):
        p = rng.choice([3, 5, 7, 11, 13])
        params = random_params(rng)
        if params.common_denominator() % p == 0:
            continue
        prec = rng.choice([1, 4, 8])
        for t in range(1, p):
            assert (_digits(padic_sum_direct(params, p, t, prec))
                    == _digits(oracles.sum_direct(params, p, t, prec))), (params, p, t)
            if params.splits_at(p):
                orbit_cases += 1
                assert (_digits(padic_sum_via_orbits(params, p, t, prec))
                        == _digits(oracles.sum_via_orbits(params, p, t, prec))), (params, p, t)
    assert orbit_cases > 10


def test_gauss_sum_padic_matches_fraction_reference():
    for p, f in ((5, 1), (5, 2), (7, 2), (3, 3), (11, 1)):
        for m in range(-3, p**f + 3, max(1, p**f // 20)):
            for prec in (1, 4, 8):
                g, ref = gauss_sum_padic(p, f, m, prec), oracles.gauss_sum_padic(p, f, m, prec)
                assert (g.e, g.u, g.prec) == (ref.e, ref.u, ref.prec), (p, f, m, prec)


def test_embed_matches_fraction_reference():
    # p in a denominator needs guard digits; p dividing the value, or the
    # gcd of its coordinates, gives it fewer digits of relative precision
    rng = random.Random(19)
    values = []
    for p in (5, 7, 11, 13):
        for m in [k for k in range(1, p) if (p - 1) % k == 0]:
            z = root_of_unity(m, 1)
            values += [(p, CycloNum.zero(m)), (p, CycloNum.one(m) * p**2),
                       (p, (z + 2) * F(1, p**2)), (p, (z + 2) * p), (p, z * F(p, 3) + F(1, p))]
            deg = len(CycloNum.zero(m).num)
            for _ in range(4):
                coeffs = [F(rng.randrange(-30, 31) * p**rng.choice([0, 0, 1, 2]),
                            rng.randrange(1, 9) * p**rng.choice([0, 0, 1])) for _ in range(deg)]
                values.append((p, CycloNum(m, coeffs)))
    for p, v in values:
        for prec in (1, 4, 8):
            assert _digits(embed_cyclotomic(v, p, prec)) == _digits(
                oracles.embed_cyclotomic(v, p, prec)), (p, v, prec)
    # a value divisible by p keeps prec digits above its valuation
    assert _digits(embed_cyclotomic(CycloNum.one(1) * 7, 7, 4)) == (1, 1, 4, False)


def test_orbit_route_with_denominators():
    params = HGParams([F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)])
    delta = params.denominator_exponent()
    assert delta == 1
    for t in (1, 3, 6):
        d = padic_sum_direct(params, 7, t, 6)
        o = padic_sum_via_orbits(params, 7, t, 6)
        assert d.eq_mod(o, 6 - delta)
        assert d.valuation_lower_bound() >= -delta


def test_precision_degradation_bounded():
    params = HGParams([F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)])
    delta = params.denominator_exponent()
    a = padic_sum_direct(params, 7, 2, 4)
    b = padic_sum_direct(params, 7, 2, 6)
    assert a.eq_mod(b, 4 - delta)


def test_valuation_bound_random():
    rng = random.Random(5)
    from finhyp.checks import random_params

    for _ in range(20):
        p = rng.choice([3, 5, 7, 11])
        params = random_params(rng)
        while params.common_denominator() % p == 0:
            params = random_params(rng)
        t = rng.randrange(1, p)
        v = padic_sum_direct(params, p, t, 4)
        assert v.valuation_lower_bound() >= -params.denominator_exponent()


# ------------------------------------------------------------- embed


def test_embed_basics():
    p, n = 13, 5
    assert embed_cyclotomic(CycloNum.one(1), p, n).eq_mod(
        PadicNum.from_rational(1, p, n), n
    )
    z = root_of_unity(p - 1, 1)
    img = embed_cyclotomic(z, p, n)
    assert (img**(p - 1)).eq_mod(PadicNum.from_rational(1, p, n), n)
    with pytest.raises(ConductorNotDividing):
        embed_cyclotomic(root_of_unity(5, 1), 13, 4)


def test_embed_is_ring_hom():
    p, n = 11, 5
    a = root_of_unity(p - 1, 3) + 2
    b = root_of_unity(p - 1, 7) * F(1, 2) + 1
    ea, eb = embed_cyclotomic(a, p, n), embed_cyclotomic(b, p, n)
    assert embed_cyclotomic(a * b, p, n).eq_mod(ea * eb, n)
    assert embed_cyclotomic(a + b, p, n).eq_mod(ea + eb, n)


def test_padic_misuse_raises_typed_errors():
    with pytest.raises(ZeroElement):
        _vp(0, 5)
    with pytest.raises(FieldMismatch):
        PadicNum.from_rational(1, 5, 4) + PadicNum.from_rational(1, 7, 4)
    with pytest.raises(NotPAdicInteger):
        PadicNum.from_rational(F(1, 5), 5, 4).centered_lift()
