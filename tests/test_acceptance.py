"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line on success (run with -s to watch).
All equalities on the complex side are exact; p-adic comparisons are
modulo p^(N - delta) as dictated by the precision model.
"""

import random
from fractions import Fraction
from math import floor, lcm

import pytest

from finhyp.checks import (
    check_example_recovery,
    check_fixed_field,
    check_fourier,
    check_gauss_norm,
    check_gp_equals_hp,
    check_main_theorem,
    check_omega_independence,
    check_zeta_p_independence,
    fixed_params,
    random_algebra_instance,
    random_params,
)
from finhyp.errors import ExponentNotIntegral, InternalInconsistency
from finhyp.padic import padic_sum_direct, padic_sum_via_orbits
from finhyp.params import HGParams

F = Fraction


def _announce(num, name):
    print(f"\nACCEPTANCE {num} {name}: PASS")


def _assumption_holds(params, q):
    return all(((q - 1) * x).denominator == 1 for x in params.alpha + params.beta)


def test_criterion_1_fourier_identity():
    rng = random.Random(1001)
    count = 0
    for q in (3, 5, 7, 9):
        for _ in range(6):
            inst = random_algebra_instance(rng, q, max_size=81)
            report = check_fourier(inst)
            assert report.passed, report
            count += 1
    assert count >= 20
    _announce(1, "fourier-expansion identity, direct vs expansion, exact")


def test_criterion_2_example_recovery():
    ran = 0
    for params in fixed_params():
        for q in (5, 7, 13):
            if not _assumption_holds(params, q):
                continue
            report = check_example_recovery(params, q)
            assert report.passed, report
            ran += 1
    assert ran >= 10
    _announce(2, "split-algebra instance recovers the classic series, exact")


def test_criterion_3_gauss_norms():
    rng = random.Random(1003)
    for _ in range(50):
        q = rng.choice((3, 5, 7, 9))
        inst = random_algebra_instance(rng, q, max_size=81)
        report = check_gauss_norm(inst.chiA)
        assert report.passed, report
    _announce(3, "Gauss-sum norms |g|^2 = q^f, 50 random characters, exact")


def test_criterion_4_independence():
    rng = random.Random(1004)
    done = 0
    while done < 10:
        q = rng.choice((3, 5, 7))
        inst = random_algebra_instance(rng, q, max_size=64, equidim=True)
        report = check_zeta_p_independence(inst)
        assert report.passed, report
        done += 1
    swaps = 0
    for params in fixed_params():
        for q in (5, 7, 13):
            if _assumption_holds(params, q) and swaps < 10:
                report = check_omega_independence(params, q)
                assert report.passed, report
                swaps += 1
    assert swaps == 10
    _announce(4, "zeta_p twists and generator swaps leave values unchanged, exact")


def test_criterion_5_fixed_field():
    cases = [
        ("1/5,4/5", "0,0", 11, None),
        ("2/5,3/5", "0,0", 11, None),
        ("1/12,5/12", "0,0", 13, None),
        ("1/8,5/8", "0,1/2", 17, None),
        ("1/3,2/3", "1/2,1/2", 7, None),
        ("1/8,3/8", "0,0", 11, [1, 2, 3]),
    ]
    for a, b, p, ts in cases:
        report = check_fixed_field(HGParams.parse(a, b), p, ts=ts)
        assert report.passed, report
    _announce(5, "values fixed by exactly the stabilizer, negative control fires")


def test_criterion_6_gross_koblitz_end_to_end():
    ran = 0
    for params in fixed_params():
        for p in (5, 13):
            if not _assumption_holds(params, p):
                continue
            report = check_gp_equals_hp(params, p, prec=6)
            assert report.passed, report
            ran += 1
    assert ran >= 10
    p4 = HGParams.parse("1/5,2/5,3/5,4/5", "0,0,0,0")
    report = check_gp_equals_hp(p4, 7, prec=6)
    assert report.passed and "orbit-route" in report.instance
    _announce(6, "embedded complex sums match p-adic sums mod p^(N-delta)")


def test_criterion_7_integrality():
    rng = random.Random(1007)
    checked_orbit_route = 0
    for _ in range(100):
        p = rng.choice((3, 5, 7, 11, 13))
        params = random_params(rng)
        while params.common_denominator() % p == 0:
            params = random_params(rng)
        t = rng.randrange(1, p)
        delta = params.denominator_exponent()
        v = padic_sum_direct(params, p, t, 4)
        assert v.valuation_lower_bound() >= -delta, (params, p, t)
        # term exponents are integers across the sweep by construction;
        # the orbit route must never see a fractional pi-exponent
        for m in range(p - 1):
            params.term_exponent(p, m)
        if params.splits_at(p):
            try:
                padic_sum_via_orbits(params, p, t, 4)
                checked_orbit_route += 1
            except (ExponentNotIntegral, InternalInconsistency) as e:
                pytest.fail(f"orbit route integrality violated: {e}")
    assert checked_orbit_route > 5
    _announce(7, "p^delta integrality and pi-exponent integrality over 100 triples")


def test_criterion_8_main_theorem_stability():
    params = HGParams.parse("1/5,4/5", "0,0")
    for p in (11, 19):
        for t in (1, 2, 3):
            report = check_main_theorem(params, p, t)
            assert report.passed, report
    over_q = HGParams.parse("1/2,1/2", "0,0")
    for t in (1, 2, 3):
        report = check_main_theorem(over_q, 13, t)
        assert report.passed, report
    _announce(8, "characteristic-polynomial lifts stable across N in {6,8}")


def test_criterion_9_delta_oracle():
    rng = random.Random(1009)
    pool = fixed_params()
    while len(pool) < 20:
        pool.append(random_params(rng))
    for params in pool:
        d = params.common_denominator()
        steps = 2 * lcm(d, 2) * params.d
        best = max(
            sum(floor(F(j, steps) + a) - floor(a) for a in params.alpha)
            + sum(floor(-F(j, steps) - b) - floor(-b) for b in params.beta)
            for j in range(steps + 1)
        )
        assert params.denominator_exponent() == best, params
    _announce(9, "denominator exponent matches brute-force grid maximization")
