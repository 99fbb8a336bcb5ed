import json
import random
from fractions import Fraction

import pytest

import finhyp.checks as checks
from finhyp.checks import (
    check_example_recovery,
    check_fixed_field,
    check_fourier,
    check_gauss_norm,
    check_gp_equals_hp,
    check_integrality_delta,
    check_main_theorem,
    check_omega_independence,
    check_zeta_p_independence,
    fixed_params,
    random_algebra_instance,
    run_full_suite,
)
from finhyp.errors import AssumptionFails, DoesNotSplit
from finhyp.params import HGParams

F = Fraction


def test_fixed_parameter_list():
    params = fixed_params()
    assert len(params) == 10
    dens = {p.common_denominator() for p in params}
    assert {2, 3, 4, 6, 12} <= dens


def test_report_shape():
    rng = random.Random(0)
    inst = random_algebra_instance(rng, 3, max_size=27)
    r = check_fourier(inst)
    assert r.passed and r.witness is None
    payload = r.to_json()
    assert set(payload) == {"check", "instance", "verdict", "millis"}
    json.dumps(payload)


def test_failing_check_carries_witness(monkeypatch):
    import finhyp.hypergeometric as hg

    rng = random.Random(1)
    inst = random_algebra_instance(rng, 3, max_size=27)
    real = hg.algebra_sum_fourier

    def corrupted(i, t, twist=1):
        return real(i, t, twist) * 2

    monkeypatch.setattr(checks, "algebra_sum_fourier", corrupted)
    r = check_fourier(inst)
    assert not r.passed
    assert r.witness and r.witness["failures"]


def test_zeta_p_requires_equidimensional():
    rng = random.Random(2)
    inst = random_algebra_instance(rng, 3, max_size=27)
    while inst.is_equidimensional:
        inst = random_algebra_instance(rng, 3, max_size=27)
    with pytest.raises(AssumptionFails):
        check_zeta_p_independence(inst)


def test_example_recovery_check():
    r = check_example_recovery(HGParams([F(1, 6)], [F(1, 2)]), 7)
    assert r.passed


def test_gauss_norm_check():
    rng = random.Random(3)
    inst = random_algebra_instance(rng, 5, max_size=81)
    assert check_gauss_norm(inst.chiA).passed


def test_omega_independence_check():
    r = check_omega_independence(HGParams([F(1, 2), F(1, 2)], [0, 0]), 13, ts=[1, 5])
    assert r.passed


def test_fixed_field_check_and_control():
    r = check_fixed_field(HGParams([F(1, 5), F(4, 5)], [0, 0]), 11)
    assert r.passed
    # defined-over-Q pair: control vacuous, still a pass
    r2 = check_fixed_field(HGParams([F(1, 2), F(1, 2)], [0, 0]), 5)
    assert r2.passed


def test_fixed_field_with_degree_four_component():
    # 5 does not divide 7 - 1: the values come from the F_{7^4} orbit instance
    r = check_fixed_field(HGParams.parse("1/5,2/5,3/5,4/5", "0,0,0,0"), 7)
    assert r.passed


def test_fixed_field_negative_control_fires(monkeypatch):
    # if values were rational for a pair with K != Q the check must fail
    import finhyp.hypergeometric as hg
    from finhyp.cyclo import CycloNum

    monkeypatch.setattr(
        checks, "algebra_sum_direct", lambda i, t, twist=1: CycloNum.one(1)
    )
    r = check_fixed_field(HGParams([F(1, 5), F(4, 5)], [0, 0]), 11)
    assert not r.passed
    assert any("negative control" in str(f) for f in r.witness["failures"])


def test_gp_equals_hp_both_modes():
    r = check_gp_equals_hp(HGParams([F(1, 2), F(1, 2)], [0, 0]), 5, prec=5)
    assert r.passed and "embedding" in r.instance
    r2 = check_gp_equals_hp(
        HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, 0, 0, 0]), 7, prec=5
    )
    assert r2.passed and "orbit-route" in r2.instance


def test_gp_equals_hp_without_precision_is_inconclusive():
    # delta = 1 at prec 1: the comparison would be modulo p^0
    r = check_gp_equals_hp(HGParams.parse("1/3,2/3", "1/2,1/2"), 13, prec=1)
    assert r.verdict == "inconclusive" and not r.passed
    assert r.witness == {"prec": 1, "delta": 1}


def test_integrality_check():
    r = check_integrality_delta(HGParams([F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]), 7, prec=5)
    assert r.passed and "delta=1" in r.instance


def test_main_theorem_check():
    r = check_main_theorem(HGParams([F(1, 5), F(4, 5)], [0, 0]), 11, 1)
    assert r.passed
    assert "lifts=" in r.instance
    with pytest.raises(DoesNotSplit):
        check_main_theorem(HGParams([F(1, 5), F(4, 5)], [0, 0]), 7, 1)


def test_main_theorem_coefficients_are_symmetric_integers():
    # the lift list encodes a monic integer polynomial; spot-check one value
    r = check_main_theorem(HGParams([F(1, 5), F(4, 5)], [0, 0]), 11, 2)
    assert r.passed


def test_suite_seed_determinism():
    a = run_full_suite(seed=9, checks=["gauss_norm"])
    b = run_full_suite(seed=9, checks=["gauss_norm"])
    assert [r.instance for r in a] == [r.instance for r in b]
    assert all(r.passed for r in a)
