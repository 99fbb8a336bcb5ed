import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from finhyp.charsums import (
    AlgebraChar,
    MultChar,
    SemisimpleAlgebra,
    _GaussPair,
    _gauss_pair_entry,
    _trace_fibres,
    gauss_product,
    gauss_sum,
)
from finhyp import clear_caches, cyclo
from finhyp.cyclo import CycloNum, _from_slots, _gather, _Packed, root_of_unity
from finhyp.errors import (
    AssumptionFails,
    FieldMismatch,
    FieldTooLarge,
    FinHypError,
    NotCoprime,
    NotPrime,
    ZeroArgument,
)
from finhyp.finfield import make_field, prime_power
from finhyp.hypergeometric import (
    HGAlgebraInstance,
    _direct_tally,
    _reads_at_big,
    algebra_sum_direct,
    algebra_sum_fourier,
    classic_sum,
    greene_factor,
    katz_unnormalized,
    orbit_instance,
    split_instance,
)
from finhyp.padic import PadicNum, padic_sum_direct
from finhyp.params import HGParams

import oracles

F = Fraction


def _classic_bruteforce(params, q, t):
    """Second, unoptimized evaluation of the series; generic division only."""
    field = make_field(q)
    qbar = q - 1
    total = CycloNum.zero(1)
    arg = (-field.one()) ** params.d * field.elem(t)
    for m in range(qbar):
        term = CycloNum.one(1)
        for a in params.alpha:
            e = int(qbar * a)
            term = term * oracles.gauss_sum(field, m + e)
            term = term * oracles.gauss_sum(field, e).inverse()
        for b in params.beta:
            e = int(qbar * b)
            term = term * oracles.gauss_sum(field, -m - e)
            term = term * oracles.gauss_sum(field, -e).inverse()
        total = total + term * oracles.char_value(field, m, arg)
    return total * Fraction(1, 1 - q)


def test_classic_against_bruteforce():
    cases = [
        (HGParams([F(1, 2)], [0]), 5),
        (HGParams([F(1, 4), F(3, 4)], [0, F(1, 2)]), 5),
        (HGParams([F(1, 6)], [F(1, 2)]), 7),
        (HGParams([F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]), 7),
    ]
    for params, q in cases:
        for t in range(1, q):
            assert classic_sum(params, q, t) == _classic_bruteforce(params, q, t), (
                params, q, t,
            )


def test_classic_rejects_bad_inputs():
    params = HGParams([F(1, 2)], [0])
    with pytest.raises(ZeroArgument):
        classic_sum(params, 5, 0)
    with pytest.raises(AssumptionFails):
        classic_sum(HGParams([F(1, 5)], [0]), 7, 1)
    with pytest.raises(FieldTooLarge):
        classic_sum(params, 2**61 - 1, 1)


def test_generator_independence():
    params = HGParams([F(1, 2), F(1, 2)], [0, 0])
    field = make_field(13)
    alt = field.nth_generator(1)
    for t in (1, 2, 5, 12):
        assert classic_sum(params, 13, t) == classic_sum(params, 13, t, generator=alt)


def test_rational_when_defined_over_q():
    params = HGParams([F(1, 2), F(1, 2)], [0, 0])
    for t in range(1, 13):
        v = classic_sum(params, 13, t)
        assert v.as_rational() is not None


def test_split_instance_structure():
    params = HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, 0, 0, 0])
    inst = split_instance(params, 11)
    assert len(inst.A.components) == params.d
    assert inst.chiA.exponents == (2, 4, 6, 8)
    assert inst.chiB.exponents == (0, 0, 0, 0)
    # the expansion's argument N(-1_B) t is (-1)^(dim B) t
    mixed = orbit_instance(HGParams.parse("1/2,1/4,3/4", "0,1/8,3/8"), 3)
    assert sorted(c.f for c in mixed.B.components) == [1, 2]
    for case in (inst, mixed):
        norm = oracles.norm_to_base(case.B, oracles.minus_one(case.B))
        assert norm == case.base.elem((-1) ** case.B.dim)


def test_split_recovers_classic():
    cases = [
        (HGParams([F(1, 6), F(5, 6)], [0, F(1, 2)]), 7),
        (HGParams([F(1, 4)], [F(1, 2)]), 9),
    ]
    for params, q in cases:
        inst = split_instance(params, q)
        for j in range(q - 1):
            t = inst.base.unit(j)
            assert classic_sum(params, q, t) == algebra_sum_direct(inst, t)


def test_fourier_equals_direct_mixed():
    F3 = make_field(3)
    A = SemisimpleAlgebra(F3, [F3, make_field(3, 2)])
    B = SemisimpleAlgebra(F3, [F3, F3, F3])
    inst = HGAlgebraInstance(
        A, B,
        AlgebraChar.from_exponents(A, [1, 3]),
        AlgebraChar.from_exponents(B, [0, 1, 1]),
    )
    for t in (1, 2):
        assert algebra_sum_direct(inst, t) == algebra_sum_fourier(inst, t)


def test_fourier_coefficient_at_zero_is_one():
    from finhyp.hypergeometric import _denominator_inverse, _fourier_coefficients

    F5 = make_field(5)
    A = SemisimpleAlgebra(F5, [F5, make_field(5, 2)])
    B = SemisimpleAlgebra(F5, [F5, F5, F5])
    inst = HGAlgebraInstance(
        A, B,
        AlgebraChar.from_exponents(A, [3, 7]),
        AlgebraChar.from_exponents(B, [1, 0, 2]),
    )
    # row 0 is the denominator itself, kept unnormalised, alone in its orbit;
    # the instance reads at big, where the inverse is that of its coefficient
    m, size, row = _fourier_coefficients(inst)[1][0]
    assert (m, size) == (0, 1) and _reads_at_big(inst)
    assert row.gamma_coefficient() * _denominator_inverse(inst) == 1


def _fourier_per_term(inst, t, twist=1):
    """The character expansion term by term: the sum over m of
    c_m * chi(arg)^m, with c_m the m-th Gauss product over the m = 0 one and
    arg = N(-1_B) t, all in generic CycloNum arithmetic."""
    base = inst.base
    qbar = base.q - 1
    chiB_bar = inst.chiB.conj()
    den = gauss_product(inst.chiA.chars + chiB_bar.chars, twist)
    sign = oracles.norm_to_base(inst.B, oracles.minus_one(inst.B))
    arg_dlog = base.dlog(sign * base.elem(t))
    total = CycloNum.zero(1)
    for m in range(qbar):
        c_m = gauss_product(
            inst.chiA.twist_by_norm_power(m).chars
            + chiB_bar.twist_by_norm_power(-m).chars,
            twist,
        ) / den
        total = total + c_m * root_of_unity(qbar, arg_dlog * m)
    return total * F(1, 1 - base.q)


def _same_value(a, b):
    return (a.conductor, a.num, a.den) == (b.conductor, b.num, b.den)


def _over(value, conductor):
    """value re-expressed over Q(zeta_conductor), which must contain it."""
    out = value.is_in_subfield(conductor)
    assert out is not None
    return out


@pytest.mark.parametrize("case", ["orbit_q2", "split_q9", "split_q27", "orbit_mixed_twist2"])
def test_fourier_against_per_term_expansion(case):
    if case == "orbit_q2":  # q - 1 = 1: the expansion has one term
        inst, twist = orbit_instance(HGParams.parse("1/3,2/3", "0,0"), 2), 1
        assert inst.base.q == 2
    elif case == "split_q9":
        inst, twist = split_instance(HGParams.parse("1/4,3/4", "0,1/2"), 9), 1
    elif case == "split_q27":
        inst, twist = split_instance(HGParams.parse("1/2,1/13", "0,1/26"), 27), 1
    else:  # components of degree 1, 2 and 3 over F_3
        params = HGParams.parse("1/2,1/13,3/13,9/13", "0,1/4,3/4,0")
        inst, twist = orbit_instance(params, 3), 2
        assert sorted(c.f for c in inst.A.components + inst.B.components) == [1, 1, 1, 2, 3]
    qbar = inst.base.q - 1
    big = lcm(*(c.q - 1 for c in inst.A.components + inst.B.components))
    assert _reads_at_big(inst)  # every value lies in Q(zeta_big) and is returned there
    for j in {0, 1 % qbar, qbar // 2, qbar - 1}:
        t = inst.base.unit(j)
        value = algebra_sum_fourier(inst, t, twist)
        assert _same_value(value, _over(_fourier_per_term(inst, t, twist), big))
        assert value.conductor == big


def test_classic_sum_with_generator_against_per_term_expansion():
    params = HGParams.parse("1/4,3/4", "0,1/2")
    field = make_field(13)
    gen = field.unit(5)  # 5 is coprime to 12, so g^5 generates the units
    for t in (2, 7):
        ref = _fourier_per_term(split_instance(params, 13), t)
        assert _same_value(classic_sum(params, 13, t, generator=gen), _over(ref, 12))


def test_warm_fourier_value_costs_one_product(monkeypatch):
    from finhyp import cyclo

    inst = split_instance(HGParams.parse("1/4,3/4", "0,1/2"), 13)
    algebra_sum_fourier(inst, 2)  # fills the coefficient and denominator caches
    calls = []
    convolve = cyclo._convolve
    monkeypatch.setattr(cyclo, "_convolve", lambda a, b: calls.append(1) or convolve(a, b))
    for t in range(1, 13):
        calls.clear()
        algebra_sum_fourier(inst, t)
        assert len(calls) <= 1


def _count_reductions(monkeypatch):
    """Clear the Gauss caches and record the conductor of every cyclo._reduce call."""
    from finhyp import cyclo

    _gauss_pair_entry.cache_clear()
    calls = []
    reduce_ = cyclo._reduce
    monkeypatch.setattr(cyclo, "_reduce", lambda n, v: calls.append(n) or reduce_(n, v))
    return calls


def test_cold_gauss_product_reduces_once(monkeypatch):
    f5, f25 = make_field(5), make_field(5, 2)
    chars = [MultChar(f5, 1), MultChar(f5, 2), MultChar(f25, 3), MultChar(f25, 10)]
    calls = _count_reductions(monkeypatch)
    g = gauss_product(chars)
    assert calls == [5 * 24]
    monkeypatch.undo()
    ref = CycloNum.one(1)
    for chi in chars:
        ref = ref * oracles.gauss_sum(chi.field, chi.e)
    assert g == ref and g.conductor == 5 * 24


def test_cold_fourier_rows_are_not_reduced(monkeypatch):
    from finhyp.hypergeometric import _fourier_coefficients

    inst = split_instance(HGParams.parse("1/4,3/4", "0,1/2"), 13)
    calls = _count_reductions(monkeypatch)
    group, reps = _fourier_coefficients(inst)
    # all four units mod 12 fix (1/4,3/4; 0,1/2): one row per divisor of 12
    assert group == (1, 5, 7, 11) and [m for m, _, _ in reps] == [0, 1, 2, 3, 4, 6]
    assert sum(size for _, size, _ in reps) == 12 and calls == []


@pytest.mark.parametrize("q,params,other", [
    (27, ("1/13,1/2,12/13", "0,0,0"), ("1/2,1/2", "0,0")),
    (49, ("1/6,1/2", "0,1/4"), ("1/3,2/3", "1/4,3/4")),
])
def test_fourier_rows_from_cached_gauss_entries(q, params, other, monkeypatch):
    from finhyp import charsums
    from finhyp.hypergeometric import _fourier_coefficients, _scaled_rows

    clear_caches()
    inst = split_instance(HGParams.parse(*params), q)
    algebra_sum_fourier(inst, 2)
    # one trace pass per field, and a twisted value is a value of twist 1 at
    # another t: it builds no Gauss entry and no row of its own
    assert _trace_fibres.cache_info().misses == 1
    entries = _gauss_pair_entry.cache_info().misses
    algebra_sum_fourier(inst, 2, 2)
    assert _gauss_pair_entry.cache_info().misses == entries
    assert _scaled_rows.cache_info().currsize == 1
    misses = _trace_fibres.cache_info().misses
    for twist in (1, 2):
        algebra_sum_fourier(split_instance(HGParams.parse(*other), q), 2, twist)
    # a second instance over the same field makes no new trace pass
    assert _trace_fibres.cache_info().misses == misses
    # the rows built from the cached entries make no new entry; each equals
    # its Gauss product with every entry tallied afresh, and against the
    # twisted trace that product is the row rotated by -psi[2]
    entries = _gauss_pair_entry.cache_info().misses
    reps = _fourier_coefficients(inst)[1]
    assert _gauss_pair_entry.cache_info().misses == entries
    assert _trace_fibres.cache_info().misses == misses
    monkeypatch.setattr(charsums, "_trace_fibres", _trace_fibres.__wrapped__)
    monkeypatch.setattr(charsums, "_gauss_pair_entry", _gauss_pair_entry.__wrapped__)
    chiB_bar = inst.chiB.conj()
    for m, _, row in reps:
        chars = (inst.chiA.twist_by_norm_power(m).chars
                 + chiB_bar.twist_by_norm_power(-m).chars)
        assert row.read() == gauss_product(chars)
        assert row.read() * root_of_unity(row.x1.n, -row.psi[2]) == gauss_product(chars, 2)


def _row_products(inst):
    """Every expansion row as its own product of Gauss sums."""
    from finhyp.charsums import _gauss_pair

    qbar = inst.base.q - 1
    bound = qbar * inst.A.unit_count() * inst.B.unit_count()
    chiB_bar = inst.chiB.conj()
    return [_gauss_pair(inst.chiA.twist_by_norm_power(m).chars
                        + chiB_bar.twist_by_norm_power(-m).chars, bound)
            for m in range(qbar)]


def _same_reps(inst, coefficients):
    """Each representative is its own Gauss product, bit for bit, with each
    tracked total its vector's slot sum, which the bound is checked against;
    the orbits partition m mod q-1 with the stored sizes; and the product of
    every row of an orbit is the image of its representative's under
    sigma_k, k in G taken mod big and 1 mod p."""
    group, reps = coefficients
    products = _row_products(inst)
    qbar, p, big = inst.base.q - 1, inst.base.p, products[0].x1.n
    covered = set()
    for m, size, row in reps:
        product = products[m]
        assert (row.psi, row.x0.value, row.x1.value) == (
            product.psi, product.x0.value, product.x1.value), m
        for x in (row.x0, row.x1):
            assert sum(_from_slots(x.value, x.width, x.n)) == x.total, m
        images = {}
        for k in group:
            images.setdefault(k * m % qbar, k)
        assert len(images) == size and not covered & images.keys(), m
        covered |= images.keys()
        value = row.read()
        for image, k in images.items():
            lifted = k + big * ((1 - k) * pow(big, -1, p) % p)
            assert products[image].read() == value.galois(lifted), (m, image)
    assert sum(size for _, size, _ in reps) == qbar and covered == set(range(qbar))


def _count_products(monkeypatch):
    from finhyp import hypergeometric

    calls = []
    product = hypergeometric._gauss_pair
    monkeypatch.setattr(hypergeometric, "_gauss_pair",
                        lambda *args: calls.append(args) or product(*args))
    return calls


ORBIT_ROW_CASES = {
    # (alpha, beta, q, products): every unit mod q-1 fixes the first two
    "full_q23": ("1/2", "0", 23, 4),
    "full_q49": ("1/6,5/6", "0,1/2", 49, 10),
    "plus_minus_one_q19": ("1/9,1/2,8/9", "0,0,0", 19, 10),
    "one_three_mod_8_q17": ("1/8,3/8", "0,1/2", 17, 7),
    "trivial_q7": ("1/6", "1/2", 7, 6),
}


@pytest.mark.parametrize("case", list(ORBIT_ROW_CASES))
def test_orbit_rows_equal_their_gauss_products(case, monkeypatch):
    from finhyp.hypergeometric import _fourier_coefficients, _row_stabilizer

    alpha, beta, q, products = ORBIT_ROW_CASES[case]
    params = HGParams.parse(alpha, beta)
    inst = split_instance(params, q)
    dd = params.common_denominator()
    # on a split instance the row stabilizer is the lift of the parameters' one
    assert _row_stabilizer(inst, q - 1) == tuple(
        k for k in range(1, q) if lcm(k, q - 1) == k * (q - 1) and k % dd in params.stabilizer())
    calls = _count_products(monkeypatch)
    coefficients = _fourier_coefficients(inst)
    assert len(calls) == len(coefficients[1]) == products
    _same_reps(inst, coefficients)


def test_orbit_rows_with_extension_components(monkeypatch):
    from finhyp.hypergeometric import _fourier_coefficients, _row_stabilizer

    # A = F_(7^4) with a character of order 5, B = 4 F_7: the units k = 1 mod 5
    # of Z/2400, which are k = 1, 11 mod 30
    inst = orbit_instance(HGParams.parse("1/5,2/5,3/5,4/5", "0,0,0,0"), 7)
    group = _row_stabilizer(inst, 2400)
    assert group == tuple(k for k in range(1, 2400) if gcd(k, 2400) == 1 and k % 5 == 1)
    assert {k % 30 for k in group} == {1, 11}
    calls = _count_products(monkeypatch)
    coefficients = _fourier_coefficients(inst)
    assert len(calls) == 4  # rows {0}, {1, 5}, {2, 4}, {3}
    assert [(m, size) for m, size, _ in coefficients[1]] == [(0, 1), (1, 2), (2, 2), (3, 1)]
    _same_reps(inst, coefficients)


def test_orbit_rows_of_random_instances():
    from finhyp.checks import random_algebra_instance
    from finhyp.hypergeometric import _fourier_coefficients, _row_stabilizer

    rng = random.Random(19)
    merged = 0
    for i in range(40):
        p, f = rng.choice(((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)))
        q = p**f
        if i % 2:
            inst = random_algebra_instance(rng, q, max_size=81)
        else:  # both sides closed under e -> -e: k = -1 is in the stabilizer
            field = make_field(p, f)
            exps = [[e for e in (rng.randrange(q - 1) for _ in range(rng.randint(1, 2)))
                     for e in (e, -e)] for _ in range(2)]
            A, B = (SemisimpleAlgebra(field, [field] * len(e)) for e in exps)
            inst = HGAlgebraInstance(A, B, AlgebraChar.from_exponents(A, exps[0]),
                                     AlgebraChar.from_exponents(B, exps[1]))
        big = lcm(*(c.q - 1 for c in inst.A.components + inst.B.components))
        coefficients = _fourier_coefficients(inst)
        assert coefficients[0] == _row_stabilizer(inst, big)
        merged += len(coefficients[1]) < q - 1
        _same_reps(inst, coefficients)
    assert merged >= 15


def test_cold_rows_cost_one_product_per_orbit(monkeypatch):
    from finhyp.hypergeometric import _fourier_coefficients

    # every odd k fixes (1/2,1/2,1/2,1/2; 0,0,0,0): one row per divisor of 342
    params = HGParams.parse("1/2,1/2,1/2,1/2", "0,0,0,0")
    clear_caches()
    calls = _count_products(monkeypatch)
    value = classic_sum(params, 343, 2)
    assert len(calls) == 12  # tau(342) rows, row 0 the denominator
    monkeypatch.undo()
    calls = _count_products(monkeypatch)
    group, reps = _fourier_coefficients(split_instance(params, 343))
    assert len(calls) == len(reps) - 1 == 11  # the denominator is cached
    assert sum(size for _, size, _ in reps) == 342
    assert value.conductor == 342


def _held_fibres(value):
    """The packed vectors that a cached value holds, through nested tuples."""
    if isinstance(value, _Packed):
        return 1
    return sum(map(_held_fibres, value)) if isinstance(value, tuple) else 0


def test_fourier_cache_holds_one_row_per_orbit():
    from finhyp.hypergeometric import _scaled_rows

    # a cold classic_sum keeps the tau(342) = 12 representatives, not 342
    # rows: one signed packed int each, and no fibre
    params = HGParams.parse("1/2,1/2,1/2,1/2", "0,0,0,0")
    clear_caches()
    classic_sum(params, 343, 2)
    assert _scaled_rows.cache_info().currsize == 1
    cached = _scaled_rows(split_instance(params, 343))
    assert [type(row) for _, row in cached[2]] == [int] * 12 and _held_fibres(cached) == 0


def test_wide_slot_rows_fourier_equals_direct():
    from finhyp.hypergeometric import _gauss_denominator, _row_stabilizer

    # the rows' bound 168^9 at q = 169 needs 9-byte slots, which no array item
    # holds, and the rows are read as traces over a nontrivial group
    inst = split_instance(HGParams.parse("1/4,1/2,1/2,3/4", "0,0,0,0"), 169)
    assert _gauss_denominator(inst).x1.width == 9 and len(_row_stabilizer(inst, 168)) > 1
    for j in random.Random(169).sample(range(168), 12):
        t = inst.base.unit(j)
        for twist in (1, 2, 12):
            assert algebra_sum_fourier(inst, t, twist) == algebra_sum_direct(inst, t, twist)


@pytest.mark.parametrize("case", ["split_q13", "orbit_q7"])
def test_twisted_denominator_inverse_is_a_rotation(case):
    from finhyp.charsums import _gauss_pair, invert_gauss_product
    from finhyp.hypergeometric import _denominator_inverse, _gauss_denominator

    if case == "split_q13":
        inst = split_instance(HGParams.parse("1/4,3/4", "0,1/3"), 13)
    else:
        inst = orbit_instance(HGParams.parse("1/2,1/3,2/3", "0,1/4,3/4"), 7)
    chars = inst.chiA.chars + inst.chiB.conj().chars
    big = lcm(*(chi.field.q - 1 for chi in chars))
    bound = inst.A.unit_count() * inst.B.unit_count()
    coefficient = _gauss_pair(chars, bound).gamma_coefficient()
    assert _reads_at_big(inst) and _denominator_inverse(inst) * coefficient == 1
    # the direct route divides by the denominator of twist a as tau(a) times
    # the inverse of twist 1, tau(a) read off the denominator's Gauss entries
    tau = _gauss_denominator(inst).psi
    inverse = invert_gauss_product(_gauss_denominator(inst).read())
    for a in range(1, inst.base.p):
        ref, tau_a = CycloNum.one(1), CycloNum.one(1)
        for chi in chars:
            ref = ref * oracles.gauss_sum(chi.field, chi.e, a)
            tau_a = tau_a * oracles.char_value(chi.field, chi.e, chi.field.elem(a))
        assert root_of_unity(big, tau[a]) == tau_a
        assert inverse * tau_a * ref == 1
        for t in (1, 2):
            assert algebra_sum_direct(inst, t, a) == algebra_sum_fourier(inst, t, a)


def _hand_built(p, a_degrees, b_degrees, a_exps, b_exps):
    base = make_field(p)
    A = SemisimpleAlgebra(base, [make_field(p, d) for d in a_degrees])
    B = SemisimpleAlgebra(base, [make_field(p, d) for d in b_degrees])
    return HGAlgebraInstance(A, B, AlgebraChar.from_exponents(A, a_exps),
                             AlgebraChar.from_exponents(B, b_exps))


def _expansion_cases():
    return {
        # (1/2,1/2; 0,0) at 13: the total character on F_13^x is trivial
        "tau_trivial": (split_instance(HGParams.parse("1/2,1/2", "0,0"), 13), 1, False),
        # (1/2; 0) at 13: the total character is the quadratic one
        "tau_nontrivial_prime": (split_instance(HGParams.parse("1/2", "0"), 13), 1, True),
        # dim A - dim B = 2 is a multiple of p - 1 = 2: every row has one character
        "shared_not_equidimensional": (_hand_built(3, [1, 2], [1], [1, 5], [1]), 2, True),
        # dim A - dim B = 2 at p = 5: the rows' characters on F_5^x differ
        "not_shared": (_hand_built(5, [1, 2], [1], [3, 7], [2]), 3, None),
    }


@pytest.mark.parametrize("case", list(_expansion_cases()))
def test_fourier_read_against_per_term_expansion(case):
    from finhyp.hypergeometric import _fourier_coefficients

    inst, twist, nontrivial = _expansion_cases()[case]
    rows = [row for _, _, row in _fourier_coefficients(inst)[1]]
    if nontrivial is None:
        assert len({row.psi for row in rows}) > 1
    else:
        assert {any(row.psi) for row in rows} == {nontrivial}
    # read at big where every row shares one gamma(tau), at p big otherwise
    conductor = rows[0].x1.n * (inst.base.p if nontrivial is None else 1)
    assert _reads_at_big(inst) == (nontrivial is not None)
    qbar = inst.base.q - 1
    for j in range(qbar):
        t = inst.base.unit(j)
        value = algebra_sum_fourier(inst, t, twist)
        assert _same_value(value, _over(_fourier_per_term(inst, t, twist), conductor))
        assert value.conductor == conductor


def test_warm_lifted_fourier_value_lifts_nothing(monkeypatch):
    # each representative is lifted once per instance, for every twist: a warm
    # value on the lift path is one weighted sum of the scaled rows, traced
    # and read at p big
    from finhyp.charsums import _GaussPair

    inst = _expansion_cases()["not_shared"][0]
    assert not _reads_at_big(inst)
    for twist in (1, 3):
        algebra_sum_fourier(inst, 1, twist)
    lifts = []
    lift = _GaussPair.lift
    monkeypatch.setattr(_GaussPair, "lift", lambda self: lifts.append(1) or lift(self))
    calls = _count_reductions(monkeypatch)
    for twist in (1, 3):
        for j in range(4):
            t = inst.base.unit(j)
            ref = _fourier_per_term(inst, t, twist)
            calls.clear()
            lifts.clear()
            assert _same_value(algebra_sum_fourier(inst, t, twist), ref)
            assert calls == [5 * 24]  # the rows carry the inverse already
            assert lifts == []


@pytest.mark.parametrize("alpha,beta,q", [("1/2", "0", 13), ("1/4,3/4", "0,1/2", 9)])
def test_katz_against_per_term_expansion(alpha, beta, q):
    params = HGParams.parse(alpha, beta)
    inst = split_instance(params, q)
    den = gauss_product(inst.chiA.chars + inst.chiB.conj().chars)
    for t in (1, 2, q - 1):
        assert _same_value(katz_unnormalized(params, q, t), _fourier_per_term(inst, t) * den)


@pytest.mark.parametrize("q", [9, 25])
def test_katz_is_classic_times_the_denominator(q, monkeypatch):
    # the denominator is the one pair lifted per instance, read once for
    # every katz value and greene_factor: the series itself is read at big,
    # so no representative row is lifted
    from finhyp.hypergeometric import _gauss_denominator

    params = HGParams.parse("1/4,3/4", "0,1/2")
    inst = split_instance(params, q)
    den = gauss_product(inst.chiA.chars + inst.chiB.conj().chars)
    refs = {t: classic_sum(params, q, t) * den for t in (1, 2, q - 1)}
    greene = greene_factor(params, q)
    clear_caches()
    lifts = []
    lift = _GaussPair.lift
    monkeypatch.setattr(_GaussPair, "lift", lambda self: lifts.append(self) or lift(self))
    for t, ref in refs.items():
        value = katz_unnormalized(params, q, t)
        assert _same_value(value, ref) and value.conductor == inst.base.p * (q - 1)
    pair = _gauss_denominator(split_instance(params, q))
    assert lifts == [pair]
    # greene_factor lifts its Jacobi product alone
    lifts.clear()
    assert greene_factor(params, q) == greene
    assert len(lifts) == 1 and lifts[0] is not pair


@pytest.mark.parametrize("alpha,beta,q", [("1/2", "0", 13), ("1/2,1/2", "0,0", 13),
                                          ("1/4,3/4", "0,1/2", 9)])
def test_warm_equidimensional_value_reduces_at_big(alpha, beta, q, monkeypatch):
    inst = split_instance(HGParams.parse(alpha, beta), q)
    algebra_sum_fourier(inst, 2)  # fills the row and denominator caches
    big = q - 1
    calls = _count_reductions(monkeypatch)
    for t in range(1, q):
        calls.clear()
        value = algebra_sum_fourier(inst, t)
        # the traced read alone: the cached rows carry the inverse already
        assert calls == [big] and value.conductor == big


def test_large_prime_classic_sum_is_read_at_big():
    # at q = 4099 the value lies in Q(zeta_4098): it is read and returned
    # there, never embedded into the 4099 * 4098 slots of Q(zeta_(p big))
    params = HGParams.parse("1/2", "0")
    value = classic_sum(params, 4099, 2)
    assert value == algebra_sum_direct(split_instance(params, 4099), 2)
    assert value.conductor == 4098


def test_bad_instances_raise_typed_errors():
    inst = split_instance(HGParams.parse("1/2", "0"), 5)
    with pytest.raises(NotCoprime):
        algebra_sum_fourier(inst, 2, twist=5)
    with pytest.raises(NotCoprime):
        algebra_sum_direct(inst, 2, twist=10)
    with pytest.raises(NotCoprime):  # 4 = g^2 does not generate F_5^x
        classic_sum(HGParams.parse("1/2", "0"), 5, 2, generator=make_field(5).elem(4))
    other = split_instance(HGParams.parse("1/2", "0"), 7)
    with pytest.raises(FieldMismatch):
        HGAlgebraInstance(inst.A, other.B, inst.chiA, other.chiB)
    with pytest.raises(FieldMismatch):
        HGAlgebraInstance(inst.A, inst.B, inst.chiB, inst.chiA)
    assert issubclass(NotCoprime, FinHypError) and issubclass(FieldMismatch, FinHypError)


def test_twist_invariance_equidimensional():
    F7 = make_field(7)
    A = SemisimpleAlgebra(F7, [make_field(7, 2)])
    B = SemisimpleAlgebra(F7, [F7, F7])
    inst = HGAlgebraInstance(
        A, B,
        AlgebraChar.from_exponents(A, [5]),
        AlgebraChar.from_exponents(B, [2, 4]),
    )
    for t in (1, 3):
        ref = algebra_sum_direct(inst, t)
        for a in range(2, 7):
            assert algebra_sum_direct(inst, t, twist=a) == ref


def test_orbits_structure():
    params = HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, 0, 0, 0])
    inst = orbit_instance(params, 7)
    assert [c.f for c in inst.A.components] == [4]
    assert inst.chiA.exponents == ((7**4 - 1) // 5,)
    assert [c.f for c in inst.B.components] == [1, 1, 1, 1]
    assert inst.chiB.exponents == (0, 0, 0, 0)

    inst2 = orbit_instance(HGParams([F(1, 2), F(1, 2)], [0, 0]), 5)
    assert inst2.chiA.exponents == (2, 2)


def test_orbit_instance_with_degree_four_component():
    # 5 does not divide 6: the algebra A is F_{7^4}, and no split instance exists
    params = HGParams([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [0, 0, 0, 0])
    inst = orbit_instance(params, 7)
    assert params.denominator_exponent() == 0
    computed = _gauss_pair_entry.cache_info().misses
    for t, expected in zip(range(1, 7), (-1, -10, -5, 35, 5, -25)):
        direct = algebra_sum_direct(inst, t)
        assert direct == algebra_sum_fourier(inst, t) == expected
        padic = padic_sum_direct(params, 7, t, 8)
        assert padic.eq_mod(PadicNum.from_rational(expected, 7, 8), 8)
    # one sum per character used, never a whole table of 2400
    assert _gauss_pair_entry.cache_info().misses - computed < 50


def test_orbit_representative_swap_changes_nothing():
    # replacing the representative by p times it is a Frobenius twist
    params = HGParams([F(1, 8), F(3, 8)], [0, 0])
    p = 11
    inst = orbit_instance(params, p)
    comp = inst.A.components[0]
    e = inst.chiA.exponents[0]
    swapped = AlgebraChar.from_exponents(inst.A, [e * p % (comp.q - 1)])
    inst_swapped = HGAlgebraInstance(inst.A, inst.B, swapped, inst.chiB)
    for t in (1, 2, 7):
        assert algebra_sum_direct(inst, t) == algebra_sum_direct(inst_swapped, t)


def test_values_descend_to_omega_field():
    # zeta_p-free after promotion: the split sum lies in Q(zeta_(q-1))
    params = HGParams([F(1, 4), F(3, 4)], [0, F(1, 2)])
    q = 5
    for t in range(1, q):
        v = classic_sum(params, q, t)
        assert v.is_in_subfield(q - 1) is not None


def test_katz_identity():
    params = HGParams([F(1, 2), F(1, 2)], [0, 0])
    q = 13
    field = make_field(13)
    prod = CycloNum.one(1)
    for a in params.alpha:
        prod = prod * gauss_sum(MultChar(field, int(12 * a)))
    for b in params.beta:
        prod = prod * gauss_sum(MultChar(field, -int(12 * b)))
    for t in (2, 7):
        assert katz_unnormalized(params, q, t) == classic_sum(params, q, t) * prod


def test_greene_factor_example():
    # alpha=(1/2), beta=(0), q=5: omega(-1)^0 * 5^-1 * g(2)g(0)/g(2) = -1/5
    gf = greene_factor(HGParams([F(1, 2)], [0]), 5)
    assert gf.as_rational() == F(-1, 5)


def _greene_reference(params, q):
    """The Jacobi-sum normalisation with a generic inverse of prod g(a_i - b_i)."""
    field = make_field(q)
    qbar = q - 1
    a_exps = [int(qbar * x) for x in params.alpha]
    b_exps = [int(qbar * x) for x in params.beta]
    num = CycloNum.one(1)
    den = CycloNum.one(1)
    for a, b in zip(a_exps, b_exps):
        num = num * oracles.gauss_sum(field, a) * oracles.gauss_sum(field, -b)
        den = den * oracles.gauss_sum(field, a - b)
    sign = root_of_unity(qbar, field.minus_one_dlog * sum(b_exps))
    return sign * F(1, q**params.d) * num * den.inverse()


@pytest.mark.parametrize("alpha,beta,q", [
    ("1/8,3/8", "0,1/2", 17),
    ("1/3,2/3", "1/2,1/2", 7),
])
def test_greene_factor_against_generic_inverse(alpha, beta, q):
    params = HGParams.parse(alpha, beta)
    assert greene_factor(params, q) == _greene_reference(params, q)


def test_split_instance_is_cached():
    params = HGParams.parse("1/4,3/4", "0,1/2")
    assert split_instance(params, 5) is split_instance(params, 5)


def test_orbit_instance_is_cached(monkeypatch):
    # algebras compare by identity, so only the same instance hits the caches
    params = HGParams.parse("1/5,2/5,3/5,4/5", "0,0,0,0")
    clear_caches()
    inst = orbit_instance(params, 7)
    value = algebra_sum_fourier(inst, 3)
    calls = _count_products(monkeypatch)
    again = orbit_instance(params, 7)
    assert again is inst
    assert algebra_sum_fourier(again, 3) == value and calls == []


@pytest.mark.parametrize("alpha,beta,q", [
    ("1/5,2/5,3/5,4/5", "0,0,0,0", 11),
    ("1/2,1/2", "0,0", 9),
    ("1/3,2/3", "0,0", 4),
    ("1/4,1/4,3/4", "0,1/2,1/2", 25),
    ("1/8,3/8", "0,1/2", 49),
])
def test_split_instance_is_the_orbit_instance(alpha, beta, q):
    # D | q-1: every orbit has length 1, so the orbit instance is d copies
    # of F_q with the parameters scaled by q-1
    params = HGParams.parse(alpha, beta)
    inst = split_instance(params, q)
    assert inst is orbit_instance(params, q)
    field = make_field(*prime_power(q))
    assert inst.base is field
    for alg, chi, xs in ((inst.A, inst.chiA, params.alpha), (inst.B, inst.chiB, params.beta)):
        assert alg.components == (field,) * params.d
        assert chi.exponents == tuple(int((q - 1) * x) for x in xs)
    assert inst.describe() == {
        "base": field.describe(), "A": [1] * params.d, "B": [1] * params.d,
        "chiA": [int((q - 1) * x) for x in params.alpha],
        "chiB": [int((q - 1) * x) for x in params.beta],
    }


def test_orbit_instance_at_prime_powers():
    # direct = expansion at every q = p^f prime to D, and both are the
    # classic series wherever D | q-1; the rest need components F_{q^l}
    pairs = [("1/2,1/2", "0,0"), ("1/3,2/3", "0,0"), ("1/4,3/4", "0,1/2"),
             ("1/5,2/5,3/5,4/5", "0,0,0,0"), ("1/8,3/8", "0,1/2"),
             ("1/6,5/6", "0,1/2")]
    lengths = set()
    for alpha, beta in pairs:
        params = HGParams.parse(alpha, beta)
        dd = params.common_denominator()
        for q in (4, 8, 9, 25, 27, 49):
            if gcd(q, dd) != 1 or (dd, q) == (5, 8):  # (5, 8) needs F_4096: slow
                continue
            if (dd, q) == (5, 27):
                with pytest.raises(FieldTooLarge):  # F_(3^12)
                    orbit_instance(params, q)
                continue
            inst = orbit_instance(params, q)
            assert inst.base.q == q
            lengths.update(c.q for c in inst.A.components + inst.B.components)
            for j in range(0, q - 1, max(1, (q - 1) // 3)):
                t = inst.base.unit(j)
                direct = algebra_sum_direct(inst, t)
                assert direct == algebra_sum_fourier(inst, t), (params, q, j)
                if (q - 1) % dd == 0:
                    assert direct == classic_sum(params, q, t), (params, q, j)
    # F_16 for (1/5, ...; 0, ...) at 4, F_64 for (1/3, 2/3; 0, 0) at 8 and
    # F_729 for (1/8, 3/8; 0, 1/2) at 27: components beyond F_q
    assert {16, 64, 729} <= lengths


def test_orbit_sums_at_p_and_p2_are_power_sums():
    # H_(p^f)(t) is the f-th power sum of the Frobenius roots: at p = 3, t = 2
    # those of (1/5, ..., 4/5; 0, ..., 0) have e_1 = -5 and e_2 = 45, so
    # s_2 = e_1^2 - 2 e_2; A is F_81 at q = 3 and F_81 + F_81 at q = 9
    params = HGParams.parse("1/5,2/5,3/5,4/5", "0,0,0,0")
    s1, s2 = (algebra_sum_direct(orbit_instance(params, q), 2) for q in (3, 9))
    assert s1 == -5
    assert s2 == (-5) ** 2 - 2 * 45


def test_twist_is_a_change_of_argument():
    # g_a(chi) = conj(chi(a)) g(chi): the expansion against the a-twisted
    # trace at t is that of twist 1 at t a^(dim B - dim A), bit for bit
    from finhyp.checks import random_algebra_instance

    rng = random.Random(23)
    unequal = 0
    for i in range(30):
        q = (3, 4, 5, 7, 8, 9)[i % 6]
        inst = random_algebra_instance(rng, q, max_size=81)
        base, p = inst.base, inst.base.p
        unequal += not inst.is_equidimensional
        for a in sorted({1, 2 % p, p - 1} - {0}):
            shift = base.elem(a) ** (inst.B.dim - inst.A.dim)
            for j in rng.sample(range(q - 1), min(3, q - 1)):
                t = base.unit(j)
                assert _same_value(algebra_sum_fourier(inst, t, a),
                                   algebra_sum_fourier(inst, t * shift))
    assert unequal >= 5


def test_non_prime_power_q():
    with pytest.raises(NotPrime):
        classic_sum(HGParams.parse("1/2", "0"), 12, 1)


def test_greene_factor_modulus_is_power_of_q():
    params = HGParams([F(1, 6), F(5, 6)], [0, F(1, 2)])
    gf = greene_factor(params, 7)
    norm = gf * gf.conj()
    r = norm.as_rational()
    assert r is not None and r > 0
    # |factor|^2 = 7^k for an integer k (possibly negative)
    num, den = r.numerator, r.denominator
    assert (num == 1 or _is_power_of(num, 7)) and (den == 1 or _is_power_of(den, 7))


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_random_instances_direct_equals_fourier():
    from finhyp.checks import random_algebra_instance

    rng = random.Random(123)
    for q in (3, 5, 9):
        inst = random_algebra_instance(rng, q, max_size=81)
        for j in range(inst.base.q - 1):
            t = inst.base.unit(j)
            assert algebra_sum_direct(inst, t) == algebra_sum_fourier(inst, t)


def _tally_against_unit_pairs(inst):
    """Fibres 0 and 1 of the joint tally, class by class as slot counts at
    length big, against the tally of the unit pairs."""
    ref = oracles.direct_tally(inst)
    (zero, one), _, g, span = _direct_tally(inst)
    big = zero.n // span * g
    for u, grid in enumerate((zero, one)):
        for s in range(inst.base.q - 1):
            column, _ = _gather([[(grid, s, 0)]], span, big, g, grid.width, big)
            want = [0] * big
            for c, count in ref.get((u, s), {}).items():
                want[c] = count
            assert _from_slots(column, grid.width, big) == want, (u, s)


@pytest.mark.parametrize("case", ["sparse", "dense", "orbit_mixed", "d2_grid"])
def test_norm_classes_against_dict_tally(case):
    if case == "sparse":  # d = 2 at q = 49, no trivial character: 12 rows (g = 4)
        inst = split_instance(HGParams.parse("1/6,5/6", "1/4,3/4"), 49)
    elif case == "d2_grid":  # d = 2 at q = 49, B's trivial character first: 6 rows
        inst = split_instance(HGParams.parse("1/6,5/6", "0,1/2"), 49)
    elif case == "dense":
        inst = split_instance(HGParams.parse("1/13,1/2,12/13", "0,0,0"), 27)
    else:  # components of degree 1, 2 and 3 over F_3
        inst = orbit_instance(HGParams.parse("1/2,1/13,3/13,9/13", "0,1/4,3/4,0"), 3)
    _tally_against_unit_pairs(inst)


def _grid_cases():
    return {
        "q81": split_instance(HGParams.parse("1/8,1/2,7/8", "0,0,0"), 81),
        "q125": split_instance(HGParams.parse("1/2,1/2,1/2,1/2", "0,0,0,0"), 125),
        # every side F_64 + F_32 + F_16 over F_2: q - 1 = 1, one norm class
        "p2": _hand_built(2, [6, 5, 4], [6, 5, 4], [5, 3, 7], [21, 10, 0]),
    }


@pytest.mark.parametrize("case", list(_grid_cases()))
def test_grid_tally_against_dict_tally(case):
    inst = _grid_cases()[case]
    _tally_against_unit_pairs(inst)
    # big/g rows of 2(q-1) - 1 norm slots, wide enough for |A^x| |B^x|
    (zero, one), _, g, span = _direct_tally(inst)
    big = lcm(*(c.q - 1 for c in inst.A.components + inst.B.components))
    for grid in (zero, one):
        assert (grid.n, grid.bound) == (big // g * span, inst.A.unit_count() * inst.B.unit_count())
        assert grid.width == _Packed.slot_width(grid.bound)


def test_direct_against_bruteforce():
    split = split_instance(HGParams([F(1, 6), F(5, 6)], [0, F(1, 2)]), 7)
    split_d3 = split_instance(HGParams.parse("1/4,1/2,3/4", "0,0,0"), 5)
    mixed = orbit_instance(HGParams([F(1, 2), F(1, 4), F(3, 4)], [0, F(1, 8), F(3, 8)]), 3)
    assert sorted(c.f for c in mixed.A.components) == [1, 2]
    assert sorted(c.f for c in mixed.B.components) == [1, 2]
    for inst in (split, split_d3, mixed):
        (zero, one), *_ = _direct_tally(inst)
        # fibre 0 and p-1 copies of fibre 1 ((x, y) -> (u x, u y)) count every pair once
        p = inst.base.p
        assert zero.total + (p - 1) * one.total == inst.A.unit_count() * inst.B.unit_count()
        for j in range(inst.base.q - 1):
            t = inst.base.unit(j)
            assert algebra_sum_direct(inst, t) == oracles.direct_sum(inst, t)
            # twist 2 reads the tally of twist 1 at a rotation
            assert algebra_sum_direct(inst, t, 2) == oracles.direct_sum(inst, t, 2)


def _fibres_read(inst):
    """The fibres a value reads: 0 and 1 at big, 1 alone where tau is
    nontrivial, or all p lifted to p big."""
    if not _reads_at_big(inst):
        return ("lifted",)
    return (1,) if any(rot for rot, _ in _direct_tally(inst)[1]) else (0, 1)


def _direct_cases():
    return {
        # p = 2: every instance reads its value at big
        "p2_split": (split_instance(HGParams.parse("1/3,2/3", "0,0"), 4), (0, 1)),
        # tau trivial at odd p: the value is -(T_1 - T_0) / c_D
        "tau_trivial": (split_instance(HGParams.parse("1/2,1/2", "0,0"), 7), (0, 1)),
        # dim A - dim B = 2 is a multiple of p - 1 = 2, tau nontrivial
        "shared_not_equidimensional": (_hand_built(3, [1, 2], [1], [1, 5], [1]), (1,)),
        # dim A - dim B = 1 at p = 3 and p = 7: all p fibres, lifted to p big
        "lifted_p3": (_hand_built(3, [2], [1], [3], [1]), ("lifted",)),
        "lifted_p7": (_hand_built(7, [1, 1], [1], [1, 2], [3]), ("lifted",)),
        # tau is the quadratic character of F_13^x, so T_0 = tau(b) T_0 is 0
        "tau_nontrivial": (split_instance(HGParams.parse("1/2", "0"), 13), (1,)),
    }


@pytest.mark.parametrize("case", list(_direct_cases()))
def test_direct_fibres_against_oracle_and_fourier(case):
    inst, fibres = _direct_cases()[case]
    p = inst.base.p
    assert _fibres_read(inst) == fibres
    for twist in sorted({1, 2, p - 1}) if p > 2 else [1]:
        for j in range(inst.base.q - 1):
            t = inst.base.unit(j)
            value = algebra_sum_direct(inst, t, twist)
            assert value == oracles.direct_sum(inst, t, twist)
            assert _same_value(value, algebra_sum_fourier(inst, t, twist))


@pytest.mark.parametrize("mutation", ["shift_sign", "drop_rot_b"])
def test_direct_fibre_mutations_fail_the_oracle(mutation, monkeypatch):
    from finhyp import hypergeometric

    component_fibres = hypergeometric._component_fibres
    for inst in (split_instance(HGParams.parse("1/4,3/4", "0,1/2"), 13),
                 _hand_built(7, [1, 1], [1], [1, 2], [3])):
        def mutated(comp, step, norm_step, h, big, qbar):
            fibres, sigma = component_fibres(comp, step, norm_step, h, big, qbar)
            if mutation == "shift_sign":
                return fibres, [(rot, -shift) for rot, shift in sigma]
            # h, the dlog of -1, is nonzero on B's components only (p is odd here)
            return fibres, [(0, shift) for _, shift in sigma] if h else sigma

        monkeypatch.setattr(hypergeometric, "_component_fibres", mutated)
        _direct_tally.cache_clear()
        try:
            units = [inst.base.unit(j) for j in range(inst.base.q - 1)]
            assert any(algebra_sum_direct(inst, t) != oracles.direct_sum(inst, t) for t in units)
        finally:
            monkeypatch.undo()
            _direct_tally.cache_clear()


def test_direct_after_classic_builds_no_inverse(monkeypatch):
    from finhyp import hypergeometric
    from finhyp.hypergeometric import _denominator_inverse

    params = HGParams.parse("1/4,3/4", "0,1/2")
    clear_caches()
    classic_sum(params, 13, 2)
    inst = split_instance(params, 13)
    misses = _denominator_inverse.cache_info().misses
    inverted = []
    invert = hypergeometric.invert_gauss_product
    monkeypatch.setattr(hypergeometric, "invert_gauss_product",
                        lambda g: inverted.append(g.conductor) or invert(g))
    for t in range(1, 13):
        algebra_sum_direct(inst, t)
    # the inverse at big that classic_sum cached is the only one needed
    assert _denominator_inverse.cache_info().misses == misses and inverted == []


@pytest.mark.parametrize("alpha,beta,q", [("1/2", "0", 13), ("1/2,1/2", "0,0", 13),
                                          ("1/4,3/4", "0,1/2", 9)])
def test_warm_equidimensional_direct_value_reads_at_big(alpha, beta, q, monkeypatch):
    inst = split_instance(HGParams.parse(alpha, beta), q)
    algebra_sum_direct(inst, 2)  # fills the tally and denominator caches
    big = q - 1
    calls = _count_reductions(monkeypatch)
    lengths = []
    gather = cyclo._gather
    monkeypatch.setattr(cyclo, "_gather",
                        lambda *args: lengths.append(args[2]) or gather(*args))
    for t in range(1, q):
        calls.clear()
        value = algebra_sum_direct(inst, t)
        # one reduction: the product with the inverse is taken packed
        assert calls == [big] and value.conductor == big
    assert lengths and set(lengths) == {big}


def test_warm_lifted_direct_value_is_one_read(monkeypatch):
    # dim A - dim B = 1 at p = 3: the p fibres are cut out of the tally at
    # length p big, so a warm value is one reduction there and lifts no pair
    inst = _hand_built(3, [2], [1], [3], [1])
    algebra_sum_direct(inst, 1)  # fills the tally and denominator caches
    algebra_sum_direct(inst, 1, 2)
    calls = _count_reductions(monkeypatch)
    lifts = []
    lift = _GaussPair.lift
    monkeypatch.setattr(_GaussPair, "lift", lambda self: lifts.append(self) or lift(self))
    for twist in (1, 2):
        for j in range(inst.base.q - 1):
            t = inst.base.unit(j)
            calls.clear()
            value = algebra_sum_direct(inst, t, twist)
            assert calls == [3 * 8]  # the product with the inverse is taken packed
            assert value == oracles.direct_sum(inst, t, twist)
    assert lifts == []


def test_one_tally_per_instance():
    inst = _hand_built(7, [1, 1], [1], [1, 2], [3])
    clear_caches()
    algebra_sum_direct(inst, 3)
    tally = _direct_tally(inst)
    for twist in range(1, 7):
        for j in range(inst.base.q - 1):
            assert algebra_sum_direct(inst, inst.base.unit(j), twist) == oracles.direct_sum(
                inst, inst.base.unit(j), twist)
    # every twist reads the one tally built for twist 1
    assert _direct_tally.cache_info().currsize == 1 and _direct_tally(inst) is tally
