import random
from math import lcm, prod

import pytest

from finhyp.charsums import (
    AlgebraChar,
    MultChar,
    SemisimpleAlgebra,
    _gauss_entry,
    _gauss_pair,
    algebra_gauss_sum,
    gauss_norm_exponent,
    gauss_product,
    gauss_sum,
    invert_gauss_product,
)
from finhyp.cyclo import CycloNum, _from_slots, root_of_unity
from finhyp.errors import (
    FieldMismatch,
    FinHypError,
    InternalInconsistency,
    LengthMismatch,
    NotSubfield,
)
from finhyp.finfield import make_field

import oracles


def test_gauss_sum_basics():
    F5 = make_field(5)
    assert gauss_sum(MultChar(F5, 0)) == -1
    quad = MultChar(F5, 2)
    g = gauss_sum(quad)
    assert g * g.conj() == 5
    # period q-1 in the exponent
    assert gauss_sum(MultChar(F5, 1)) == gauss_sum(MultChar(F5, 5))


def test_gauss_pair_identity():
    # g(chi) g(conj chi) = chi(-1) q for nontrivial chi
    for p, f in ((5, 1), (7, 1), (3, 2)):
        field = make_field(p, f)
        for e in range(1, field.q - 1):
            chi = MultChar(field, e)
            lhs = gauss_sum(chi) * gauss_sum(chi.conj())
            assert lhs == oracles.char_value(field, e, -field.one()) * field.q


def test_gauss_twist_identity():
    # replacing the additive character by its a-th power divides by chi(a)
    F7 = make_field(7)
    A = SemisimpleAlgebra(F7, [F7, F7])
    chi = AlgebraChar.from_exponents(A, [2, 5])
    base_value = algebra_gauss_sum(chi, 1)
    for a in range(2, 7):
        chi_a = oracles.algebra_char_value(chi, (F7.elem(a), F7.elem(a)))
        assert algebra_gauss_sum(chi, a) == chi_a.inverse() * base_value


def test_product_formula_against_bruteforce():
    # every shape over F3 with at most 81 elements, plus other bases
    rng = random.Random(7)
    shapes = {
        3: [[1], [2], [3], [4], [1, 1], [1, 2], [1, 3], [2, 2],
            [1, 1, 1], [1, 1, 2], [1, 1, 1, 1]],
        5: [[1], [2], [1, 1], [1, 2]],
        7: [[1], [2], [1, 1]],
        2: [[1], [2], [3], [1, 2], [2, 2], [1, 1, 3]],
    }
    for p, shape_list in shapes.items():
        base = make_field(p)
        for shape in shape_list:
            alg = SemisimpleAlgebra(base, [make_field(p, d) for d in shape])
            for _ in range(3):
                chi = AlgebraChar.from_exponents(
                    alg, [rng.randrange(c.q - 1) for c in alg.components]
                )
                a = rng.randrange(1, p) if p > 2 else 1
                assert algebra_gauss_sum(chi, a) == oracles.algebra_gauss_sum(chi, a)


def test_product_formula_on_extension_base():
    rng = random.Random(8)
    F9 = make_field(3, 2)
    for shape in ([1], [2], [1, 1]):
        alg = SemisimpleAlgebra(F9, [make_field(3, 2 * d) for d in shape])
        chi = AlgebraChar.from_exponents(
            alg, [rng.randrange(c.q - 1) for c in alg.components]
        )
        assert algebra_gauss_sum(chi) == oracles.algebra_gauss_sum(chi)


def test_gauss_norm_exponent():
    F3 = make_field(3)
    A = SemisimpleAlgebra(F3, [F3, make_field(3, 2)])
    assert gauss_norm_exponent(AlgebraChar.from_exponents(A, [0, 0])) == 0
    assert gauss_norm_exponent(AlgebraChar.from_exponents(A, [1, 1])) == 3
    assert gauss_norm_exponent(AlgebraChar.from_exponents(A, [0, 5])) == 2
    F5 = make_field(5)
    S = SemisimpleAlgebra(F5, [F5, F5, F5])
    assert gauss_norm_exponent(AlgebraChar.from_exponents(S, [1, 2, 3])) == 3


def test_trivial_algebra_gauss_sum():
    F3 = make_field(3)
    A = SemisimpleAlgebra(F3, [F3, F3])
    assert algebra_gauss_sum(AlgebraChar.from_exponents(A, [0, 0])) == 1  # (-1)^2
    B = SemisimpleAlgebra(F3, [F3, F3, F3])
    assert algebra_gauss_sum(AlgebraChar.from_exponents(B, [0, 0, 0])) == -1


def test_gauss_product_and_inverse():
    F7 = make_field(7)
    chars = [MultChar(F7, e) for e in (0, 1, 3, 3)]
    g = gauss_product(chars, 2)
    assert g == gauss_sum(chars[0], 2) * gauss_sum(chars[1], 2) * gauss_sum(chars[2], 2) ** 2
    assert g * invert_gauss_product(g) == 1
    assert invert_gauss_product(g) == g.inverse()


def test_invert_gauss_product_conjugates_once(monkeypatch):
    # the conjugate serves both |g|^2 and the result: one Galois scatter and
    # one reduction, not two
    g = gauss_product([MultChar(make_field(7), e) for e in (1, 3, 3)])
    calls = []
    conj = CycloNum.conj
    monkeypatch.setattr(CycloNum, "conj", lambda self: calls.append(1) or conj(self))
    inverse = invert_gauss_product(g)
    assert calls == [1]
    monkeypatch.undo()
    assert inverse == g.inverse()


def test_invert_gauss_product_rejects_irrational_norm():
    # |1 + zeta_5|^2 is irrational, so this is no product of Gauss sums
    with pytest.raises(InternalInconsistency):
        invert_gauss_product(1 + root_of_unity(5, 1))


@pytest.mark.parametrize("p,f", [(2, 3), (3, 2), (5, 1), (5, 2), (7, 1), (3, 3)])
def test_trace_fibres_against_oracle(p, f):
    # S_(bc) = chi(b) S_c for b in F_p^x, and _gauss_entry holds S_0, S_1 and chi on F_p^x;
    # against the a-twisted trace the Gauss sum is conj(chi(a)) g(chi), read off the same entry
    field = make_field(p, f)
    qbar = field.q - 1
    for e in sorted({0, 1, qbar // 2, (qbar // (p - 1)) if p > 2 else 0, qbar - 1}):
        s0, s1, psi = _gauss_entry(field, e)
        for a in range(1, p):
            fibres = [oracles.trace_fibre(field, e, c, a) for c in range(p)]
            for b in range(1, p):
                chi_b = oracles.char_value(field, e, field.elem(b))
                for c in range(p):
                    assert fibres[b * c % p] == chi_b * fibres[c], (e, a, b, c)
            if a == 1:
                assert CycloNum.from_powers(qbar, dict(s0)) == fibres[0]
                assert CycloNum.from_powers(qbar, dict(s1)) == fibres[1]
            assert gauss_sum(MultChar(field, e), a) == oracles.gauss_sum(field, e, a)
        # S_0 = psi(b) S_0 vanishes for a nontrivial psi, and is not tallied
        assert (not s0) == (any(psi) or oracles.trace_fibre(field, e, 0) == 0)
        for b in range(1, p):
            assert root_of_unity(qbar, psi[b]) == oracles.char_value(field, e, field.elem(b))


def _pair_cases():
    f2, f4, f8 = make_field(2), make_field(2, 2), make_field(2, 3)
    f3, f9, f27 = make_field(3), make_field(3, 2), make_field(3, 3)
    f5, f25, f13 = make_field(5), make_field(5, 2), make_field(13)
    return {
        "p2": ([MultChar(f4, 1), MultChar(f8, 3), MultChar(f2, 0)], 1),  # J_1 is empty
        "prime_q": ([MultChar(f13, 1), MultChar(f13, 6), MultChar(f13, 5)], 1),  # S_0 empty
        "prime_q_trivial_total": ([MultChar(f13, 4), MultChar(f13, 8), MultChar(f13, 0)], 1),
        "q_power": ([MultChar(f25, 6), MultChar(f25, 18), MultChar(f5, 2)], 1),
        "twist": ([MultChar(f25, 5), MultChar(f5, 1), MultChar(f5, 3)], 3),
        "mixed_degrees": ([MultChar(f3, 1), MultChar(f9, 4), MultChar(f27, 13)], 2),
    }


@pytest.mark.parametrize("case", list(_pair_cases()))
def test_gauss_pair_product_against_oracle(case):
    chars, a = _pair_cases()[case]
    p = chars[0].field.p
    big = lcm(*(chi.field.q - 1 for chi in chars))
    pair = _gauss_pair(chars, prod(chi.field.q - 1 for chi in chars))
    fibres = oracles.product_fibres(chars)
    # the two fibres of the product, each in Q(zeta_big)
    assert pair.x0.read() == fibres[0] and pair.x1.read() == fibres[1]
    assert pair.x0.read().conductor == big
    # the tracked coefficient sums, which the slot-width bound is checked against
    for x in (pair.x0, pair.x1, pair.lift()):
        assert sum(_from_slots(x.value, x.width, x.n)) == x.total
    gamma = CycloNum.zero(1)
    for b in range(1, p):
        psi_b = CycloNum.one(1)
        for chi in chars:
            psi_b = psi_b * oracles.char_value(chi.field, chi.e, chi.field.elem(b))
        assert root_of_unity(big, pair.psi[b]) == psi_b
        gamma = gamma + psi_b * root_of_unity(p, b)
    ref = CycloNum.one(1)
    for chi in chars:
        ref = ref * oracles.gauss_sum(chi.field, chi.e)
    value = pair.read()
    assert value == ref and value.conductor == p * big
    assert pair.gamma_coefficient() * gamma == ref
    # against the a-twisted trace: the same pair, read and rotated by -psi[a]
    twisted = CycloNum.one(1)
    for chi in chars:
        twisted = twisted * oracles.gauss_sum(chi.field, chi.e, a)
    value = gauss_product(chars, a)
    assert value == twisted and value.conductor == p * big


def test_mismatched_structures_raise_typed_errors():
    f3, f5 = make_field(3), make_field(5)
    with pytest.raises(FieldMismatch):
        SemisimpleAlgebra(f3, [f5])
    with pytest.raises(FieldMismatch):
        MultChar(f3, 1) * MultChar(f5, 1)
    with pytest.raises(LengthMismatch):
        SemisimpleAlgebra(f3, [])
    with pytest.raises(NotSubfield):
        SemisimpleAlgebra(make_field(3, 2), [make_field(3, 3)])
    alg = SemisimpleAlgebra(f3, [f3, f3])
    with pytest.raises(LengthMismatch):
        AlgebraChar(alg, (MultChar(f3, 1),))
    with pytest.raises(FieldMismatch):
        AlgebraChar(alg, (MultChar(f3, 1), MultChar(make_field(3, 2), 1)))
    for error in (FieldMismatch, LengthMismatch, NotSubfield):
        assert issubclass(error, FinHypError) and not issubclass(error, ValueError)
