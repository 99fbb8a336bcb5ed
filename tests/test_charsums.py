import random

import pytest

from finhyp.charsums import (
    AlgebraChar,
    MultChar,
    SemisimpleAlgebra,
    algebra_gauss_sum,
    gauss_norm_exponent,
    gauss_product,
    gauss_sum,
    invert_gauss_product,
)
from finhyp.cyclo import root_of_unity
from finhyp.errors import InternalInconsistency
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


def test_invert_gauss_product_rejects_irrational_norm():
    # |1 + zeta_5|^2 is irrational, so this is no product of Gauss sums
    with pytest.raises(InternalInconsistency):
        invert_gauss_product(1 + root_of_unity(5, 1))
