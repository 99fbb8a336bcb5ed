"""Brute-force references that the tests compare the fast routes against.

Each one sums over explicit field elements, built from the public FqField
tables (elements, dlog, trace, norm), root_of_unity and generic CycloNum
arithmetic. None of them reads the packed tallies or caches of finhyp, so
a fast route that agrees with one is checked independently. An element of
a semisimple algebra is a tuple of field elements, one per component.
"""

from itertools import product

from finhyp.cyclo import CycloNum, root_of_unity


def char_value(field, e, x):
    """chi(x) = zeta_(q-1)^(e dlog x), for a unit x of field."""
    return root_of_unity(field.q - 1, e * field.dlog(x))


def add_char(field, x, a=1):
    """psi(x) = zeta_p^(a Tr x), with Tr the absolute trace."""
    return root_of_unity(field.p, a * field.trace_int(x) % field.p)


def gauss_sum(field, e, a=1):
    """The sum of chi(x) psi(x) over the units x of field."""
    total = CycloNum.zero(1)
    for x in field.units():
        total = total + char_value(field, e, x) * add_char(field, x, a)
    return total


def units(alg):
    """Every unit of alg."""
    return product(*(list(c.units()) for c in alg.components))


def minus_one(alg):
    """-1 in alg."""
    return tuple(-c.one() for c in alg.components)


def algebra_char_value(chi, x):
    """chi(x), the product of the component characters at the parts of x."""
    out = CycloNum.one(1)
    for comp, e, part in zip(chi.algebra.components, chi.exponents, x):
        out = out * char_value(comp, e, part)
    return out


def algebra_add_char(alg, x, a=1):
    """psi(Tr x), the product of the component additive characters."""
    out = CycloNum.one(1)
    for comp, part in zip(alg.components, x):
        out = out * add_char(comp, part, a)
    return out


def algebra_gauss_sum(chi, a=1):
    """The sum of chi(x) psi(Tr x) over the units x of chi's algebra."""
    alg = chi.algebra
    total = CycloNum.zero(1)
    for x in units(alg):
        total = total + algebra_char_value(chi, x) * algebra_add_char(alg, x, a)
    return total


def norm_to_base(alg, x):
    """N(x), the product of the component norms down to the base field."""
    out = alg.base.one()
    for comp, part in zip(alg.components, x):
        out = out * comp.norm_to(part, alg.base.f)
    return out


def direct_sum(inst, t, a=1):
    """The norm-equation sum as a literal double loop over unit pairs.

    Sums psi(Tr x + Tr(-y)) chi_A(x) conj(chi_B)(-y) over units x of A and
    y of B with N(y) = t N(x), psi(z) = zeta_p^(a z), and divides by minus
    the Gauss-sum denominator g_A(chi_A) g_B(conj chi_B) against psi,
    inverted generically.
    """
    A, B = inst.A, inst.B
    t = inst.base.elem(t)
    chiB_bar = inst.chiB.conj()
    # each unit's own factor psi(z) chi(z), with z = x on A and z = -y on B
    b_terms = []
    for y in units(B):
        minus_y = tuple(-part for part in y)
        b_terms.append((norm_to_base(B, y),
                        algebra_add_char(B, minus_y, a) * algebra_char_value(chiB_bar, minus_y)))
    total = CycloNum.zero(1)
    for x in units(A):
        target = t * norm_to_base(A, x)
        x_term = algebra_add_char(A, x, a) * algebra_char_value(inst.chiA, x)
        for norm, y_term in b_terms:
            if norm == target:
                total = total + x_term * y_term
    den = algebra_gauss_sum(inst.chiA, a) * algebra_gauss_sum(chiB_bar, a)
    return -total / den


def trace_fibre(field, e, c, a=1):
    """S_c, the sum of chi(x) over the units x of field with a Tr x = c."""
    total = CycloNum.zero(1)
    for x in field.units():
        if a * field.trace_int(x) % field.p == c % field.p:
            total = total + char_value(field, e, x)
    return total


def product_fibres(chars, a=1):
    """[T_0, ..., T_(p-1)]: T_c is the sum of the product of chi_i(x_i) over
    the tuples of units x_i with a (Tr x_1 + ... + Tr x_k) = c, for
    characters chi_i = chars[i] on fields of one characteristic p.
    Expanded fibre by fibre: T_c = sum of S_(c_1) ... S_(c_k) over c_1 + ...
    + c_k = c."""
    p = chars[0].field.p
    out = [CycloNum.one(1)] + [CycloNum.zero(1)] * (p - 1)
    for chi in chars:
        s = [trace_fibre(chi.field, chi.e, c, a) for c in range(p)]
        out = [sum((out[u] * s[(c - u) % p] for u in range(p)), CycloNum.zero(1))
               for c in range(p)]
    return out
