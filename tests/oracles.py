"""Brute-force references that the tests compare the fast routes against.

Each complex-side one sums over explicit field elements, built from the
public FqField tables (elements, dlog, trace, norm), root_of_unity and
generic CycloNum arithmetic. None of them reads the packed tallies or caches
of finhyp, so a fast route that agrees with one is checked independently.
An element of a semisimple algebra is a tuple of field elements, one per
component.

The p-adic ones state the series and the embedding with Fraction arguments
and PadicNum and PiExp arithmetic, where the package works on integers mod
p^N. Of the package's p-adic code they use gamma_p, teichmuller and those
two types; sum_via_orbits groups the Fraction parameters into orbits of
x -> p x mod 1 itself.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

from finhyp.cyclo import CycloNum, root_of_unity
from finhyp.finfield import make_field
from finhyp.padic import PadicNum, PiExp, _vp, gamma_p, teichmuller


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


def direct_tally(inst):
    """The joint norm-class tally of the unit pairs (x, y) of A x B, as
    {(u, s): {c: count}} for u in {0, 1}: the pairs with Tr x + Tr(-y) = u
    and dlog N(y) - dlog N(x) = s whose chi_A(x) conj(chi_B)(-y) is
    zeta_big^c, big = lcm(q_i - 1).  Each side is tallied over its units by
    (trace, norm dlog, character exponent), from explicit elements one
    component at a time, and the pairs of the two tallies are summed key by
    key."""
    base, p, qbar = inst.base, inst.base.p, inst.base.q - 1
    big = math.lcm(*(c.q - 1 for c in inst.A.components + inst.B.components))

    def side(chi, on_b):
        acc = {(0, 0, 0): 1}
        for comp, e in zip(chi.algebra.components, chi.exponents):
            hist = {}
            for z in comp.units():
                w = -z if on_b else z  # B's trace and character are taken at -y
                key = (comp.trace_int(w), base.dlog(comp.norm_to(z, base.f)),
                       e * comp.dlog(w) * (big // (comp.q - 1)))
                hist[key] = hist.get(key, 0) + 1
            out = {}
            for (tr, nd, ch), cnt in acc.items():
                for (tr_i, nd_i, ch_i), cnt_i in hist.items():
                    key = ((tr + tr_i) % p, (nd + nd_i) % qbar, (ch + ch_i) % big)
                    out[key] = out.get(key, 0) + cnt * cnt_i
            acc = out
        return acc

    out = {}
    b_side = side(inst.chiB.conj(), True)
    for (tr_x, nd_x, ch_x), cnt_x in side(inst.chiA, False).items():
        for (tr_y, nd_y, ch_y), cnt_y in b_side.items():
            u = (tr_x + tr_y) % p
            if u < 2:
                fibre = out.setdefault((u, (nd_y - nd_x) % qbar), {})
                c = (ch_x + ch_y) % big
                fibre[c] = fibre.get(c, 0) + cnt_x * cnt_y
    return out


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


# ------------------------------------------------------------------ p-adic


def drop(params, x):
    """The step function whose maximum over [0, 1] is the denominator
    exponent: the sum of floor(x + a) - floor(a) over alpha and of
    floor(-x - b) - floor(-b) over beta, at a Fraction x."""
    return (sum(math.floor(x + a) - math.floor(a) for a in params.alpha)
            + sum(math.floor(-x - b) - math.floor(-b) for b in params.beta))


def term_exponent(params, p, m):
    """Lambda(m), the exponent of -p in the m-th series term."""
    return -drop(params, Fraction(m, p - 1))


def denominator_exponent(params):
    """The largest drop, at the break points -x mod 1 of the floor sums and
    at the midpoints between them."""
    pts = sorted({Fraction(0), Fraction(1)} | {-x % 1 for x in params.alpha + params.beta})
    xs = pts + [(u + v) / 2 for u, v in zip(pts, pts[1:])]
    return max(drop(params, x) for x in xs)


def gamma_args(params, p):
    """The Gamma_p arguments of the series as Fractions, one row per m < p-1:
    alpha_i + m/(p-1) and -beta_j - m/(p-1), mod 1.  Row 0 is the
    denominator's."""
    rows = []
    for m in range(p - 1):
        x = Fraction(m, p - 1)
        rows.append([(a + x) % 1 for a in params.alpha] + [(-b - x) % 1 for b in params.beta])
    return rows


def series_total(params, p, t, prec, unit_terms):
    """sum(U_m * omega(a0)^-m * (-p)^Lambda(m)) / (1 - p) in PadicNum
    arithmetic, for PadicNum unit terms U_m and a0 = (-1)^d t, with the
    powers of p shifted up by the largest drop and back down at the end."""
    exponents = [term_exponent(params, p, m) for m in range(p - 1)]
    shift = max(0, -min(exponents))
    omega = teichmuller(-t if params.d & 1 else t, p, prec)
    total = PadicNum.exact_zero(p)
    for m, (u, lam) in enumerate(zip(unit_terms, exponents)):
        total = total + u * omega ** -m * PadicNum(p, shift + lam, -1 if lam & 1 else 1, prec)
    return total / (1 - p) * PadicNum(p, -shift, 1, prec)


def sum_direct(params, p, t, prec):
    """The p-adic sum from gamma_p at the Fraction rows of gamma_args."""
    rows = [reduce(mul, (gamma_p(x, p, prec) for x in row)) for row in gamma_args(params, p)]
    return series_total(params, p, t, prec, [row / rows[0] for row in rows])


def gauss_sum_padic(p, f, m, prec):
    """Gross-Koblitz: minus the product over the orbit fractions
    x = {p^i m/(q-1)} of pi^((p-1) x) Gamma_p(x), as one PiExp."""
    qbar = p**f - 1
    xs = [Fraction(p**i * m % qbar, qbar) for i in range(f)]
    return PiExp(p, prec, (p - 1) * sum(xs), -math.prod(gamma_p(x, p, prec).u for x in xs))


def fraction_orbits(values, p):
    """The orbits of x -> p x mod 1 on a multiset of Fractions in [0, 1)
    that it permutes, each as (smallest member, length); a value of
    multiplicity mu gives mu copies of its orbit."""
    rest, orbits = sorted(values), []
    while rest:
        orbit = [rest[0]]
        while (x := p * orbit[-1] % 1) != orbit[0]:
            orbit.append(x)
        for x in orbit:
            rest.remove(x)
        orbits.append((orbit[0], len(orbit)))
    return orbits


def sum_via_orbits(params, p, t, prec):
    """The p-adic sum from PiExp products of Gauss sums over the orbit
    fields of fraction_orbits: row m has one Gauss sum at exponent
    sgn * (rep + m/(p-1)) * (p^l - 1) per orbit of length l.  Returns None
    when a coefficient's pi-exponent is not (p-1) * Lambda(m)."""
    specs = []  # (l, e, step) with row m's exponent e + m * step
    for values, sgn in ((params.alpha, 1), (params.beta, -1)):
        for rep, ln in fraction_orbits(values, p):
            qbar = p**ln - 1
            specs.append((ln, int(sgn * rep * qbar), sgn * (qbar // (p - 1))))
    rows = [reduce(mul, (gauss_sum_padic(p, ln, e + m * step, prec) for ln, e, step in specs))
            for m in range(p - 1)]
    coeffs = [row / rows[0] for row in rows]
    if any(c.e != (p - 1) * term_exponent(params, p, m) for m, c in enumerate(coeffs)):
        return None
    return series_total(params, p, t, prec, [PadicNum(p, 0, c.u, c.prec) for c in coeffs])


def embed_cyclotomic(value, p, prec):
    """The image of value in Z_p by Horner's rule in PadicNum arithmetic on
    its Fraction coordinates, at prec digits plus the p-adic valuation of
    the largest p-power among their denominators."""
    guard = max((_vp(c.denominator, p) for c in value.coeffs), default=0)
    work = prec + guard
    tau = teichmuller(make_field(p).generator.to_int(), p, work)
    img = (tau ** ((p - 1) // value.conductor)).inverse()
    acc = PadicNum.exact_zero(p)
    for c in reversed(value.coeffs):
        acc = acc * img + PadicNum.from_rational(c, p, work)
    return acc
