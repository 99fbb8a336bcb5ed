"""Finite hypergeometric sums, exactly, in three forms.

classic_sum evaluates the Gauss-sum series over F_q for a parameter pair.
algebra_sum_direct evaluates the two-algebra exponential sum over pairs of
units subject to the norm equation, and algebra_sum_fourier evaluates its
expansion in multiplicative characters; the two are proved equal and both
are kept as independent code paths.

Two normalization choices make the three forms one function: the
denominator is g_A(chi_A) * g_B(conj(chi_B)), and the whole B side of the
direct sum is evaluated at -y (multiplicative character included).  With
these, the split-algebra instance reproduces classic_sum exactly and the
equi-dimensional sums do not depend on the choice of the p-th root of
unity inside the additive characters.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .charsums import (
    AlgebraChar,
    SemisimpleAlgebra,
    _gauss_table,
    algebra_norm_to_base,
    gauss_sum,
    invert_gauss_product,
)
from .cyclo import CycloNum, root_of_unity
from .errors import AssumptionFails, ZeroArgument
from .finfield import factorize, make_field


@dataclass(frozen=True)
class HGAlgebraInstance:
    """Two semisimple algebras over one base field, with their characters."""

    A: SemisimpleAlgebra
    B: SemisimpleAlgebra
    chiA: AlgebraChar
    chiB: AlgebraChar

    def __post_init__(self):
        if self.A.base is not self.B.base:
            raise ValueError("algebras must share the base field")
        if self.chiA.algebra is not self.A or self.chiB.algebra is not self.B:
            raise ValueError("characters must live on the given algebras")

    @property
    def base(self):
        return self.A.base

    @property
    def is_equidimensional(self):
        return self.A.dim == self.B.dim

    def describe(self):
        return {
            "base": self.base.describe(),
            "A": [c.f // self.base.f for c in self.A.components],
            "B": [c.f // self.base.f for c in self.B.components],
            "chiA": list(self.chiA.exponents),
            "chiB": list(self.chiB.exponents),
        }


def _split_prime_power(q):
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, f),) = fac.items()
    return p, f


def _check_assumption(params, q):
    for x in params.alpha + params.beta:
        if ((q - 1) * x).denominator != 1:
            raise AssumptionFails(
                f"q-1 = {q - 1} is not divisible by the denominator of {x}"
            )


def _unit_arg(field, t):
    t = field.elem(t)
    if t.is_zero():
        raise ZeroArgument("t must be a unit")
    return t


def _omega_reindex(field, generator):
    """Exponent multiplier carrying the default generator character to the
    one based at `generator`."""
    if generator is None:
        return 1
    u = field.dlog(generator)
    qbar = field.q - 1
    if gcd(u, qbar) != 1:
        raise ValueError("chosen element does not generate the unit group")
    return pow(u, -1, qbar)


@lru_cache(maxsize=None)
def _classic_coefficients(params, field, w):
    """Series coefficients of classic_sum, denominator folded in."""
    qbar = field.q - 1
    table = _gauss_table(field, 1)
    a_exps = [int((qbar) * x) for x in params.alpha]
    b_exps = [int((qbar) * x) for x in params.beta]
    den = CycloNum.one(1)
    nontrivial = 0
    for a in a_exps:
        den = den * table[(a * w) % qbar]
        nontrivial += 1 if a % qbar else 0
    for b in b_exps:
        den = den * table[(-b * w) % qbar]
        nontrivial += 1 if b % qbar else 0
    inv_den = invert_gauss_product(den, field.q, nontrivial)
    coeffs = []
    for m in range(qbar):
        num = CycloNum.one(1)
        for a in a_exps:
            num = num * table[((m + a) * w) % qbar]
        for b in b_exps:
            num = num * table[((-m - b) * w) % qbar]
        coeffs.append(num * inv_den)
    return tuple(coeffs)


def classic_sum(params, q, t, generator=None):
    """The hypergeometric sum over F_q at argument t, exactly.

    Requires q-1 divisible by every parameter denominator.  The optional
    generator replaces the field's canonical unit-group generator in the
    definition of the character basis; the value must not change.
    """
    p, f = _split_prime_power(q)
    _check_assumption(params, q)
    field = make_field(p, f)
    t = _unit_arg(field, t)
    w = _omega_reindex(field, generator)
    qbar = q - 1
    coeffs = _classic_coefficients(params, field, w)
    sign = field.minus_one_dlog * params.d % qbar
    base_exp = (w * ((sign + field.dlog(t)) % qbar)) % qbar
    total = CycloNum.zero(1)
    for m in range(qbar):
        total = total + coeffs[m] * root_of_unity(qbar, base_exp * m)
    return total * Fraction(1, 1 - q)


# ------------------------------------------------------------- algebra sums


@lru_cache(maxsize=None)
def _denominator_inverse(inst, twist):
    gA = CycloNum.one(1)
    fA = 0
    for chi, deg in zip(inst.chiA.chars, inst.A.degrees):
        gA = gA * gauss_sum(chi, twist)
        fA += deg if not chi.is_trivial else 0
    gB = CycloNum.one(1)
    for chi, deg in zip(inst.chiB.conj().chars, inst.B.degrees):
        gB = gB * gauss_sum(chi, twist)
        fA += deg if not chi.is_trivial else 0
    return invert_gauss_product(gA * gB, inst.base.q, fA)


def _unit_tally(alg, exps, big, at_minus_y):
    """Counts of (trace mod p, character exponent mod big, norm dlog) over
    the units y of alg, the first two taken at -y when at_minus_y is set.

    Each key is the componentwise sum of the components' keys, so the tally
    is the convolution of one histogram of q_i - 1 entries per component.
    """
    p, qbar = alg.base.p, alg.base.q - 1
    acc = {(0, 0, 0): 1}
    for comp, e, nf in zip(alg.components, exps, alg._norm_factors):
        order = comp.q - 1
        h = comp.minus_one_dlog if at_minus_y else 0
        step = (-e if at_minus_y else e) * (big // order)
        hist = {}
        for j in range(order):
            key = (comp.trace_of_unit(j + h), step * (j + h) % big, j * nf % qbar)
            hist[key] = hist.get(key, 0) + 1
        out = {}
        for (tr, ch, nd), cnt in acc.items():
            for (tr_i, ch_i, nd_i), cnt_i in hist.items():
                key = ((tr + tr_i) % p, (ch + ch_i) % big, (nd + nd_i) % qbar)
                out[key] = out.get(key, 0) + cnt * cnt_i
        acc = out
    return acc


@lru_cache(maxsize=None)
def _direct_tallies(inst):
    """t- and twist-independent tallies for the norm-equation sum.

    A side: counts of (trace, character exponent, norm dlog) over the units.
    B side: per norm dlog, counts of (trace of -y, conj character exponent).
    """
    qbar = inst.base.q - 1
    big = lcm(*(c.q - 1 for c in inst.A.components + inst.B.components))
    a_side = _unit_tally(inst.A, inst.chiA.exponents, big, False)
    # the whole B side is evaluated at -y: additive and multiplicative part
    b_side = _unit_tally(inst.B, inst.chiB.exponents, big, True)
    buckets = [[] for _ in range(qbar)]
    for (tr, ch, nd), cnt in b_side.items():
        buckets[nd].append(((tr, ch), cnt))
    return big, list(a_side.items()), buckets


def algebra_sum_direct(inst, t, twist=1):
    """The norm-equation exponential sum over unit pairs, exactly.

    Every summand is a root of unity; exponents are tallied componentwise
    and converted to a single cyclotomic number at the end.
    """
    base = inst.base
    p = base.p
    qbar = base.q - 1
    t = _unit_arg(base, t)
    dlog_t = base.dlog(t)
    twist = twist % p
    if twist == 0:
        raise ValueError("twist must be a unit of F_p")

    big, a_side, buckets = _direct_tallies(inst)
    n = p * big
    weights = {}
    for (tr, ch, na), cnt_a in a_side:
        for (trb, chb), cnt in buckets[(dlog_t + na) % qbar]:
            c = ((twist * (tr + trb) % p) * big + ((ch + chb) % big) * p) % n
            weights[c] = weights.get(c, 0) + cnt * cnt_a

    total = CycloNum.from_powers(n, weights)
    return total * (-1) * _denominator_inverse(inst, twist)


@lru_cache(maxsize=None)
def _fourier_coefficients(inst, twist):
    qbar = inst.base.q - 1
    inv_den = _denominator_inverse(inst, twist)
    out = []
    for m in range(qbar):
        num = CycloNum.one(1)
        for chi in inst.chiA.twist_by_norm_power(m).chars:
            num = num * gauss_sum(chi, twist)
        for chi in inst.chiB.conj().twist_by_norm_power(-m).chars:
            num = num * gauss_sum(chi, twist)
        out.append(num * inv_den)
    return tuple(out)


def algebra_sum_fourier(inst, t, twist=1):
    """The same sum through its character expansion; independent code path."""
    base = inst.base
    qbar = base.q - 1
    t = _unit_arg(base, t)
    twist = twist % base.p
    if twist == 0:
        raise ValueError("twist must be a unit of F_p")

    coeffs = _fourier_coefficients(inst, twist)
    arg = algebra_norm_to_base(inst.B.minus_one()) * t
    arg_dlog = base.dlog(arg)

    total = CycloNum.zero(1)
    for m in range(qbar):
        total = total + coeffs[m] * root_of_unity(qbar, arg_dlog * m)
    return total * Fraction(1, 1 - base.q)


# ---------------------------------------------------------------- instances


def split_instance(params, q):
    """Both algebras a direct sum of d copies of F_q, characters from the
    parameters scaled by q-1."""
    p, f = _split_prime_power(q)
    _check_assumption(params, q)
    field = make_field(p, f)
    qbar = q - 1
    d = params.d
    A = SemisimpleAlgebra(field, [field] * d)
    B = SemisimpleAlgebra(field, [field] * d)
    chiA = AlgebraChar.from_exponents(A, [int(qbar * x) for x in params.alpha])
    chiB = AlgebraChar.from_exponents(B, [int(qbar * x) for x in params.beta])
    return HGAlgebraInstance(A, B, chiA, chiB)


def orbit_instance(params, p, max_size=None):
    """Algebras assembled from the orbits of multiplication by p.

    Each orbit of length l contributes one component F_{p^l} whose
    character exponent is rep * (p^l - 1); that exponent is an integer
    precisely because l is the orbit length.
    """
    from .finfield import DEFAULT_MAX_FIELD

    max_size = max_size or DEFAULT_MAX_FIELD
    alpha_orbits, beta_orbits = params.p_orbits(p)
    base = make_field(p)

    def build(orbits):
        comps, exps = [], []
        for o in orbits:
            comp = make_field(p, o.length, max_size=max_size)
            comps.append(comp)
            e = o.rep * (comp.q - 1)
            assert e.denominator == 1
            exps.append(int(e))
        alg = SemisimpleAlgebra(base, comps)
        return alg, AlgebraChar.from_exponents(alg, exps)

    A, chiA = build(alpha_orbits)
    B, chiB = build(beta_orbits)
    return HGAlgebraInstance(A, B, chiA, chiB)


# ------------------------------------------------- alternative normalizations


def greene_factor(params, q):
    """Multiplier turning classic_sum into the Jacobi-sum normalization."""
    p, f = _split_prime_power(q)
    _check_assumption(params, q)
    field = make_field(p, f)
    qbar = q - 1
    table = _gauss_table(field, 1)
    a_exps = [int(qbar * x) for x in params.alpha]
    b_exps = [int(qbar * x) for x in params.beta]
    beta_weight = sum(params.beta) * qbar
    assert beta_weight.denominator == 1
    sign = root_of_unity(qbar, field.minus_one_dlog * int(beta_weight))
    num = CycloNum.one(1)
    for a, b in zip(a_exps, b_exps):
        num = num * table[a % qbar] * table[(-b) % qbar]
    den = CycloNum.one(1)
    for a, b in zip(a_exps, b_exps):
        den = den * table[(a - b) % qbar]
    return sign * Fraction(1, q**params.d) * num * den.inverse()


def katz_unnormalized(params, q, t):
    """classic_sum with the Gauss-sum denominator multiplied back in."""
    p, f = _split_prime_power(q)
    _check_assumption(params, q)
    field = make_field(p, f)
    qbar = q - 1
    table = _gauss_table(field, 1)
    factor = CycloNum.one(1)
    for x in params.alpha:
        factor = factor * table[int(qbar * x) % qbar]
    for x in params.beta:
        factor = factor * table[(-int(qbar * x)) % qbar]
    return classic_sum(params, q, t) * factor
