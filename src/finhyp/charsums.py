"""Multiplicative characters, on fields and on semisimple algebras, with
their exact Gauss sums against the trace character.

A character is an exponent relative to the field's fixed generator, so
conjugating or twisting a character is integer arithmetic on exponents.

A Gauss sum is kept as its two trace fibres.  Let S_c be the sum of chi(x)
over the units x with Tr x = c.  As Tr(bx) = b Tr x, S_(bc) = chi(b) S_c
for b in F_p^x, so

    g(chi) = S_0 + S_1 gamma(psi),   gamma(psi) = sum over b of psi(b) zeta_p^b,

with psi the restriction of chi to F_p^x.  S_0 and S_1 are tallies of
powers of zeta_(q-1), and S_0 = psi(b) S_0 is 0 unless psi is trivial.  A
product of Gauss sums over fields F_(q_i) of characteristic p is again such
a pair X_0 + X_1 gamma(psi), with tallies at length big = lcm(q_i - 1) and
psi the product of the restrictions.  Its fibres are products of fibres
and of two Jacobi tallies over F_p (_GaussPair.__mul__), multiplied as
packed integers at length big.  A pair is lifted into Q(zeta_(p big)) once,
when its value is read; its coefficient of gamma(psi) is read in
Q(zeta_big) itself.

A twist a in F_p^x of the trace gives g_a(chi) = conj(chi(a)) g(chi), and
chi(a) = zeta_big^psi[a]: gauss_product reads the product against the
trace itself and multiplies it by zeta_big^-psi[a], so no pair is ever
twisted.  The automorphism sigma_k, which fixes zeta_p and raises
zeta_big to the k-th power, takes g(chi) to g(chi^k): it moves slot j of
X_0 and X_1 to slot j k mod big and multiplies psi by k.  No image is
built; the character expansion (see hypergeometric) meets sigma_k only in
the traced read of one packed sum (_Packed.read).
"""

from collections import Counter
from functools import lru_cache, reduce
from math import lcm, prod
from operator import mul

from ._value import Value
from .cyclo import _Packed, root_of_unity
from .errors import FieldMismatch, InternalInconsistency, LengthMismatch, NotSubfield


class MultChar(Value):
    """chi(g^j) = zeta_(q-1)^(e*j) on the units of a fixed field.

    A Value, so immutable and hashed once: characters are parts of the
    AlgebraChar and HGAlgebraInstance keys of the sum caches."""

    __slots__ = _fields = ("field", "e")

    def __init__(self, field, e):
        self._init(field, e % (field.q - 1))

    @property
    def is_trivial(self):
        return self.e == 0

    def conj(self):
        return MultChar(self.field, -self.e)

    def __mul__(self, other):
        if other.field is not self.field:
            raise FieldMismatch("characters on different fields")
        return MultChar(self.field, self.e + other.e)

    def __pow__(self, k):
        return MultChar(self.field, self.e * k)


def gauss_sum(chi, a=1):
    """Exact Gauss sum of chi against the a-twisted trace character."""
    return gauss_product((chi,), a)


@lru_cache(maxsize=None)
def _trace_fibres(field):
    """One O(q) pass per field: the j with Tr g^j = 0 and those with
    Tr g^j = 1, and the dlogs of b = 1..p-1 (dlog[0] = 0)."""
    p, qbar = field.p, field.q - 1
    fibres = ([], [])
    for j in range(qbar):
        tr = field.trace_of_unit(j)
        if tr < 2:
            fibres[tr].append(j)
    dlogs = (0,) + tuple(field.dlog(b) for b in range(1, p))
    return tuple(fibres[0]), tuple(fibres[1]), dlogs


def _gauss_entry(field, e):
    """One Gauss sum as its trace fibres, read off _trace_fibres in O(q/p):
    the (c, count) pairs of S_0 and S_1 as sums of count * zeta_(q-1)^c, and
    psi with chi(b) = zeta_(q-1)^psi[b] for b = 1..p-1 (psi[0] = 0).  S_0 is
    left empty when psi is nontrivial, where it is 0."""
    qbar = field.q - 1
    zero, one, dlogs = _trace_fibres(field)
    psi = tuple(e * d % qbar for d in dlogs)
    s0 = () if any(psi) else tuple(Counter(e * j % qbar for j in zero).items())
    return s0, tuple(Counter(e * j % qbar for j in one).items()), psi


@lru_cache(maxsize=None)
def _gauss_pair_entry(chi, big, bound):
    """The Gauss sum of chi, a _GaussPair at length big, built once per
    (chi, big, bound)."""
    field = chi.field
    s0, s1, psi = _gauss_entry(field, chi.e)
    step = big // (field.q - 1)
    x0, x1 = (_Packed.tally(big, bound, ((c * step, w) for c, w in s)) for s in (s0, s1))
    return _GaussPair(field.p, x0, x1, tuple(e * step for e in psi))


class _GaussPair:
    """X_0 + X_1 gamma(psi): a product of Gauss sums as its two trace fibres,
    nonnegative tallies packed at length big, and psi, the exponents in
    zeta_big of its character on F_p^x (psi[b] for b = 1..p-1, psi[0] = 0).
    X_0 is empty when psi is nontrivial."""

    __slots__ = ("p", "x0", "x1", "psi")

    def __init__(self, p, x0, x1, psi):
        self.p, self.x0, self.x1, self.psi = p, x0, x1, psi

    def __mul__(self, other):
        """The product PG of P = self and G = other, by the fibre rule

            (PG)_0 = P_0 G_0 + P_1 G_1 J_0,
            (PG)_1 = P_0 G_1 + P_1 G_0 + P_1 G_1 J_1,

        J_0 the sum of psi_P(b) psi_G(-b) over b != 0 and J_1 that of
        psi_P(b) psi_G(1 - b) over b != 0, 1.  J_0 is (p-1) psi_G(-1) if
        psi_P psi_G is trivial and 0 otherwise.  That makes at most three
        products at length big: P_0 G_0, P_1 G_1 and, when both P_0 and G_0
        are nonzero, (P_0 + P_1)(G_0 + G_1), less the other two for the cross
        term.  Its slots are sums of nonnegative products, so the difference
        is exact.  Each term of J_0 and J_1 is one shift-add of P_1 G_1: at
        most p-1 in all."""
        p, psi_p, psi_g = self.p, self.psi, other.psi
        x0, x1, y0, y1 = self.x0, self.x1, other.x0, other.x1
        n, bound, width = x1.n, x1.bound, x1.width
        bits = 8 * width
        psi = tuple((u + v) % n for u, v in zip(psi_p, psi_g))
        low, top = x0.value * y0.value, x1.value * y1.value
        if x0.value and y0.value:
            cross = (x0.value + x1.value) * (y0.value + y1.value) - low - top
        else:
            cross = x0.value * y1.value + x1.value * y0.value
        hi = _Packed(n, bound, width, top, x1.total * y1.total)  # P_1 G_1, folded
        jacobi = {}
        for b in range(2, p):
            e = (psi_p[b] + psi_g[p + 1 - b]) % n
            jacobi[e] = jacobi.get(e, 0) + 1
        v1 = cross + sum(hi.value * w << bits * e for e, w in jacobi.items())
        t1 = x0.total * y1.total + x1.total * y0.total + (p - 2) * hi.total
        if any(psi):  # (PG)_0 = psi(b) (PG)_0 is 0
            v0 = t0 = 0
        else:
            v0 = low + (hi.value * (p - 1) << bits * psi_g[p - 1])
            t0 = x0.total * y0.total + (p - 1) * hi.total
        return _GaussPair(p, _Packed(n, bound, width, v0, t0),
                          _Packed(n, bound, width, v1, t1), psi)

    def gamma_coefficient(self):
        """The c in Q(zeta_big) with self = c gamma(psi): X_1 - X_0, which is
        X_1 unless psi is trivial, and then gamma(psi) = -1.  One reduction."""
        return self.x1.read(minus=self.x0)

    def lift(self):
        """The pair packed at length p big, zeta_big = zeta_(p big)^p and
        zeta_p = zeta_(p big)^big: X_0 and X_1 spread from slot j to slot j p,
        plus p-1 rotations of the spread X_1, one per term psi(b) zeta_p^b of
        gamma(psi).  A spread is a cut of every slot, spaced by p."""
        p, n = self.p, self.x1.n
        x0, x1 = (x.cut(0, 1, p * n, p, 0) for x in (self.x0, self.x1))
        shifts = [0] + [e * p + b * n for b, e in enumerate(self.psi) if b]
        return _Packed.rotated_sum([x0] + [x1] * (p - 1), shifts)

    def read(self):
        """The value in Q(zeta_(p big)): one lift, one reduction."""
        return self.lift().read()


def _gauss_pair(chars, bound):
    """The product of the Gauss sums of chars as a _GaussPair at big =
    lcm(q_i - 1) with coefficients up to bound."""
    big = lcm(*(chi.field.q - 1 for chi in chars))
    return reduce(mul, (_gauss_pair_entry(chi, big, bound) for chi in chars))


def gauss_product(chars, a=1):
    """Product of the Gauss sums of chars against the a-twisted trace: their
    trace-fibre pairs multiplied in packed form, lifted and reduced once, and
    multiplied by conj(chi(a)) = zeta_big^-psi[a] when that is not 1."""
    chars = tuple(chars)
    pair = _gauss_pair(chars, prod(chi.field.q - 1 for chi in chars))
    shift = pair.psi[a % pair.p]
    value = pair.read()
    return value * root_of_unity(pair.x1.n, -shift) if shift else value


# --------------------------------------------------------------- algebras


class SemisimpleAlgebra:
    """A direct sum of field extensions of a common base field."""

    def __init__(self, base, components):
        self.base = base
        self.components = tuple(components)
        if not self.components:
            raise LengthMismatch("need at least one component")
        for c in self.components:
            if c.p != base.p:
                raise FieldMismatch("mixed characteristics")
            if c.f % base.f != 0:
                raise NotSubfield("component is not an extension of the base")
        self.degrees = tuple(c.f // base.f for c in self.components)
        self.dim = sum(self.degrees)
        # norm_to(g_i^j, base) = base_gen^(j * factor_i)
        self._norm_factors = tuple(
            c.norm_unit_dlog(base.f) if c is not base else 1
            for c in self.components
        )

    def unit_count(self):
        n = 1
        for c in self.components:
            n *= c.q - 1
        return n

    def __repr__(self):
        comps = " + ".join(repr(c) for c in self.components)
        return f"[{comps} over {self.base!r}]"


class AlgebraChar(Value):
    """A multiplicative character of an algebra, one field character per
    component.  A Value, like MultChar: immutable and hashed once."""

    __slots__ = _fields = ("algebra", "chars")

    def __init__(self, algebra, chars):
        if len(chars) != len(algebra.components):
            raise LengthMismatch("one character per component required")
        for chi, comp in zip(chars, algebra.components):
            if chi.field is not comp:
                raise FieldMismatch("character field does not match component")
        self._init(algebra, chars)

    @classmethod
    def from_exponents(cls, algebra, exponents):
        return cls(
            algebra,
            tuple(MultChar(c, e) for c, e in zip(algebra.components, exponents)),
        )

    @property
    def exponents(self):
        return tuple(chi.e for chi in self.chars)

    def conj(self):
        return AlgebraChar(self.algebra, tuple(chi.conj() for chi in self.chars))

    def power(self, k):
        return AlgebraChar(self.algebra, tuple(chi**k for chi in self.chars))

    def twist_by_norm_power(self, m):
        """The character x -> chi(x) * omega(N(x))^m, omega the base generator
        character; on each component this shifts the exponent by
        m * norm_factor * (q_i - 1)/(q - 1)."""
        alg = self.algebra
        qbar = alg.base.q - 1
        shifted = []
        for chi, comp, nf in zip(self.chars, alg.components, alg._norm_factors):
            shift = m * nf * ((comp.q - 1) // qbar)
            shifted.append(MultChar(comp, chi.e + shift))
        return AlgebraChar(alg, tuple(shifted))

def algebra_gauss_sum(chi_a, a=1):
    """Gauss sum of an algebra character, via the component product."""
    return gauss_product(chi_a.chars, a)


def gauss_norm_exponent(chi_a):
    """The f with |g_A(chi)|^2 = q^f, verified exactly on the computed sum."""
    g = algebra_gauss_sum(chi_a)
    f = sum(
        deg
        for deg, chi in zip(chi_a.algebra.degrees, chi_a.chars)
        if not chi.is_trivial
    )
    q = chi_a.algebra.base.q
    if g * g.conj() != q**f:
        raise InternalInconsistency("|g|^2 is not the predicted power of q")
    return f


def invert_gauss_product(g):
    """Exact inverse conj(g)/|g|^2 of a product of Gauss sums, whose |g|^2
    is a power of q, or of its coefficient of gamma(psi), whose |g|^2 is
    that power over |gamma(psi)|^2, which is 1 or p."""
    conj = g.conj()
    norm = (g * conj).as_rational()
    if not norm:
        raise InternalInconsistency("|g|^2 is not a nonzero rational")
    return conj * (1 / norm)
