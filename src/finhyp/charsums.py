"""Multiplicative characters, on fields and on semisimple algebras, with
their exact Gauss sums against the trace character.

A character is an exponent relative to the field's fixed generator, so
conjugating or twisting a character is integer arithmetic on exponents.
Every summand of a Gauss sum is a root of unity, so a Gauss sum is kept as
a tally of exponents; a product of Gauss sums multiplies the tallies in
packed form and reduces the result once, when it is read.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod

from .cyclo import _Packed
from .errors import InternalInconsistency


@dataclass(frozen=True)
class MultChar:
    """chi(g^j) = zeta_(q-1)^(e*j) on the units of a fixed field."""

    field: object
    e: int

    def __post_init__(self):
        object.__setattr__(self, "e", self.e % (self.field.q - 1))

    @property
    def is_trivial(self):
        return self.e == 0

    def conj(self):
        return MultChar(self.field, -self.e)

    def __mul__(self, other):
        if other.field is not self.field:
            raise ValueError("characters on different fields")
        return MultChar(self.field, self.e + other.e)

    def __pow__(self, k):
        return MultChar(self.field, self.e * k)


def gauss_sum(chi, a=1):
    """Exact Gauss sum of chi against the a-twisted trace character."""
    return gauss_product((chi,), a)


@lru_cache(maxsize=None)
def _gauss_entry(field, e, a):
    """One Gauss sum, computed on first use as an O(q) tally: n = p(q-1)
    and the pairs (c, count) of the sum of count * zeta_n^c."""
    p, qbar = field.p, field.q - 1
    n = p * qbar
    weights = {}
    for j in range(qbar):
        # zeta_(q-1)^(e j) * zeta_p^(a tr(g^j)) as a power of zeta_n
        c = ((e * j % qbar) * p + (a * field.trace_of_unit(j) % p) * qbar) % n
        weights[c] = weights.get(c, 0) + 1
    return n, tuple(weights.items())


def _packed_gauss_product(chars, a, bound, n=1):
    """The product of the Gauss sums of chars against the a-twisted trace,
    packed for coefficients up to bound at the lcm of n and the conductors
    of their tallies."""
    tallies = [_gauss_entry(chi.field, chi.e, a % chi.field.p) for chi in chars]
    n = lcm(n, *(m for m, _ in tallies))
    out = _Packed.tally(n, bound, [(0, 1)])
    for m, tally in tallies:
        out = _Packed.dot([out], [_Packed.tally(n, bound, ((c * (n // m), w) for c, w in tally))])
    return out


def gauss_product(chars, a=1):
    """Product of the Gauss sums of chars against the a-twisted trace: their
    tallies multiplied in packed form and reduced once."""
    chars = tuple(chars)
    return _packed_gauss_product(chars, a, prod(chi.field.q - 1 for chi in chars)).read()


# --------------------------------------------------------------- algebras


class SemisimpleAlgebra:
    """A direct sum of field extensions of a common base field."""

    def __init__(self, base, components):
        self.base = base
        self.components = tuple(components)
        if not self.components:
            raise ValueError("need at least one component")
        for c in self.components:
            if c.p != base.p:
                raise ValueError("mixed characteristics")
            if c.f % base.f != 0:
                raise ValueError("component is not an extension of the base")
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


@dataclass(frozen=True)
class AlgebraChar:
    """A multiplicative character of an algebra, one field character per component."""

    algebra: SemisimpleAlgebra
    chars: tuple

    def __post_init__(self):
        if len(self.chars) != len(self.algebra.components):
            raise ValueError("one character per component required")
        for chi, comp in zip(self.chars, self.algebra.components):
            if chi.field is not comp:
                raise ValueError("character field does not match component")

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
    is a power of q."""
    norm = (g * g.conj()).as_rational()
    if not norm:
        raise InternalInconsistency("|g|^2 is not a nonzero rational")
    return g.conj() * (1 / norm)
