"""Hypergeometric parameter multisets and their combinatorics.

Parameters are two disjoint (mod Z) multisets of rationals of equal
length.  Entries are normalized once, at construction, to their
representatives in [0, 1); every floor and fractional-part formula in the
package is stated for these representatives.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._value import Value
from .cyclo import CycloNum, root_of_unity
from .errors import (
    BoundExceeded,
    DoesNotSplit,
    InternalInconsistency,
    LengthMismatch,
    MalformedValue,
    NotCoprime,
    NotDisjointModZ,
)

# A loop over the units k mod D costs about D d steps at length d.  At the
# cap the longest, global_denominator_exponent, took 1.2 s at D = 99991,
# d = 1 and 0.9 s at D = 99998, d = 2 (2-core Xeon, Python 3.11.7); the
# largest D d that the tests and the check suite use is 28560.  The table of
# Lambda(m) for m < p-1 that `delta --p` prints costs (p-1) d steps under the
# same cap; at p = 99991, d = 1 the whole command took 0.45 s.
MAX_UNIT_WORK = 10**5


def parse_fraction_list(text):
    """Parse "1/5,2/5,3/5" (integers allowed) into a list of Fractions."""
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise LengthMismatch("empty parameter list")
    try:
        return [Fraction(s) for s in items]
    except (ValueError, ZeroDivisionError):
        raise MalformedValue(f"not a list of fractions: {text!r}") from None


class POrbit(Value):
    """One orbit of multiplication by q on a parameter multiset; a Value."""

    __slots__ = _fields = ("rep", "values")

    def __init__(self, rep, values):
        self._init(rep, values)

    @property
    def length(self):
        return len(self.values)


class HGParams(Value):
    """A pair of parameter multisets, stored sorted with entries in [0, 1).
    The scaled numerators D*alpha_i and D*beta_j, D the common denominator,
    are kept as ints, and they are the Value's one field: parameters compare
    and hash, once, as ints, and key the orbit-instance and p-adic series
    caches."""

    __slots__ = ("alpha", "beta", "d", "_scaled")
    _fields = ("_scaled",)

    def __init__(self, alpha, beta):
        a = tuple(sorted(Fraction(x) % 1 for x in alpha))
        b = tuple(sorted(Fraction(x) % 1 for x in beta))
        if not a or len(a) != len(b):
            raise LengthMismatch(
                f"need equal nonempty lists, got {len(a)} and {len(b)}"
            )
        common = set(a) & set(b)
        if common:
            raise NotDisjointModZ(f"shared values mod Z: {sorted(common)}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "d", len(a))
        dd = lcm(*(x.denominator for x in a + b))
        self._init((
            dd,
            tuple(x.numerator * (dd // x.denominator) for x in a),
            tuple(x.numerator * (dd // x.denominator) for x in b),
        ))

    @classmethod
    def parse(cls, alpha_text, beta_text):
        return cls(parse_fraction_list(alpha_text), parse_fraction_list(beta_text))

    def __repr__(self):
        return f"HGParams({list(self.alpha)}, {list(self.beta)})"

    # ---------------------------------------------------------- combinatorics

    def common_denominator(self):
        return self._scaled[0]

    def conjugate(self, k):
        """The parameter pair (k*alpha, k*beta) mod Z."""
        dd = self.common_denominator()
        if gcd(k, dd) != 1:
            raise NotCoprime(f"{k} shares a factor with {dd}")
        return HGParams([k * x for x in self.alpha], [k * x for x in self.beta])

    def _fixed_by(self, k):
        """Whether (k*alpha, k*beta) = (alpha, beta) mod Z, for k prime to D."""
        dd, a, b = self._scaled
        return (sorted(k * x % dd for x in a) == list(a)
                and sorted(k * x % dd for x in b) == list(b))

    def _units(self):
        """The units k mod D, for a loop over them priced first: refused
        with BoundExceeded when D d exceeds MAX_UNIT_WORK."""
        dd = self.common_denominator()
        _price(f"a loop over the units mod D = {dd} at d = {self.d}", "D d", dd * self.d)
        return [k for k in range(1, dd + 1) if gcd(k, dd) == 1]

    def stabilizer(self):
        """Sorted residues k mod D with (k*alpha, k*beta) = (alpha, beta)."""
        return tuple(k for k in self._units() if self._fixed_by(k))

    def is_defined_over_q(self):
        """Whether the stabilizer is all of (Z/D)^x."""
        return all(self._fixed_by(k) for k in self._units())

    def splits_at(self, q):
        """Whether multiplication by q, prime to D, fixes both multisets mod Z."""
        return gcd(q, self.common_denominator()) == 1 and self._fixed_by(q)

    def term_exponent(self, p, m):
        """Integer exponent of -p carried by the m-th series term."""
        dd = self.common_denominator()
        return -_drop(self._scaled, m * dd, dd * (p - 1))

    def term_exponents(self, p):
        """Lambda(m) for m < p-1, priced first like _units: refused with
        BoundExceeded when (p-1) d exceeds MAX_UNIT_WORK."""
        _price(f"a table of Lambda(m) for m < p - 1 = {p - 1} at d = {self.d}",
               "(p - 1) d", (p - 1) * self.d)
        return _term_exponents(self, p)

    def denominator_exponent(self):
        """Largest power of p that can appear in a denominator of the p-adic sum."""
        return _denominator_exponent(self)

    def global_denominator_exponent(self):
        """Max denominator exponent over all conjugate parameter pairs, from
        the scaled numerators k*D*x mod D of each conjugate."""
        dd, a, b = self._scaled
        return max(_max_drop((dd, [k * n % dd for n in a], [k * n % dd for n in b]))
                   for k in self._units())

    def p_orbits(self, q):
        """Orbit decomposition of both multisets under x -> q*x mod Z, for a
        power q of p (q = p on the p-adic side).

        Returns (alpha_orbits, beta_orbits); a value of multiplicity mu
        yields mu copies of its orbit.  The representative is the smallest
        value in the orbit.
        """
        dd = self.common_denominator()
        return tuple(
            [POrbit(Fraction(o[0], dd), tuple(Fraction(x, dd) for x in o)) for o in orbits]
            for orbits in self.numerator_orbits(q)
        )

    def numerator_orbits(self, q):
        """p_orbits on the scaled numerators D*x, each orbit a tuple;
        DoesNotSplit unless multiplication by q permutes both multisets."""
        if not self.splits_at(q):
            raise DoesNotSplit(f"q = {q} does not permute the parameters")
        dd, a, b = self._scaled
        return _orbits_of(a, q, dd), _orbits_of(b, q, dd)

    def defining_polynomials(self):
        """Coefficient lists (low degree first) of prod(x - e^(2 pi i a)).

        Coefficients are exact elements of Q(zeta_D).  When the pair is
        defined over Q they are verified to be rational integers.
        """
        dd = self.common_denominator()

        def expand(vals):
            coeffs = [CycloNum.one(dd)]
            for v in vals:
                r = root_of_unity(dd, int(v * dd))
                nxt = [CycloNum.zero(dd)] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    nxt[i + 1] = nxt[i + 1] + c
                    nxt[i] = nxt[i] - c * r
                coeffs = nxt
            return coeffs

        pa, pb = expand(self.alpha), expand(self.beta)
        if self.is_defined_over_q():
            for c in pa + pb:
                r = c.as_rational()
                if r is None or r.denominator != 1:
                    raise InternalInconsistency(
                        "polynomials of a Q-stable pair must have integer coefficients"
                    )
        return pa, pb


def _price(loop, formula, work):
    """Refuse a loop whose work exceeds MAX_UNIT_WORK with BoundExceeded."""
    if work > MAX_UNIT_WORK:
        raise BoundExceeded(f"{loop} costs {formula} = {work}, over the cap {MAX_UNIT_WORK}")


def _orbits_of(nums, q, dd):
    counts = Counter(nums)
    seen = set()
    orbits = []
    for v in sorted(counts):
        if v in seen:
            continue
        orbit = [v]
        cur = q * v % dd
        while cur != v:
            orbit.append(cur)
            cur = q * cur % dd
        if len({counts[x] for x in orbit}) != 1:
            raise DoesNotSplit("multiplicity is not constant on an orbit")
        seen.update(orbit)
        orbits.extend([tuple(orbit)] * counts[v])
    return orbits


def _drop(scaled, x, s):
    """The step function whose maximum over [0, 1] is the denominator
    exponent, at x/s for a multiple s of D, from the scaled numerators
    (D, D*alpha, D*beta)."""
    dd, a, b = scaled
    k = s // dd
    return (sum((x + n * k) // s for n in a)
            + sum((-x - n * k) // s + (n > 0) for n in b))


@lru_cache(maxsize=None)
def _term_exponents(params, p):
    """Lambda(m) for m < p-1: the exponent of -p in the m-th series term."""
    return tuple(params.term_exponent(p, m) for m in range(p - 1))


def _max_drop(scaled):
    """The denominator exponent of the scaled numerators (D, D*alpha,
    D*beta): the largest drop at the break points -x mod 1 of the floor
    sums and between them, in units of 1/(2D)."""
    dd, a, b = scaled
    pts = sorted({0, 2 * dd} | {2 * (-n % dd) for n in a + b})
    xs = pts + [(u + v) // 2 for u, v in zip(pts, pts[1:])]
    return max(_drop(scaled, x, 2 * dd) for x in xs)


@lru_cache(maxsize=None)
def _denominator_exponent(params):
    """HGParams.denominator_exponent, computed once per parameter pair."""
    return _max_drop(params._scaled)
