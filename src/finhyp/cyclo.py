"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is an integer numerator vector over one positive denominator,
in the power basis 1, z, ..., z^(phi(N)-1), z = exp(2*pi*i/N), reduced
modulo the N-th cyclotomic polynomial Phi_N.  The pair is normalised so
that gcd(den, *num) = 1.  That form is unique, so equality, rationality
and subfield membership are exact integer checks; no floating point is
involved anywhere.

A product is one big-integer multiply (Kronecker substitution): each
vector is packed into an int with slots wide enough that no coefficient of
the convolution overflows its slot, and the signed slots of the product
are read back, by the slot codec of the tallies below.  Any integer
vector, whatever its length, is brought to reduced form by one routine:
fold it modulo x^N - 1, then divide by the monic Phi_N, touching only the
nonzero low terms of Phi_N.  Sums of powers of z (from_powers, embed,
galois, root_of_unity) scatter their exponents into a length-N vector and
reduce it the same way, so no table of powers is kept per conductor.  The
nonnegative tallies behind character sums are multiplied and summed
unreduced, as vectors mod x^N - 1 packed into one int each (_Packed), and
reduced once when read: Phi_N divides x^N - 1.  A read may also trace
over a group of automorphisms z -> z^k, orbit by orbit of the slots.

Binary operations on elements with different conductors silently promote
both sides into Q(zeta_lcm).
"""

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, and_, lshift, mul, rshift, sub

from .errors import (
    DivisionByZero,
    InternalInconsistency,
    LengthMismatch,
    NotCoprime,
    NotDivisor,
)
from .finfield import factorize

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, low degree first, as a tuple of ints.

    With r the product of the primes dividing n, Phi_n(x) = Phi_r(x^(n/r)),
    and Phi_r is the product of (x^d - 1)^mu(r/d) over the divisors d of r:
    multiply by the binomials with mu = 1, then divide exactly by the rest.
    """
    primes = list(factorize(n))
    divisors = [(1, -1 if len(primes) % 2 else 1)]  # (d, mu(r/d)), d | r
    for p in primes:
        divisors += [(d * p, -s) for d, s in divisors]
    poly = [1]
    for d, s in divisors:
        if s == 1:  # times x^d - 1
            poly = [-c for c in poly] + [0] * d
            for i in range(len(poly) - 1, d - 1, -1):
                poly[i] -= poly[i - d]
    for d, s in divisors:
        if s == -1:  # exactly divided by x^d - 1, from the top down
            quot = [0] * len(poly)
            for k in range(len(poly) - 1, d - 1, -1):
                quot[k - d] = poly[k] + quot[k]
            if any(poly[k] + quot[k] for k in range(d)):
                raise InternalInconsistency("non-exact cyclotomic division")
            poly = quot[: len(poly) - d]
    step = n // divisors[-1][0]  # the last divisor is r
    out = [0] * ((len(poly) - 1) * step + 1)
    out[::step] = poly
    return tuple(out)


@lru_cache(maxsize=None)
def _structure(n):
    """(phi(n), the nonzero low terms of Phi_n as (index, coefficient) pairs)."""
    poly = cyclotomic_polynomial(n)
    return len(poly) - 1, tuple((i, c) for i, c in enumerate(poly[:-1]) if c)


def _reduce(n, v):
    """Reduced coordinates of sum v[j] z^j, z = zeta_n, for an int list v.

    Folds v modulo x^n - 1 when it is longer than n, then divides by the
    monic Phi_n from the top down; v may be overwritten.
    """
    d, low = _structure(n)
    if len(v) > n:
        folded = v[:n]
        for j in range(n, len(v)):
            folded[j % n] += v[j]
        v = folded
    for j in range(len(v) - 1, d - 1, -1):
        c = v[j]
        if c:
            top = j - d
            for i, pc in low:
                v[top + i] -= c * pc
    return v[:d]


def _scatter(n, pairs):
    """Reduced coordinates of sum w * z^e over (e, w) pairs, integer w."""
    v = [0] * n
    for e, w in pairs:
        v[e % n] += w
    return _reduce(n, v)


# slot width -> array typecode, to pack and unpack little-endian slots at C speed
_ARRAY_CODES = {array(c).itemsize: c for c in "BHILQ"} if sys.byteorder == "little" else {}
# bytes needed (up to 8) -> slot width: the narrowest array code that holds them
_WIDTHS = tuple(min((w for w in _ARRAY_CODES if w >= k), default=k) for k in range(9))
_WORD = (1 << 64) - 1


def _to_slots(v, width):
    """The int with v[i] in the `width`-byte slot at byte i*width, for
    0 <= v[i] < 2^(8*width).  Slots of other widths than the array codes
    are packed as 8-byte words, one array of words per 8 bytes of the slot
    that hold a set bit, interleaved into the slots by byte lanes."""
    code = _ARRAY_CODES.get(width)
    if code:
        return int.from_bytes(array(code, v).tobytes(), "little")
    out = bytearray(width * len(v))
    top = max(v, default=0).bit_length()
    for at in range(0, (top + 7) // 8, 8):
        words = map(rshift, v, repeat(8 * at)) if at else v
        if top > 8 * at + 64:
            words = map(and_, words, repeat(_WORD))
        words = array("Q", list(words))
        if sys.byteorder == "big":
            words.byteswap()
        raw = words.tobytes()
        for k in range(min(8, width - at)):
            out[at + k :: width] = raw[k::8]
    return int.from_bytes(out, "little")


def _from_slots(value, width, count):
    """The first `count` `width`-byte slots of a nonnegative int, as a list:
    the inverse of _to_slots, by the same 8-byte words."""
    raw, code = value.to_bytes(width * count, "little"), _ARRAY_CODES.get(width)
    if code:
        return memoryview(raw).cast(code).tolist()
    out, zero = [0] * count, bytes(8 * count)
    for at in range(0, width, 8):
        buf = bytearray(zero)
        for k in range(min(8, width - at)):
            buf[k::8] = raw[at + k :: width]
        if buf != zero:
            words = array("Q", buf)
            if sys.byteorder == "big":
                words.byteswap()
            out = list(map(add, out, map(lshift, words, repeat(8 * at))))
    return out


def _convolve(a, b):
    """The integer convolution of two int sequences, by one big-int multiply."""
    ma = max(map(abs, a))
    mb = max(map(abs, b))
    k = len(a) + len(b) - 1
    if not ma or not mb:
        return [0] * k
    # every product coefficient c has |c| <= ma*mb*min(len) < half, so c + half
    # fills its slot without a carry; the inputs are packed with the same offset
    width = _Packed.slot_width(2 * ma * mb * min(len(a), len(b)) + 1)
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * k, "little")  # half per slot
    pa, pb = (_to_slots([x + half for x in v], width) - (offset >> 8 * width * (k - len(v)))
              for v in (a, b))
    return [x - half for x in _from_slots(pa * pb + offset, width, k)]


def _make(conductor, num, den=1):
    """A CycloNum from reduced integer coordinates over den > 0."""
    g = gcd(den, *num)
    out = object.__new__(CycloNum)
    out.conductor = conductor
    if g == 1:
        out.num, out.den = tuple(num), den
    else:
        out.num, out.den = tuple(a // g for a in num), den // g
    return out


class CycloNum:
    """An element of Q(zeta_N): reduced integer coordinates `num` over `den`."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor, coeffs):
        d = _structure(conductor)[0]
        c = [Fraction(x) for x in coeffs]
        if len(c) != d:
            raise LengthMismatch(
                f"need {d} coefficients for conductor {conductor}, got {len(c)}"
            )
        # over the lcm of reduced denominators gcd(den, *num) is already 1
        den = lcm(*(x.denominator for x in c))
        self.conductor = conductor
        self.num = tuple(x.numerator * (den // x.denominator) for x in c)
        self.den = den

    @property
    def coeffs(self):
        """The coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    # ---------------------------------------------------------------- basics

    @staticmethod
    def zero(conductor=1):
        return _make(conductor, (0,) * _structure(conductor)[0])

    @staticmethod
    def one(conductor=1):
        return CycloNum.from_rational(1, conductor)

    @staticmethod
    def from_rational(x, conductor=1):
        x = Fraction(x)
        rest = (0,) * (_structure(conductor)[0] - 1)
        return _make(conductor, (x.numerator,) + rest, x.denominator)

    @staticmethod
    def from_powers(conductor, weights):
        """Sum of weights[j] * z^j over all j, weights indexed mod N.

        Accepts a full list of length N or a {exponent: weight} mapping, with
        int or Fraction weights.  This is the workhorse for assembling
        character sums exactly.
        """
        items = weights.items() if hasattr(weights, "items") else enumerate(weights)
        items = [(j, w) for j, w in items if w]
        den = lcm(*(w.denominator for _, w in items))
        pairs = ((j, w.numerator * (den // w.denominator)) for j, w in items)
        return _make(conductor, _scatter(conductor, pairs), den)

    def is_zero(self):
        return not any(self.num)

    def as_rational(self):
        """The element as a Fraction, or None when it is irrational."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    # ------------------------------------------------------------- promotion

    def embed(self, conductor):
        """Image in Q(zeta_M) for a multiple M of the conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise NotDivisor(f"{self.conductor} does not divide {conductor}")
        step = conductor // self.conductor
        pairs = ((j * step, a) for j, a in enumerate(self.num) if a)
        return _make(conductor, _scatter(conductor, pairs), self.den)

    def _common(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other, 1)
        if not isinstance(other, CycloNum):
            return None, None
        if self.conductor == other.conductor:
            return self, other
        m = lcm(self.conductor, other.conductor)
        return self.embed(m), other.embed(m)

    # ------------------------------------------------------------ arithmetic

    def _combine(self, other, sign):
        """self + sign * other over a common conductor and denominator."""
        a, b = self._common(other)
        if a is None:
            return NotImplemented
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, sign * (a.den // g)
        num = [x * fa + y * fb for x, y in zip(a.num, b.num)]
        return _make(a.conductor, num, a.den * fa)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = [c * other.numerator for c in self.num]
            return _make(self.conductor, num, self.den * other.denominator)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._common(other)
        n = a.conductor
        return _make(n, _reduce(n, _convolve(a.num, b.num)), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        """Exact inverse, computed from the product of Galois conjugates."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        n = self.conductor
        if n <= 2 or not any(self.num[1:]):
            r = self.as_rational()
            if r is not None:
                return CycloNum.from_rational(1 / r, n)
        cof = CycloNum.one(n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                cof = cof * self.galois(k)
        norm = (self * cof).as_rational()
        if norm is None or norm == 0:
            raise InternalInconsistency("field norm must be a nonzero rational")
        return cof * (1 / norm)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero")
            return self * (_ONE / Fraction(other))
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloNum.one(self.conductor)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.as_rational()
            return r is not None and r == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # The normalised trace Tr(x)/phi(N) does not depend on the conductor
        # x is written over, and is x itself for a rational x, so equal
        # elements hash alike and a rational one hashes like Fraction(x).
        # z^j has order m = N/gcd(j, N) and Tr(z^j)/phi(N) = mu(m)/phi(m);
        # mu(m) is minus the coefficient of x^(phi(m)-1) in Phi_m.
        n = self.conductor
        total = _ZERO
        for j, a in enumerate(self.num):
            if a:
                phi_m = cyclotomic_polynomial(n // gcd(j, n))
                total -= Fraction(a * phi_m[-2], len(phi_m) - 1)
        return hash(total / self.den)

    # ---------------------------------------------------------------- galois

    def galois(self, k):
        """The automorphism z -> z^k, k coprime to the conductor."""
        n = self.conductor
        if gcd(k, n) != 1:
            raise NotCoprime(f"{k} is not coprime to {n}")
        pairs = ((j * k, a) for j, a in enumerate(self.num) if a)
        return _make(n, _scatter(n, pairs), self.den)

    def conj(self):
        """Complex conjugation, z -> z^(-1)."""
        if self.conductor <= 2:
            return self
        return self.galois(self.conductor - 1)

    def is_in_subfield(self, conductor):
        """The element of Q(zeta_M), M = conductor, equal to self, or None.

        Any M is allowed: Q(zeta_N) meets Q(zeta_M) in Q(zeta_g), g = gcd(N, M).
        When N divides M that is all of Q(zeta_N): the answer is the
        embedding.  Otherwise split N = a*b with a the part of N on the
        primes of g, so that b is coprime to a and z_N = z_a^s * z_b^r for
        s = 1/b mod a, r = 1/a mod b.
        In reduced coordinates over the basis z_a^i * z_b^j the element lies
        in Q(zeta_a) iff every row j >= 1 vanishes; as Phi_a(x) =
        Phi_g(x^(a/g)), row 0 lies in Q(zeta_g) iff it vanishes off the
        multiples of a/g, and those entries are its coordinates there.
        """
        n = self.conductor
        if conductor % n == 0:
            return self.embed(conductor)
        g = a = gcd(n, conductor)
        while (c := gcd(n // a, a)) > 1:
            a *= c
        b = n // a
        s, r = pow(b, -1, a), pow(a, -1, b)
        cols = [[0] * b for _ in range(a)]
        for e, x in enumerate(self.num):
            if x:
                cols[e * s % a][e * r % b] += x
        cols = [_reduce(b, col) for col in cols]
        rows = [_reduce(a, list(row)) for row in zip(*cols)]
        step = a // g
        if any(map(any, rows[1:])) or any(x for i, x in enumerate(rows[0]) if i % step):
            return None
        return _make(g, rows[0][::step], self.den).embed(conductor)

    # ------------------------------------------------------------------- io

    def to_json(self):
        return {
            "conductor": self.conductor,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @staticmethod
    def from_json(obj):
        return CycloNum(obj["conductor"], [Fraction(s) for s in obj["coeffs"]])

    def __repr__(self):
        r = self.as_rational()
        if r is not None:
            return str(r)
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{self.conductor}^{j}")
            else:
                parts.append(f"({c})*z{self.conductor}^{j}")
        return " + ".join(parts) if parts else "0"


def root_of_unity(conductor, k=1):
    """zeta_N^k as a CycloNum."""
    return _make(conductor, _scatter(conductor, [(k, 1)]))


# --------------------------------------------------------- packed tallies


@lru_cache(maxsize=None)
def _slot_orbits(n, group):
    """The orbits {j k mod n : k in group} of the slots j < n under a group
    of units mod n: per slot the index of its orbit, and per orbit |group|
    over its size."""
    label, scale = [None] * n, []
    for j in range(n):
        if label[j] is None:
            orbit = {j * k % n for k in group}
            for i in orbit:
                label[i] = len(scale)
            scale.append(len(group) // len(orbit))
    return label, scale


class _Packed:
    """A nonnegative integer vector mod x^n - 1 as one int, coefficient j in
    the `width`-byte slot at byte j*width; each result below is folded once,
    slots j >= n added onto j - n.  The width holds the caller's bound on
    every coefficient, which the exactly tracked coefficient sum `total`
    must not exceed, so no slot overflows."""

    __slots__ = ("n", "bound", "width", "value", "total")

    def __init__(self, n, bound, width, value, total):
        if total > bound:
            raise InternalInconsistency(f"coefficient sum {total} exceeds the bound {bound}")
        bits = 8 * width * n  # every value below has fewer than 2n slots
        high = value >> bits
        if high:
            value = (value & ((1 << bits) - 1)) + high
        self.n, self.bound, self.width, self.value, self.total = n, bound, width, value, total

    @staticmethod
    def slot_width(bound):
        """The bytes per slot of a vector whose coefficients are at most bound."""
        need = (bound.bit_length() + 7) // 8 or 1
        return _WIDTHS[need] if need < len(_WIDTHS) else need

    @staticmethod
    def tally(n, bound, weights):
        """The sum of w * x^e over the (e, w) pairs of weights, w >= 0."""
        v = [0] * n
        for e, w in weights:
            v[e % n] += w
        width = _Packed.slot_width(bound)
        return _Packed(n, bound, width, _to_slots(v, width), sum(v))

    def times(self, terms):
        """The product with the sum of w * x^e over the (e, w) items of terms,
        w >= 1: one shift-add per term, by Horner's rule from the largest e,
        and one fold."""
        bits, v, terms = 8 * self.width, self.value, sorted(terms, reverse=True)
        value, last = 0, terms[0][0]
        for e, w in terms:
            value = (value << bits * (last - e)) + (v if w == 1 else v * w)
            last = e
        total = self.total * sum(w for _, w in terms)
        return _Packed(self.n, self.bound, self.width, value << bits * last, total)

    @staticmethod
    def rotated_sum(rows, shifts, weights=None):
        """The sum of weights[i] * rows[i] * x^shifts[i], every weight 1 if
        none are given: one shift per row."""
        n, bits = rows[0].n, 8 * rows[0].width
        weights = weights or [1] * len(rows)
        value = sum(r.value * w << (bits * (s % n)) for r, s, w in zip(rows, shifts, weights))
        total = sum(r.total * w for r, w in zip(rows, weights))
        return _Packed(n, rows[0].bound, rows[0].width, value, total)

    def cut(self, start, step, n, spacing, shift):
        """The vector at length n whose slot shift + i*spacing (mod n) holds
        slot start + i*step (mod self.n) of self, for i < n/spacing: one
        strided copy of whole slots, or one per byte lane where slots are
        wider than 8 bytes."""
        w, count = self.width, n // spacing
        code = _ARRAY_CODES.get(w)
        unit = 1 if code else w  # view items per slot
        raw = self.value.to_bytes(w * self.n, "little")
        src = memoryview(raw + raw).cast(code or "B")  # read cyclically
        turn, first = divmod(shift % n, spacing)
        buf = bytearray(w * n)
        dst, at, total = memoryview(buf).cast(code or "B"), (start - turn * step) % self.n, 0
        for k in range(unit):
            seq = src[unit * at + k :: unit * step][:count]
            dst[unit * first + k :: unit * spacing] = seq
            total += sum(seq) << 8 * k
        return _Packed(n, self.bound, w, int.from_bytes(buf, "little"), total)

    def read(self, minus=None, group=(1,)):
        """The element sum v[j] zeta_n^j of Q(zeta_n), less the one that minus
        holds if given, traced over group, a group of units mod n: the sum of
        its images under zeta_n -> zeta_n^k, k in group.  Slot j of that sum
        is |group| / |[j]| times the sum of v over the orbit [j] of j (see
        _slot_orbits), so the trace is one pass over the slots and moves
        none; one unpack per vector, one reduction."""
        v = _from_slots(self.value, self.width, self.n)
        if minus is not None and minus.value:
            v = list(map(sub, v, _from_slots(minus.value, minus.width, minus.n)))
        if len(group) > 1:
            label, scale = _slot_orbits(self.n, group)
            sums = [0] * len(scale)
            for i, x in zip(label, v):
                sums[i] += x
            sums = list(map(mul, sums, scale))
            v = [sums[i] for i in label]
        return _make(self.n, _reduce(self.n, v))
