"""Explicit finite fields F_{p^f} with full discrete-log tables.

Each field fixes a reproducible presentation: the modulus is the
lexicographically smallest monic irreducible of degree f over F_p
(coefficient vectors compared constant term first), found by trial
division by the monic polynomials of degree at most f/2, and the
generator is the lexicographically smallest unit of full order q-1.
Elements are coefficient tuples of length f over F_p.

The whole unit group is enumerated at construction so that dlog is a
table lookup; make_field therefore refuses fields above MAX_FIELD_SIZE
(2**16), a fixed bound.
"""

from functools import lru_cache
from itertools import product
from math import gcd

from .errors import (
    FieldTooLarge,
    LengthMismatch,
    MalformedValue,
    NotPrime,
    NotSubfield,
    ZeroElement,
)

MAX_FIELD_SIZE = 2**16

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond the field size bound."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n):
    """Prime factorization by trial division; {prime: exponent}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q):
    """(p, f) with q = p^f; a q above MAX_FIELD_SIZE is refused with
    FieldTooLarge before trial division, which would not end for it."""
    if q > MAX_FIELD_SIZE:
        raise FieldTooLarge(f"q = {q} exceeds the bound {MAX_FIELD_SIZE}")
    fac = factorize(q)
    if len(fac) != 1:
        raise NotPrime(f"{q} is not a prime power")
    ((p, f),) = fac.items()
    return p, f


# ---------------------------------------------------------- F_p[x] helpers

def _pmul(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] = (out[i + j] + av * bv) % p
    return _prem(out, mod, p)


def _prem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    a = a[:dm]
    a += [0] * (dm - len(a))
    return a


def _ppow(a, e, mod, p):
    out = [1] + [0] * (len(mod) - 2)
    base = _prem(a, mod, p)
    while e:
        if e & 1:
            out = _pmul(out, base, mod, p)
        base = _pmul(base, base, mod, p)
        e >>= 1
    return out


def _smallest_irreducible(p, f):
    """The first monic polynomial of degree f, in lexicographic order with
    the constant term first, that no monic polynomial of degree 1 to f/2
    divides; x itself when f = 1."""
    if f == 1:
        return (0, 1)
    divisors = [list(v) + [1] for d in range(1, f // 2 + 1)
                for v in product(range(p), repeat=d)]
    for vec in product(range(p), repeat=f):
        poly = list(vec) + [1]
        # a zero constant term means x divides poly, so it is reducible
        if poly[0] and all(any(_prem(poly, g, p)) for g in divisors):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")


class FqField:
    """The field with p^f elements; construct through make_field."""

    def __init__(self, p, f, _token=None):
        if _token is not _TOKEN:
            raise TypeError("use make_field(p, f)")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = _smallest_irreducible(p, f)
        self._build_tables()

    def _build_tables(self):
        p, f, q = self.p, self.f, self.q
        mod = list(self.modulus)
        # basis traces: trace of x^i is the sum of its Frobenius orbit
        basis_traces = []
        for i in range(f):
            acc = [0] * f
            y = [0] * i + [1] + [0] * (f - i - 1)
            for _ in range(f):
                for k in range(f):
                    acc[k] = (acc[k] + y[k]) % p
                y = _ppow(y, p, mod, p)
            if any(acc[1:]):
                raise AssertionError("trace left the prime field")
            basis_traces.append(acc[0])
        self._basis_traces = tuple(basis_traces)

        # generator: lexicographically smallest unit of order q-1
        order_factors = list(factorize(q - 1))
        gen = None
        for vec in product(range(p), repeat=f):
            if not any(vec):
                continue
            ok = True
            for r in order_factors:
                power = _ppow(list(vec), (q - 1) // r, mod, p)
                if power == [1] + [0] * (f - 1):
                    ok = False
                    break
            if ok:
                gen = vec
                break
        self._gen_vec = gen

        units = [None] * (q - 1)
        dlog = {}
        cur = [1] + [0] * (f - 1)
        for j in range(q - 1):
            t = tuple(cur)
            units[j] = t
            dlog[t] = j
            cur = _pmul(cur, list(gen), mod, p)
        if tuple(cur) != units[0]:
            raise AssertionError("generator order is not q-1")
        self._units = units
        self._dlog = dlog
        self._trace_of_unit = tuple(
            sum(c * t for c, t in zip(u, basis_traces)) % p for u in units
        )
        self._minus_one_dlog = dlog[self.neg_vec(units[0])]

    # ------------------------------------------------------------ vector ops

    def neg_vec(self, v):
        return tuple((-c) % self.p for c in v)

    def add_vec(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul_vec(self, a, b):
        if not any(a) or not any(b):
            return (0,) * self.f
        j = (self._dlog[a] + self._dlog[b]) % (self.q - 1)
        return self._units[j]

    # -------------------------------------------------------------- elements

    def elem(self, value):
        """An element from a coefficient iterable or an integer code.

        Integer codes are base-p digit vectors: code = sum(c_i * p^i).
        """
        if isinstance(value, FqElem):
            if value.field is not self:
                raise MalformedValue("element belongs to another field")
            return value
        if isinstance(value, int):
            digits = []
            v = value % self.q
            for _ in range(self.f):
                v, r = divmod(v, self.p)
                digits.append(r)
            return FqElem(self, tuple(digits))
        c = [x % self.p for x in value]
        if len(c) != self.f:
            raise MalformedValue(f"need {self.f} coefficients")
        return FqElem(self, tuple(c))

    def zero(self):
        return FqElem(self, (0,) * self.f)

    def one(self):
        return FqElem(self, self._units[0])

    @property
    def generator(self):
        return FqElem(self, self._gen_vec)

    def nth_generator(self, i):
        """The i-th smallest generator of the unit group (0-based, lex order)."""
        seen = 0
        for vec in product(range(self.p), repeat=self.f):
            if not any(vec):
                continue
            j = self._dlog[vec]
            if gcd(j, self.q - 1) == 1:
                if seen == i:
                    return FqElem(self, vec)
                seen += 1
        raise LengthMismatch("fewer generators than requested")

    def unit(self, j):
        """The unit g^j."""
        return FqElem(self, self._units[j % (self.q - 1)])

    def units(self):
        for u in self._units:
            yield FqElem(self, u)

    def dlog(self, x):
        x = self.elem(x)
        if not any(x.coeffs):
            raise ZeroElement("dlog of zero")
        return self._dlog[x.coeffs]

    def trace_int(self, x):
        """Absolute trace to F_p as a plain integer in [0, p)."""
        x = self.elem(x)
        return sum(c * t for c, t in zip(x.coeffs, self._basis_traces)) % self.p

    def trace_of_unit(self, j):
        """Absolute trace of g^j, table lookup."""
        return self._trace_of_unit[j % (self.q - 1)]

    @property
    def minus_one_dlog(self):
        return self._minus_one_dlog

    # ------------------------------------------------------------- subfields

    def subfield(self, e):
        if self.f % e != 0:
            raise NotSubfield(f"F_{self.p}^{e} is not a subfield of F_{self.p}^{self.f}")
        return make_field(self.p, e)

    @lru_cache(maxsize=None)
    def _embedding_data(self, e):
        """(sub, root powers, s_prime) for the subfield of degree e.

        The embedding sends the subfield's x to the lexicographically
        smallest root of the subfield modulus here; s_prime records where
        the subfield generator lands inside the unit group.
        """
        sub = self.subfield(e)
        poly = sub.modulus
        root_vec = None
        for vec in product(range(self.p), repeat=self.f):
            acc = (0,) * self.f
            for c in reversed(poly):
                acc = self.mul_vec(acc, vec)
                if c:
                    acc = self.add_vec(acc, self.elem(c).coeffs)
            if not any(acc):
                root_vec = vec
                break
        if root_vec is None:
            raise AssertionError("subfield modulus has no root")
        powers = [self._units[0]]
        for _ in range(e - 1):
            powers.append(self.mul_vec(powers[-1], root_vec))
        img = (0,) * self.f
        for c, pw in zip(sub._gen_vec, powers):
            if c:
                img = self.add_vec(img, self.mul_vec(self.elem(c).coeffs, pw))
        t = (self.q - 1) // (sub.q - 1)
        s = self._dlog[img]
        if s % t:
            raise AssertionError("embedded generator has wrong order")
        s_prime = s // t
        return sub, powers, s_prime

    def embed_from(self, x):
        """Image here of an element of a subfield."""
        sub_f = x.field.f
        sub, powers, _ = self._embedding_data(sub_f)
        if x.field is not sub:
            raise NotSubfield("element is not from the canonical subfield")
        acc = (0,) * self.f
        for c, pw in zip(x.coeffs, powers):
            if c:
                acc = self.add_vec(acc, self.mul_vec(self.elem(c).coeffs, pw))
        return FqElem(self, acc)

    def _pull_back_unit(self, vec, e):
        sub, _, s_prime = self._embedding_data(e)
        t = (self.q - 1) // (sub.q - 1)
        j = self._dlog[vec]
        if j % t:
            raise NotSubfield("unit is not in the subfield")
        jj = (j // t) * pow(s_prime, -1, sub.q - 1) % (sub.q - 1)
        return FqElem(sub, sub._units[jj])

    def trace_to(self, x, e=1):
        """Trace down to the subfield of degree e, as an element there."""
        x = self.elem(x)
        sub = self.subfield(e)
        if e == self.f:
            return x
        acc = (0,) * self.f
        for _ in range(self.f // e):
            acc = self.add_vec(acc, x.coeffs)
            x = self.frobenius(x, e)
        if not any(acc):
            return sub.zero()
        if e == 1:
            return sub.elem([acc[0]])
        return self._pull_back_unit(acc, e)

    def norm_to(self, x, e=1):
        """Norm down to the subfield of degree e."""
        x = self.elem(x)
        sub = self.subfield(e)
        if e == self.f:
            return x
        if not any(x.coeffs):
            return sub.zero()
        t = (self.q - 1) // (sub.q - 1)
        j = self._dlog[x.coeffs] * t % (self.q - 1)
        if e == 1:
            vec = self._units[j]
            return sub.elem([vec[0]])
        return self._pull_back_unit(self._units[j], e)

    def norm_unit_dlog(self, e=1):
        """a with norm_to(g^j, e) = h^(j*a), h the subfield generator."""
        sub, _, s_prime = self._embedding_data(e)
        return pow(s_prime, -1, sub.q - 1)

    def frobenius(self, x, i=1):
        x = self.elem(x)
        if not any(x.coeffs):
            return x
        j = self._dlog[x.coeffs] * pow(self.p, i, self.q - 1) % (self.q - 1)
        return FqElem(self, self._units[j])

    # ------------------------------------------------------------------- io

    def describe(self):
        return {"p": self.p, "f": self.f, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"


_TOKEN = object()


@lru_cache(maxsize=None)
def _make_field_cached(p, f):
    return FqField(p, f, _token=_TOKEN)


def make_field(p, f=1):
    """The finite field with p^f elements, deterministic presentation."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if f < 1:
        raise MalformedValue(f"extension degree must be positive, not {f}")
    if p**f > MAX_FIELD_SIZE:
        raise FieldTooLarge(f"p^f = {p**f} exceeds the bound {MAX_FIELD_SIZE}")
    return _make_field_cached(p, f)


class FqElem:
    """An element of an FqField; immutable coefficient tuple.  It equals an
    int only at its exact code, to_int(), with no reduction mod q, and
    hashes like that int."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self):
        return not any(self.coeffs)

    @property
    def dlog(self):
        return self.field.dlog(self)

    def __add__(self, other):
        other = self.field.elem(other)
        return FqElem(self.field, self.field.add_vec(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return FqElem(self.field, self.field.neg_vec(self.coeffs))

    def __sub__(self, other):
        other = self.field.elem(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self.field.elem(other)
        return FqElem(self.field, self.field.mul_vec(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.field.elem(other)
        return self * other**-1

    def __pow__(self, k):
        if self.is_zero():
            if k < 0:
                raise ZeroElement("inverse of zero")
            return self.field.one() if k == 0 else self
        f = self.field
        j = f._dlog[self.coeffs] * k % (f.q - 1)
        return FqElem(f, f._units[j])

    def __eq__(self, other):
        if isinstance(other, int):
            return self.to_int() == other
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.to_int())

    def to_int(self):
        """Integer code: sum of c_i * p^i."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.field.p + c
        return out

    def __repr__(self):
        if self.field.f == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts) if parts else "0"
