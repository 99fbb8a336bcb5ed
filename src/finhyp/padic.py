"""Fixed-precision p-adic arithmetic, Morita's p-adic Gamma function, and
the p-adic hypergeometric sum evaluated along two independent routes.

A PadicNum is p^v times a unit known modulo p^N.  Addition tracks the
worst-case precision of the result; nothing is ever reported beyond what
the inputs support.

Gamma_p of a p-adic integer x is (-1)^r * prod of j < r, p not dividing
j, modulo p^N, where r is the representative of x in [1, p^N].  The
product is evaluated from doubling blocks (see _gamma_compute), cached with
the values per (p, N); for odd p, one evaluation serves both values of a
reflection pair {x, 1 - x} (see _gamma_fill).  Before any work, a request
for k uncached values is priced at W = pN + N^3 b + k (p + N^2 b),
b = p.bit_length() (see _gamma_work), and refused with BoundExceeded when W
exceeds max_pn (default 10^7).  One unit of W took 1.1-4.9 * 10^-7 s
(2-core Xeon, Python 3.11), so the default admits about 1-5 s of work.  A
p-adic series is priced at a lower bound of its count before its arguments
are built (see _check_series_cap).

Both series routes work on integers mod p^N: the Gamma_p arguments are
residues read off the scaled numerators D*alpha_i and D*beta_j, each row is
one integer unit (and one pi-exponent on the orbit route), and a value is
one integer sum, made a PadicNum only when it is returned.  The series'
p-powers, signs and 1/(1 - p) are folded into its cached terms, so a
list of t costs one Teichmuller lift and one Horner pass per value.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .cyclo import CycloNum
from .errors import (
    BadPrecision,
    BadPrime,
    BoundExceeded,
    ConductorNotDividing,
    DivisionByZero,
    ExponentNotIntegral,
    FieldMismatch,
    InternalInconsistency,
    NotPAdicInteger,
    NotPrime,
    ZeroArgument,
    ZeroElement,
)
from .finfield import is_prime, make_field
from .params import _term_exponents

MAX_PN_DEFAULT = 10**7


def _vp(n, p):
    if n == 0:
        raise ZeroElement("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicNum:
    """p^v * (u + O(p^prec)); u == 0 with prec == 0 encodes O(p^v)."""

    __slots__ = ("p", "v", "u", "prec", "exact")

    def __init__(self, p, v, u, prec, exact=False):
        self.p = p
        if exact:
            self.v, self.u, self.prec, self.exact = 0, 0, 0, True
            return
        self.exact = False
        mod = p**prec
        u %= mod if prec > 0 else 1
        if u == 0:
            self.v, self.u, self.prec = v + prec, 0, 0
            return
        w = _vp(u, p)
        self.v = v + w
        self.prec = prec - w
        self.u = (u // p**w) % (p**self.prec)
        if self.u == 0:  # all remaining digits were zero
            self.v, self.u, self.prec = v + prec, 0, 0

    # ----------------------------------------------------------- constructors

    @classmethod
    def exact_zero(cls, p):
        return cls(p, 0, 0, 0, exact=True)

    @classmethod
    def from_rational(cls, x, p, prec):
        x = Fraction(x)
        if x == 0:
            return cls.exact_zero(p)
        num, den = x.numerator, x.denominator
        vn = _vp(num, p) if num % p == 0 else 0
        vd = _vp(den, p) if den % p == 0 else 0
        num //= p**vn
        den //= p**vd
        mod = p**prec
        u = num * pow(den, -1, mod) % mod
        return cls(p, vn - vd, u, prec)

    # ------------------------------------------------------------- structure

    @property
    def abs_prec(self):
        """The value is known modulo p to this power."""
        if self.exact:
            return math.inf
        return self.v + self.prec

    def is_exact_zero(self):
        return self.exact

    def valuation_lower_bound(self):
        if self.exact:
            return math.inf
        return self.v

    @property
    def valuation(self):
        """Exact valuation; None when only a lower bound is known."""
        if self.exact or self.u == 0:
            return None
        return self.v

    def is_zero_mod(self, k):
        """Provably divisible by p^k at the tracked precision."""
        if self.exact:
            return True
        if self.u != 0:
            return self.v >= k
        if self.v >= k:
            return True
        raise InternalInconsistency(
            f"need precision O(p^{k}) but only O(p^{self.v}) is known"
        )

    def eq_mod(self, other, k):
        return (self - other).is_zero_mod(k)

    # ------------------------------------------------------------ arithmetic

    def _coerce(self, other):
        if isinstance(other, PadicNum):
            if other.p != self.p:
                raise FieldMismatch("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            prec = self.prec if not self.exact else 1
            return PadicNum.from_rational(other, self.p, max(prec, 1))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.exact:
            return other
        if other.exact:
            return self
        p = self.p
        target = min(self.abs_prec, other.abs_prec)
        vm = min(self.v, other.v)
        k = target - vm
        if k <= 0:
            return PadicNum(p, target, 0, 0)
        mod = p**k
        s = (self.u * p ** (self.v - vm) + other.u * p ** (other.v - vm)) % mod
        return PadicNum(p, vm, s, k)

    __radd__ = __add__

    def __neg__(self):
        if self.exact or self.u == 0:
            return self
        return PadicNum(self.p, self.v, -self.u, self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.exact or other.exact:
            return PadicNum.exact_zero(self.p)
        if self.u == 0 or other.u == 0:
            # O(p^a) * p^v(u + ...) = O(p^(a + v))
            return PadicNum(self.p, self.v + other.v, 0, 0)
        prec = min(self.prec, other.prec)
        return PadicNum(self.p, self.v + other.v, self.u * other.u, prec)

    __rmul__ = __mul__

    def inverse(self):
        if self.exact or self.u == 0:
            raise DivisionByZero("inverse of a (possible) zero")
        mod = self.p**self.prec
        return PadicNum(self.p, -self.v, pow(self.u, -1, mod), self.prec)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = PadicNum(self.p, 0, 1, self.prec if not self.exact else 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.exact and other.exact:
            return True
        try:
            return (self - other).is_zero_mod(min(self.abs_prec, other.abs_prec))
        except InternalInconsistency:
            return False

    def __hash__(self):
        raise TypeError("PadicNum carries precision; not hashable")

    # ------------------------------------------------------------------- io

    def centered_lift(self):
        """The integer in (-p^A/2, p^A/2] congruent to the value mod p^A."""
        if self.exact:
            return 0
        if self.u == 0:
            return 0
        if self.v < 0:
            raise NotPAdicInteger("negative valuation has no integer lift")
        a = self.abs_prec
        mod = self.p**a
        x = self.u * self.p**self.v % mod
        return x - mod if x > mod // 2 else x

    def digits(self):
        """Unit digits base p, least significant first."""
        out = []
        u = self.u
        for _ in range(self.prec):
            u, r = divmod(u, self.p)
            out.append(r)
        return out

    def to_json(self):
        if self.exact:
            return {"p": self.p, "exact_zero": True}
        return {
            "p": self.p,
            "valuation": self.v if self.u else None,
            "min_valuation": self.v,
            "prec": self.prec,
            "digits": self.digits(),
        }

    @staticmethod
    def from_json(obj):
        p = obj["p"]
        if obj.get("exact_zero"):
            return PadicNum.exact_zero(p)
        if not obj["digits"]:
            return PadicNum(p, obj["min_valuation"], 0, 0)
        u = 0
        for d in reversed(obj["digits"]):
            u = u * p + d
        return PadicNum(p, obj["min_valuation"], u, obj["prec"])

    def __repr__(self):
        if self.exact:
            return "0 (exact)"
        if self.u == 0:
            return f"O({self.p}^{self.v})"
        terms = []
        for i, d in enumerate(self.digits()):
            if d:
                e = i + self.v
                if e == 0:
                    terms.append(f"{d}")
                elif e == 1:
                    terms.append(f"{d}*{self.p}")
                else:
                    terms.append(f"{d}*{self.p}^{e}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O({self.p}^{self.abs_prec})"


def teichmuller(a, p, prec):
    """The (p-1)-st root of unity in Z_p congruent to a mod p."""
    if isinstance(a, int):
        x = a % p
    else:
        x = a.coeffs[0] % p  # element of F_p
    if x == 0:
        raise ZeroElement("no Teichmuller lift of zero")
    return PadicNum(p, 0, _teichmuller_int(x, p, prec), prec)


def _teichmuller_int(x, p, prec):
    """teichmuller of a unit x mod p, as an integer mod p^prec."""
    mod = p**prec
    x %= mod
    for _ in range(prec + 1):
        nxt = pow(x, p, mod)
        if nxt == x:
            break
        x = nxt
    return x


# --------------------------------------------------------------- Gamma_p


_gamma_cache = {}
_gamma_blocks = {}


def _check_prec(prec):
    if not isinstance(prec, int) or prec < 1:
        raise BadPrecision(f"p-adic precision must be a positive integer, not {prec!r}")


def _pack(a, w):
    """The integer with a's entries in consecutive w-bit slots, a[0] lowest."""
    v = 0
    for x in reversed(a):
        v = v << w | x
    return v


def _mul_trunc(a, b, m):
    """a * b truncated to the length of a, coefficients mod m, from one
    product of packed integers: every coefficient of the product of two
    lists of n entries in [0, m) is at most n (m-1)^2, below 2^w."""
    n = len(a)
    w = (n * (m - 1) ** 2).bit_length() + 1
    v = _pack(a, w) * _pack(b, w)
    mask = (1 << w) - 1
    return [(v >> w * i & mask) % m for i in range(n)]


def _shift(g, c, m):
    """g(y + c), coefficients mod m (Taylor shift by synthetic division)."""
    g = list(g)
    n = len(g)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            g[j] = (g[j] + c * g[j + 1]) % m
    return g


def _blocks(p, n, count):
    """The first count doubling blocks B_j(y) = prod_{i < 2^j} f(y + ip),
    f(y) = prod_{t<p}(y + t), as coefficient lists of degree < n mod p^n.

    B_0 = f and B_j+1(y) = B_j(y) B_j(y + 2^j p).  Every shift is by a
    multiple of p, so the dropped terms reach the coefficient of y^i only in
    multiples of p^(n-i): the kept coefficient of y^i is right mod p^(n-i),
    which is all an evaluation at a multiple of p needs.
    """
    m = p**n
    blocks = _gamma_blocks.get((p, n))
    if blocks is None:
        f = [1] + [0] * (n - 1)
        for t in range(1, p):
            f = [(f[0] * t) % m] + [(f[i] * t + f[i - 1]) % m for i in range(1, n)]
        blocks = _gamma_blocks[(p, n)] = [f]
    while len(blocks) < count:
        b = blocks[-1]
        blocks.append(_mul_trunc(b, _shift(b, p << (len(blocks) - 1), m), m))
    return blocks


def _gamma_compute(r, p, n):
    """(-1)^r * prod of j in [1, r) with p not dividing j, modulo p^n.

    With r - 1 = kp + s the product is prod_{i<k} f(ip) * prod_{t<=s}(kp + t).
    The first factor splits along the bits of k into runs of 2^j consecutive
    i, each a block B_j evaluated at ap, where a is k with bits j and up
    cleared.
    """
    m = p**n
    k, s = divmod(r - 1, p)
    blocks = _blocks(p, n, k.bit_length())
    prod = 1
    for j in range(k.bit_length()):
        if k >> j & 1:
            c = (k & ((1 << j) - 1)) * p % m
            v = 0
            for coeff in reversed(blocks[j]):
                v = (v * c + coeff) % m
            prod = prod * v % m
    for t in range(1, s + 1):
        prod = prod * (k * p + t) % m
    return (m - prod) % m if r & 1 else prod


def _gamma_work(p, n, count):
    """The cost W of count uncached Gamma_p values mod p^n, blocks included:
    pn to build f, N^3 b for the doubling blocks (about N b blocks of N^2
    steps) and, per value, p for the tail loop and N^2 b for the Horner
    evaluations, b = p.bit_length().  Timed cold at the argument -1 (all bits
    of k set, the longest tail): 1.0 ms at 13^9 (W = 3370), 19 ms at 101^20,
    57 ms at 65521^1, 0.48 s at 3^100, 0.90 s at 1000003^1, 1.8 s at
    1000003^3, 1.7 s at 2^200 (W = 1.6 * 10^7): 1.1-4.9 * 10^-7 s a unit.

    For odd p the two values of a reflection pair {x, 1 - x} in one batch
    share one evaluation (see _gamma_fill), but count is every uncached
    value: W is an upper bound, and the cap refuses the same requests."""
    b = p.bit_length()
    return p * n + n**3 * b + count * (p + n * n * b)


def _check_gamma_cap(p, prec, count, max_pn):
    """Raise BoundExceeded if count uncached Gamma_p values mod p^prec cost
    more than the cap."""
    cap = max_pn if max_pn is not None else MAX_PN_DEFAULT
    work = _gamma_work(p, prec, count)
    if work > cap:
        raise BoundExceeded(
            f"{count} Gamma_p values mod {p}^{prec} cost W = {work}, "
            f"over the cap {cap}; raise max_pn to allow it"
        )


def _check_series_cap(p, prec, max_pn):
    """Refuse a p-adic series over the cap before its arguments are built.

    Either route evaluates the p-1 arguments a + m/(p-1), mod 1, of its
    first alpha a.  Their differences are k/(p-1) with 0 < |k| < p-1, so they
    are distinct mod p^prec, and at least p-1 minus the cached count of them
    are new: a lower bound on the work the route will be priced at.
    """
    _check_prec(prec)
    _check_gamma_cap(p, prec, max(0, p - 1 - len(_gamma_cache.get((p, prec), ()))), max_pn)


def _gamma_fill(p, prec, residues, max_pn):
    """Compute every uncached residue of the (p, prec) cache, after one check
    of their work estimate against the cap.

    For odd p, Gamma_p(x) Gamma_p(1 - x) = (-1)^l, l in [1, p] the
    representative of x mod p: a residue r whose partner s = 1 - r is cached,
    or computed earlier in the batch, is (-1)^l / Gamma_p(s), so each pair
    {x, 1 - x} of a batch costs one evaluation.  The cap still prices every
    uncached residue, an upper bound on the work.
    """
    cache = _gamma_cache.get((p, prec), {})
    todo = {r for r in residues if r not in cache}
    if not todo:
        return cache
    _check_gamma_cap(p, prec, len(todo), max_pn)
    cache = _gamma_cache.setdefault((p, prec), cache)
    m = p**prec
    for r in todo:
        s = (1 - r) % m or m
        if p == 2 or s == r or s not in cache:
            cache[r] = _gamma_compute(r, p, prec)
        else:
            inv = pow(cache[s], -1, m)
            cache[r] = m - inv if (r % p or p) & 1 else inv
    return cache


def _gamma_residue(x, p, mod):
    """Representative in [1, mod], mod = p^N, of a p-adic integer argument.
    An int is its own residue: Gamma_p mod p^N depends only on x mod p^N."""
    if isinstance(x, int):
        r = x % mod
    elif isinstance(x, PadicNum):
        if x.exact:
            r = 0
        else:
            if x.v < 0:
                raise NotPAdicInteger("argument has negative valuation")
            r = x.u * p**x.v % mod
    else:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        if x.denominator % p == 0:
            raise NotPAdicInteger(f"denominator of {x} is divisible by {p}")
        r = x.numerator * pow(x.denominator, -1, mod) % mod
    return r if r else mod


def prefetch_gamma_p(args, p, prec, max_pn=None):
    """Gamma_p of each argument as a unit integer mod p^prec.  The values
    not yet cached are computed together, after one check of the cap."""
    _check_prec(prec)
    mod = p**prec
    rs = [_gamma_residue(x, p, mod) for x in args]
    cache = _gamma_fill(p, prec, rs, max_pn)
    return [cache[r] for r in rs]


def gamma_p(x, p, prec, max_pn=None):
    """Morita's p-adic Gamma function modulo p^prec."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _check_prec(prec)
    r = _gamma_residue(x, p, p**prec)
    return PadicNum(p, 0, _gamma_fill(p, prec, [r], max_pn)[r], prec)


# ------------------------------------------------------------ Gauss sums


class PiExp:
    """A unit of Z_p times pi^e, pi^(p-1) = -p, with e an integer (an
    integral Fraction is accepted; any other exponent is refused)."""

    __slots__ = ("p", "prec", "e", "u")

    def __init__(self, p, prec, e, u):
        self.p = p
        self.prec = prec
        self.e = int(e)
        if self.e != e:
            raise ExponentNotIntegral(f"pi-exponent {e} is not an integer")
        mod = p**prec
        self.u = u % mod
        if self.u % p == 0:
            raise InternalInconsistency("PiExp mantissa must be a unit")

    def __mul__(self, other):
        if not isinstance(other, PiExp) or other.p != self.p:
            return NotImplemented
        prec = min(self.prec, other.prec)
        return PiExp(self.p, prec, self.e + other.e, self.u * other.u)

    def __truediv__(self, other):
        if not isinstance(other, PiExp) or other.p != self.p:
            return NotImplemented
        prec = min(self.prec, other.prec)
        mod = self.p**prec
        return PiExp(self.p, prec, self.e - other.e, self.u * pow(other.u, -1, mod))

    def to_padic(self):
        """Convert using pi^(p-1) = -p; requires an integral power of -p."""
        k, rest = divmod(self.e, self.p - 1)
        if rest:
            raise ExponentNotIntegral(
                f"pi-exponent {self.e} is not an integer multiple of {self.p - 1}"
            )
        sign = -1 if k & 1 else 1
        return PadicNum(self.p, k, sign * self.u, self.prec)

    def __repr__(self):
        return f"pi^({self.e}) * ({self.u} mod {self.p}^{self.prec})"


def _gauss_orbits(p, f, ms, mod):
    """Each Gauss sum over F_{p^f} at an exponent m in ms as its pi-exponent
    and its Gamma_p arguments: the numerators p^i m mod q-1, i < f, of the
    Frobenius orbit {p^i m/(q-1)} give the arguments as residues mod p^N,
    and (p-1) times their sum over q-1, the base-p digit sum of m mod q-1."""
    qbar = p**f - 1
    inv = pow(qbar, -1, mod)
    out = []
    for m in ms:
        nums = [p**i * m % qbar for i in range(f)]
        out.append(((p - 1) * sum(nums) // qbar, [n * inv % mod for n in nums]))
    return out


def gauss_sum_padic(p, f, m, prec, max_pn=None):
    """The Gauss sum over F_{p^f} with character exponent m, evaluated
    p-adically: minus the product over the Frobenius orbit of
    pi^((p-1){p^i m/(q-1)}) * Gamma_p({p^i m/(q-1)})."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _check_prec(prec)
    [(e, residues)] = _gauss_orbits(p, f, [m], p**prec)
    return PiExp(p, prec, e, -math.prod(prefetch_gamma_p(residues, p, prec, max_pn)))


# ------------------------------------------------- p-adic hypergeometric sum


def _validate_args(params, p, ts):
    """Each t of ts as a unit mod p, after the checks on p."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if params.common_denominator() % p == 0:
        raise BadPrime(f"{p} divides a parameter denominator")
    out = []
    for t in ts:
        tt = (t if isinstance(t, int) else t.coeffs[0]) % p
        if tt == 0:
            raise ZeroArgument("t must be a unit mod p")
        out.append(tt)
    return out


def _series_terms(params, p, prec, unit_terms):
    """The series sum(unit_m * omega(a0)^-m * (-p)^Lambda(m)) / (1 - p) as
    (drop, terms): unit_terms maps m to an integer unit mod p^prec, and
    term m is unit_m (-1)^Lambda(m) p^(drop + Lambda(m)) / (1 - p) mod
    p^prec, so the sum is p^-drop times the terms' polynomial at
    omega(a0)^-1.  The p-power bookkeeping uses the largest realized drop,
    so no precision is given away.
    """
    exponents = _term_exponents(params, p)
    drop = max(0, -min(exponents))
    mod = p**prec
    scale = pow(1 - p, -1, mod)
    return drop, [(-u if lam & 1 else u) * pow(p, drop + lam, mod) * scale % mod
                  for u, lam in zip(unit_terms, exponents)]


def _series_values(params, p, tts, prec, series):
    """The series of _series_terms at each unit tt mod p of tts: omega(a0)
    is the Teichmuller lift of a0 = (-1)^d tt, and omega(a0)^-1 that of
    1/a0, so each value is one lift and one Horner pass."""
    drop, terms = series
    mod = p**prec
    out = []
    for tt in tts:
        a0 = (tt if params.d % 2 == 0 else -tt) % p
        tau_inv = _teichmuller_int(pow(a0, -1, p), p, prec)
        s = 0
        for term in reversed(terms):
            s = (s * tau_inv + term) % mod
        out.append(PadicNum(p, -drop, s, prec))
    return out


def series_residues(params, p, prec):
    """The Gamma_p arguments of the series as residues mod p^prec, one row
    per m < p-1: alpha_i + m/(p-1) and -beta_j - m/(p-1), mod 1.  Row 0 is
    the denominator's.  With s = D(p-1), a + m/(p-1) mod 1 is
    ((D a)(p-1) + mD) mod s over s."""
    dd, a, b = params._scaled
    mod = p**prec
    s = dd * (p - 1)
    inv = pow(s, -1, mod)
    a = [n * (p - 1) for n in a]
    b = [n * (p - 1) for n in b]
    out = []
    for m in range(0, s, dd):
        out += [(n + m) % s * inv % mod for n in a]
        out += [-(n + m) % s * inv % mod for n in b]
    return out


_unit_terms = {}  # (route, params, p, prec) -> the series' (drop, terms), see _series_terms


def _row_quotients(units, p, prec):
    """The product of each of the p-1 equal rows of units over that of row
    0, mod p^prec: the series' normalised unit terms."""
    mod = p**prec
    w = len(units) // (p - 1)
    prods = [math.prod(units[i:i + w]) % mod for i in range(0, len(units), w)]
    den_inv = pow(prods[0], -1, mod)
    return [u * den_inv % mod for u in prods]


def padic_sum_direct(params, p, t, prec, max_pn=None):
    """The p-adic hypergeometric sum at t: the one value of
    padic_sums_direct."""
    return padic_sums_direct(params, p, [t], prec, max_pn)[0]


def padic_sums_direct(params, p, ts, prec, max_pn=None):
    """The p-adic hypergeometric sum at each t of ts, from its
    Gamma-quotient series."""
    tts = _validate_args(params, p, ts)
    key = ("direct", params, p, prec)
    if key not in _unit_terms:
        _check_series_cap(p, prec, max_pn)
        units = prefetch_gamma_p(series_residues(params, p, prec), p, prec, max_pn)
        _unit_terms[key] = _series_terms(params, p, prec, _row_quotients(units, p, prec))
    return _series_values(params, p, tts, prec, _unit_terms[key])


def padic_sum_via_orbits(params, p, t, prec, max_pn=None):
    """The same sum at t from the orbit fields: the one value of
    padic_sums_via_orbits."""
    return padic_sums_via_orbits(params, p, [t], prec, max_pn)[0]


def padic_sums_via_orbits(params, p, ts, prec, max_pn=None):
    """The same sums assembled from Gauss sums over the orbit fields.

    Row m < p-1 holds one Gauss sum over F_{p^l} per pair (l, e) of the
    orbit table params.p_orbits(p), at exponent sgn * (e + m (p^l - 1)/(p - 1)),
    sgn = -1 on beta; row 0 is the denominator.  The table is read before
    the cap check, so DoesNotSplit comes before BoundExceeded.  The
    pi-exponent of every coefficient must cancel to (p-1) * Lambda(m); any
    other outcome is raised loudly.
    """
    tts = _validate_args(params, p, ts)
    key = ("orbits", params, p, prec)
    if key in _unit_terms:
        return _series_values(params, p, tts, prec, _unit_terms[key])
    # (l, e, step) with row m's exponent e + m * step
    specs = [(ln, sgn * e, sgn * ((p**ln - 1) // (p - 1)))
             for orbits, sgn in zip(params.p_orbits(p), (1, -1)) for ln, e in orbits]
    _check_series_cap(p, prec, max_pn)
    mod = p**prec
    rows = list(zip(*(_gauss_orbits(p, ln, range(e, e + (p - 1) * step, step), mod)
                      for ln, e, step in specs)))
    # one batch of Gamma_p values, so the cap is checked before any work
    units = prefetch_gamma_p([r for row in rows for _, rs in row for r in rs], p, prec, max_pn)
    # each Gauss sum is minus its units' product: the row signs cancel in
    # the quotient by row 0
    unit_terms = _row_quotients(units, p, prec)
    pi_exps = [sum(e for e, _ in row) for row in rows]
    for m, lam in enumerate(_term_exponents(params, p)):
        e = pi_exps[m] - pi_exps[0]
        if e != (p - 1) * lam:
            if e % (p - 1):
                raise ExponentNotIntegral(f"coefficient pi-exponent {e} at m={m}")
            raise InternalInconsistency(
                f"pi-exponent {e} != (p-1)*Lambda = {(p - 1) * lam} at m={m}"
            )
    _unit_terms[key] = _series_terms(params, p, prec, unit_terms)
    return _series_values(params, p, tts, prec, _unit_terms[key])


# ------------------------------------------------------------- embeddings


def embed_cyclotomic(value, p, prec):
    """Image of a Q(zeta_M) element in Z_p, M | p-1, sending the root of
    unity attached to the field generator g to teichmuller(g)^(-1).

    Coefficients may carry p-powers in their denominators that cancel in
    the full combination; guard digits keep the result known to at least
    p^prec times the value's own p-power denominator.  The value is
    num(img)/den, by Horner on the integer coordinates num: img is known
    mod p^(prec + guard), so num(img) is known to that times p^mu, the
    p-part of the gcd of num, and the result mod p^(prec + mu).
    """
    if not isinstance(value, CycloNum):
        raise TypeError("expected a CycloNum")
    m = value.conductor
    if (p - 1) % m != 0:
        raise ConductorNotDividing(f"conductor {m} does not divide {p - 1}")
    num, den = value.num, value.den
    if not any(num):
        return PadicNum.exact_zero(p)
    guard = _vp(den, p)
    work = prec + guard
    top = work + _vp(math.gcd(*num), p)
    mod = p**top
    img = _root_image(p, m, work)
    acc = 0
    for c in reversed(num):
        acc = (acc * img + c) % mod
    return PadicNum(p, -guard, acc * pow(den // p**guard, -1, mod), top)


@lru_cache(maxsize=None)
def _root_image(p, m, prec):
    """The image teichmuller(g)^(-(p-1)/m) of zeta_m in Z_p, mod p^prec, g
    the generator of F_p^x: one per (p, m, prec), as every value embedded
    at that precision shares it."""
    mod = p**prec
    g = make_field(p).generator.to_int()
    return pow(pow(_teichmuller_int(g, p, prec), (p - 1) // m, mod), -1, mod)
