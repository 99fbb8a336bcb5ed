"""Finite hypergeometric sums, exactly, in three forms.

algebra_sum_direct evaluates the two-algebra exponential sum over pairs of
units subject to the norm equation, and algebra_sum_fourier evaluates its
expansion in multiplicative characters; the two are proved equal and both
are kept as independent code paths.  classic_sum, the Gauss-sum series
over F_q for a parameter pair, is the character expansion on the split
instance (d copies of F_q on both sides), whose terms are the series
terms one for one.  Both routes keep packed, unreduced exponent tallies
as two trace fibres at length big = lcm(q_i - 1).  An expansion value is
the sum of q-1 rotated rows, each row a product of Gauss sums (see
charsums).  The group G of units k mod big that permute the characters of
each side takes row m to row k m by sigma_k, so one Gauss product per
orbit of G is built and kept, with the orbit's size, and the sum of all
rows is 1/|G| times the trace over G of the representatives' weighted
sum: one traced read of one packed sum, which moves no slot (see
algebra_sum_fourier and _Packed.read).  A twist of the trace is applied
to each value, never tabulated, so every cache is keyed by the instance
alone.  A direct value reads one joint tally per instance: the unit pairs
of A x B by norm class, trace fibre 0 or 1 and character, which the
action of F_p^x turns into the other fibres, so every t and twist shares
it (see _direct_tally).  When p-1 divides dim A - dim B, as in every
equidimensional instance, either value lies in Q(zeta_big) and is read
and returned there; otherwise it is read and returned at length p big.
Each is reduced once.  A direct value is then multiplied once by the
inverse of the denominator; an expansion value is read off rows that
carry that inverse already, lifted to p big first where the value lies
there, and is scaled by a rational (see _scaled_rows).  The tally is
convolved one component at a time, by the fibre rule of the
Gauss products with its Jacobi sums as 2-D shifts, on one packed grid per
fibre over (c/g, norm class), g the gcd of every character step c, by one
shift-add per histogram key.

Two normalization choices make the three forms one function: the
denominator is g_A(chi_A) * g_B(conj(chi_B)), and the whole B side of the
direct sum is evaluated at -y (multiplicative character included).  With
these, the direct sum on the split instance reproduces classic_sum exactly
and the equi-dimensional sums do not depend on the choice of the p-th root
of unity inside the additive characters.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._value import Value
from .charsums import (
    AlgebraChar,
    SemisimpleAlgebra,
    _gauss_pair,
    _trace_fibres,
    gauss_product,
    invert_gauss_product,
)
from .cyclo import _from_slots, _Packed, _to_slots, root_of_unity
from .errors import AssumptionFails, FieldMismatch, NotCoprime, ZeroArgument
from .finfield import make_field, prime_power


class HGAlgebraInstance(Value):
    """Two semisimple algebras over one base field, with their characters.

    A Value, so immutable and hashed once: instances key the denominator,
    direct-sum and expansion caches."""

    __slots__ = _fields = ("A", "B", "chiA", "chiB")

    def __init__(self, A, B, chiA, chiB):
        if A.base is not B.base:
            raise FieldMismatch("algebras must share the base field")
        if chiA.algebra is not A or chiB.algebra is not B:
            raise FieldMismatch("characters must live on the given algebras")
        self._init(A, B, chiA, chiB)

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


def _check_assumption(params, q):
    d = params.common_denominator()
    if (q - 1) % d != 0:
        raise AssumptionFails(f"q-1 = {q - 1} is not divisible by the denominator {d}")


def _unit_args(field, t, twist):
    t = field.elem(t)
    if t.is_zero():
        raise ZeroArgument("t must be a unit")
    if twist % field.p == 0:
        raise NotCoprime("twist must be a unit of F_p")
    return t, twist % field.p


def _omega_reindex(field, generator):
    """Exponent multiplier carrying the default generator character to the
    one based at `generator`."""
    if generator is None:
        return 1
    u = field.dlog(generator)
    qbar = field.q - 1
    if gcd(u, qbar) != 1:
        raise NotCoprime("chosen element does not generate the unit group")
    return pow(u, -1, qbar)


def classic_sum(params, q, t, generator=None):
    """The hypergeometric sum over F_q at argument t, exactly.

    Requires q-1 divisible by every parameter denominator.  The optional
    generator replaces the field's canonical unit-group generator in the
    definition of the character basis; the value must not change.  Both
    characters are raised to the power that carries the default basis to
    that one, and the series is the split instance's character expansion.
    """
    inst = split_instance(params, q)
    w = _omega_reindex(inst.base, generator)
    if w != 1:
        inst = HGAlgebraInstance(inst.A, inst.B, inst.chiA.power(w), inst.chiB.power(w))
    return algebra_sum_fourier(inst, t)


# ------------------------------------------------------------- algebra sums


def _row_bound(inst):
    """A bound on every coefficient of the sum of the q-1 expansion rows."""
    return (inst.base.q - 1) * inst.A.unit_count() * inst.B.unit_count()


@lru_cache(maxsize=None)
def _gauss_denominator(inst):
    """The normalising denominator g_A(chi_A) * g_B(conj(chi_B)), row 0 of
    the expansion, as a _GaussPair at the rows' bound: it shares their
    packed Gauss entries, and its psi is its character tau on F_p^x."""
    return _gauss_pair(inst.chiA.chars + inst.chiB.conj().chars, _row_bound(inst))


@lru_cache(maxsize=None)
def _denominator_value(inst):
    """The denominator read in Q(zeta_(p big)), once per instance:
    katz_unnormalized and greene_factor multiply every value by it."""
    return _gauss_denominator(inst).read()


@lru_cache(maxsize=None)
def _denominator_inverse(inst):
    """Where _reads_at_big, the inverse of the denominator's coefficient c_D
    of gamma(psi) in Q(zeta_big); otherwise that of the denominator in
    Q(zeta_(p big)).  Either has a rational |.|^2, q^f / p or q^f.  Against
    the trace itself; a twist rotates it (see algebra_sum_direct).  The
    direct route multiplies each value by it, and the expansion route
    scales its rows by it once (see _scaled_rows): the values of both
    routes on one instance share this one computation."""
    den = _gauss_denominator(inst)
    return invert_gauss_product(den.gamma_coefficient() if _reads_at_big(inst) else den.read())


def _reads_at_big(inst):
    """Whether p-1 divides dim A - dim B, as it does for every
    equidimensional instance.  Then x -> b x, b in F_p^x, keeps the norm
    equation, so every value of either route is c gamma(tau), tau = chi_A
    conj(chi_B) on F_p^x and c in Q(zeta_big), as is the denominator."""
    return (inst.A.dim - inst.B.dim) % (inst.base.p - 1) == 0


@lru_cache(maxsize=None)
def _norm_fold_mask(rows, qbar, width):
    """The mask of the slots with norm dlog >= q-1 in every row of a grid."""
    row = bytes(width * qbar) + b"\xff" * (width * (qbar - 1))
    return int.from_bytes(row * rows, "little")


def _fold_norms(grid, rows, qbar):
    """The grid with the norm dlogs >= q-1 of every row folded onto k - (q-1)."""
    high = grid.value & _norm_fold_mask(rows, qbar, grid.width)
    grid.value += (high >> 8 * grid.width * qbar) - high
    return grid


def _grid_sum(terms, rows, qbar):
    """The sum of grid times hist over the (grid, hist) terms with a nonempty
    hist, by one shift-add per key (see _Packed.times): the rows folded by
    the packing, and the norm dlogs >= q-1 folded within their row once."""
    parts = [grid.times(hist.items()) for grid, hist in terms if hist]
    return _fold_norms(_Packed.rotated_sum(parts, [0] * len(parts)), rows, qbar)


def _component_fibres(comp, step, norm_step, h, big, qbar):
    """Fibres 0 and 1 of one component: per unit g_i^j with Tr g_i^j = u, its
    (character exponent, norm class) (step j mod big, norm_step (j + h) mod
    q-1); and sigma, the (rotation, class shift) of z -> a z per a in F_p,
    read off the dlogs of F_p^x (sigma(0) = (0, 0))."""
    zero, one, dlogs = _trace_fibres(comp)
    fibres = [[(step * j % big, norm_step * (j + h) % qbar) for j in js] for js in (zero, one)]
    return fibres, [(step * d % big, norm_step * d % qbar) for d in dlogs]


@lru_cache(maxsize=None)
def _direct_tally(inst):
    """The joint norm-class tally of the unit pairs (x, y) of A x B: per
    trace fibre u in {0, 1}, a packed grid whose row r and norm slot s hold
    the number of pairs with dlog N(y) - dlog N(x) = s, Tr x + Tr(-y) = u
    and chi_A(x) conj(chi_B)(-y) = zeta_big^(g r); with sigma, the
    (rotation, class shift) of (x, y) -> (u x, u y) per u in F_p, g, and
    the span of a row.

    Every (rotation, shift) is a sum over the components, A's at x and B's
    at -y with its norm dlog negated, so the tally is the convolution of
    one pair of fibre histograms per component (see _component_fibres):
    fibre u of a component tallies its units z with Tr z = u, and fibre a
    != 0 is fibre 1 moved by sigma(a).  A step from P to PG takes the fibre
    rule of _GaussPair.__mul__ with its Jacobi sums as 2-D shifts:

        (PG)_0 = P_0 G_0 + sum over a != 0 of sigma_P(a) sigma_G(-a) P_1 G_1,
        (PG)_1 = P_0 G_1 + P_1 G_0 + sum over a != 0, 1 of sigma_P(a) sigma_G(1-a) P_1 G_1,

    each product a shift-add per histogram key on a grid of big/g rows
    (g | big the gcd of every character step, so every row exponent is a
    multiple of g) of span = 2(q-1) - 1 norm slots, room for a sum of two
    norm dlogs.  Components with a trivial character come first: their
    rows are all 0, so the packed ints stay one row long until the others
    come in.  The bound |A^x| |B^x| holds every partial total."""
    p, qbar = inst.base.p, inst.base.q - 1
    big = lcm(*(c.q - 1 for c in inst.A.components + inst.B.components))
    comps = [(c, e * (big // (c.q - 1)), -nf, 0) for c, e, nf in
             zip(inst.A.components, inst.chiA.exponents, inst.A._norm_factors)]
    comps += [(c, -e * (big // (c.q - 1)), nf, c.minus_one_dlog) for c, e, nf in
              zip(inst.B.components, inst.chiB.exponents, inst.B._norm_factors)]
    comps.sort(key=lambda comp: comp[1] % big != 0)
    g = gcd(big, *(step for _, step, *_ in comps))
    rows, span, bound = big // g, 2 * qbar - 1, inst.A.unit_count() * inst.B.unit_count()

    def keys(pairs):  # (exponent, class) pairs as grid slots
        return Counter(r // g * span + k for r, k in pairs)

    def jacobi(sig, pairs):  # sigma_P(a) sigma_G(b) over the (a, b) pairs
        return keys(((sigma[a][0] + sig[b][0]) % big, (sigma[a][1] + sig[b][1]) % qbar)
                    for a, b in pairs)

    acc = sigma = None
    for comp in comps:
        fibres, sig = _component_fibres(*comp, big, qbar)
        hists = [keys(fibre) for fibre in fibres]
        if acc is None:
            acc, sigma = [_Packed.tally(rows * span, bound, hist.items()) for hist in hists], sig
            continue
        top = _grid_sum([(acc[1], hists[1])], rows, qbar)
        j0 = jacobi(sig, ((a, p - a) for a in range(1, p)))
        j1 = jacobi(sig, ((a, p + 1 - a) for a in range(2, p)))
        acc = [_grid_sum([(acc[0], hists[0]), (top, j0)], rows, qbar),
               _grid_sum([(acc[0], hists[1]), (acc[1], hists[0]), (top, j1)], rows, qbar)]
        sigma = [((r + r_g) % big, (s + s_g) % qbar) for (r, s), (r_g, s_g) in zip(sigma, sig)]
    return acc, sigma, g, span


def algebra_sum_direct(inst, t, twist=1):
    """The norm-equation exponential sum over unit pairs, exactly.

    Every summand is a root of unity, and the pairs with N(y) = t N(x) are
    class s = dlog t of the joint tally (see _direct_tally), whose fibre u
    != 0 is fibre 1 at class s - shift(u) rotated by rot(u).  Against the
    a-twisted trace the total is the sum over u of zeta_p^(a u) times fibre
    u, and the denominator is conj(tau(a)) times that of twist 1, tau read
    off its Gauss entries (_gauss_denominator): the total is rotated by
    tau(a).  Where _reads_at_big holds, every shift is 0 and rot is tau on
    F_p^x, so the total is (tau(1/a) T_1 - T_0) gamma(tau), T_0 = tau(b) T_0
    being 0 when tau is nontrivial; the denominator is c_D gamma(tau), and
    the value -(tau(1/a) T_1 - T_0) tau(a) / c_D is one reduction at big
    and one product with the inverse that the Fourier route caches, in
    Q(zeta_big).  Otherwise the p fibres are cut out of the tally at length
    p big, each at its rotation there, and read at once, in Q(zeta_(p big)).
    """
    t, twist = _unit_args(inst.base, t, twist)
    (zero, one), sigma, g, span = _direct_tally(inst)
    p, qbar, s = inst.base.p, inst.base.q - 1, inst.base.dlog(t)
    big = zero.n // span * g
    tau = _gauss_denominator(inst).psi[twist] if twist != 1 else 0
    if _reads_at_big(inst):
        total = one.cut(s, span, big, g, sigma[pow(twist, -1, p)][0] + tau)
        minus = zero.cut(s, span, big, g, 0) if not any(r for r, _ in sigma) else None
        return -total.read(minus) * _denominator_inverse(inst)
    n = p * big
    fibres = [zero.cut(s, span, n, g * p, 0)]
    fibres += [one.cut((s - shift) % qbar, span, n, g * p, rot * p + twist * u * big)
               for u, (rot, shift) in enumerate(sigma) if u]
    return _Packed.rotated_sum(fibres, [p * tau] * p).read() * (-1) * _denominator_inverse(inst)


def _row_stabilizer(inst, big):
    """The group of units k mod big such that, on each side, e -> k e mod
    (q_i - 1) maps the multiset of (component field, exponent) pairs to
    itself.  For B this is the same group as for conj(chi_B)."""
    groups = []
    for alg, chi in ((inst.A, inst.chiA), (inst.B, inst.chiB)):
        by_field = {}
        for comp, e in zip(alg.components, chi.exponents):
            by_field.setdefault(comp, []).append(e)
        groups += [(comp.q - 1, sorted(es)) for comp, es in by_field.items()]
    return tuple(k for k in range(1, big + 1) if gcd(k, big) == 1
                 and all(sorted(k * e % n for e in es) == es for n, es in groups))


def _fourier_coefficients(inst):
    """The expansion rows, one per orbit of G = _row_stabilizer on m mod q-1:
    G, and per orbit O_m its least m, |O_m| and row m, the Gauss product
    g_A(chi_A omega^m) g_B(conj(chi_B) omega^-m) as an unreduced _GaussPair
    at big = lcm(q_i - 1), with a bound that admits the sum of all q-1 rows.

    sigma_k, which fixes zeta_p and raises zeta_big to the k-th power, takes
    g(chi) to g(chi^k).  For k in G it permutes the characters of row m
    among those of row k m mod q-1, the components of one field sharing
    their norm shift, so row k m = sigma_k(row m): the other rows of an
    orbit are never built (see algebra_sum_fourier).  They are the rows
    against the trace itself; algebra_sum_fourier applies a twist to t
    instead.  Not cached: _scaled_rows builds them once per instance."""
    qbar, bound = inst.base.q - 1, _row_bound(inst)
    big = lcm(*(c.q - 1 for c in inst.A.components + inst.B.components))
    group = _row_stabilizer(inst, big)
    chiB_bar = inst.chiB.conj()
    seen, reps = set(), []
    for m in range(qbar):
        if m not in seen:
            orbit = {k * m % qbar for k in group}
            seen |= orbit
            chars = inst.chiA.twist_by_norm_power(m).chars + chiB_bar.twist_by_norm_power(-m).chars
            reps.append((m, len(orbit), _gauss_pair(chars, bound)))
    return group, tuple(reps)


@lru_cache(maxsize=None)
def _scaled_rows(inst):
    """The representative rows of _fourier_coefficients times the cached
    inverse c / e of the denominator (see _denominator_inverse), at the
    length n of its field: G as units mod n, (m, |O_m|) per representative,
    the fibres X_0' and X_1' of each scaled row, in their order, with X_1' -
    X_0' = (X_1 - X_0) c, and the scale -1/((q-1) |G| e) that takes their
    traced read to the value (see algebra_sum_fourier).

    Where _reads_at_big, n = big and each row is its fibres.  Otherwise n =
    p big: each row is lifted once, to X_0 = 0 and X_1 its lift, and G moves
    to Z/(p big) by k -> (k mod big, 1 mod p), since sigma_k fixes zeta_p.
    With c = P - N split into its positive and negative parts, X_1' = X_1 P
    + X_0 N and X_0' = X_1 N + X_0 P are sums of products of nonnegative
    tallies, exact in Z[x]/(x^n - 1) and packed at the slot width of
    _row_bound times the sum of |c|.  The trace over G commutes with the
    product, as the denominator, row 0, is fixed by G."""
    group, reps = _fourier_coefficients(inst)
    inverse = _denominator_inverse(inst)
    p, n = inst.base.p, reps[0][2].x1.n
    rows = [(row.x0, row.x1) for _, _, row in reps]
    if not _reads_at_big(inst):
        inv = pow(n, -1, p)
        group = tuple(k + n * ((1 - k) * inv % p) for k in group)
        rows = [(None, row.lift()) for _, _, row in reps]
        n *= p
    bound = _row_bound(inst) * sum(map(abs, inverse.num))
    width = _Packed.slot_width(bound)
    parts = [[max(sign * c, 0) for c in inverse.num] for sign in (1, -1)]
    plus, minus = ((_to_slots(v, width), sum(v)) for v in parts)

    def widened(x):  # (value, total) of x packed at the new width
        if x is None or not x.value:
            return 0, 0
        return _to_slots(_from_slots(x.value, x.width, n), width), x.total

    def sum_of_products(a, b, c, d):  # a b + c d
        return _Packed(n, bound, width, a[0] * b[0] + c[0] * d[0], a[1] * b[1] + c[1] * d[1])

    fibres = [(widened(x0), widened(x1)) for x0, x1 in rows]
    return (group, tuple((m, size) for m, size, _ in reps),
            tuple(sum_of_products(x1, minus, x0, plus) for x0, x1 in fibres),
            tuple(sum_of_products(x1, plus, x0, minus) for x0, x1 in fibres),
            Fraction(-1, (inst.base.q - 1) * len(group) * inverse.den))


def algebra_sum_fourier(inst, t, twist=1):
    """The same sum through its character expansion; independent code path.

    Row m times chi(arg)^m, with arg = N(-1) t and N(-1) = (-1)^(dim B), is
    row m rotated by step m in Q(zeta_big), y_m.  As sigma_k, k in G, moves
    that rotation with the row, the orbit of m adds up to sigma_k(y_m) over
    k in G times |O_m| / |G|, so the sum of all q-1 rotated rows is 1/|G|
    times the trace over G of W, the sum of |O_m| y_m over the
    representatives.  The value -W / ((q-1) D) is then one traced read (see
    _Packed.read) of the rotated sums of the cached rows, which carry the
    inverse of D (see _scaled_rows), times a rational.

    Row m carries the character tau omega^(m (dim A - dim B)) on F_p^x, and
    omega has order p-1 there.  When p-1 divides dim A - dim B, as it does
    for every equidimensional instance, all rows and D are multiples of one
    gamma(tau): rows = c gamma(tau), D = c_D gamma(tau).  sigma_k takes
    gamma(tau) to gamma(tau^k), which is gamma(tau) for k in G, as row k m
    carries tau too; so G acts on the c of the rows as on the rows, and the
    value, -c(t) / ((q-1) |G| c_D), is read and returned in Q(zeta_big).
    Otherwise the rows are lifted and the value is read and returned in
    Q(zeta_(p big)), where zeta_big = zeta_(p big)^p.  Against the a-twisted
    trace, row m and D gain conj(tau(a)) omega(a)^(m (dim B - dim A)) and
    conj(tau(a)), as g_a(chi) = conj(chi(a)) g(chi): the value is that of
    twist 1 at t a^(dim B - dim A).
    """
    t, twist = _unit_args(inst.base, t, twist)
    if twist != 1:
        t *= inst.base.elem(twist) ** (inst.B.dim - inst.A.dim)
    group, reps, x0s, x1s, scale = _scaled_rows(inst)
    step = x1s[0].n // (inst.base.q - 1) * (
        inst.base.dlog(t) + inst.B.dim * inst.base.minus_one_dlog)
    shifts, sizes = [step * m for m, _ in reps], [size for _, size in reps]
    x0 = _Packed.rotated_sum(x0s, shifts, sizes)
    x1 = _Packed.rotated_sum(x1s, shifts, sizes)
    return x1.read(x0, group) * scale


# ---------------------------------------------------------------- instances


def split_instance(params, q):
    """orbit_instance(params, q) where D | q-1 is required (AssumptionFails
    otherwise): every orbit has length 1, so both algebras are d copies of
    F_q, the characters the parameters scaled by q-1."""
    prime_power(q)
    _check_assumption(params, q)
    return orbit_instance(params, q)


@lru_cache(maxsize=None)
def orbit_instance(params, q):
    """Algebras over F_q assembled from the orbit table params.p_orbits(q).

    Each pair (l, e) of a side, an orbit of length l, contributes one
    component F_{q^l} with character exponent e.  Built once per
    (params, q), as algebras compare by identity and instances key the sum
    caches.
    """
    p, f = prime_power(q)
    base = make_field(p, f)

    def build(orbits):
        alg = SemisimpleAlgebra(base, [make_field(p, f * ln) for ln, _ in orbits])
        return alg, AlgebraChar.from_exponents(alg, [e for _, e in orbits])

    (A, chiA), (B, chiB) = map(build, params.p_orbits(q))
    return HGAlgebraInstance(A, B, chiA, chiB)


# ------------------------------------------------- alternative normalizations


def greene_factor(params, q):
    """Multiplier turning classic_sum into the Jacobi-sum normalization."""
    inst = split_instance(params, q)
    sign = root_of_unity(q - 1, inst.base.minus_one_dlog * sum(inst.chiB.exponents))
    jacobi = gauss_product(a * b.conj() for a, b in zip(inst.chiA.chars, inst.chiB.chars))
    return (
        sign * Fraction(1, q**params.d)
        * _denominator_value(inst) * invert_gauss_product(jacobi)
    )


def katz_unnormalized(params, q, t):
    """classic_sum with the Gauss-sum denominator multiplied back in: a
    value in Q(zeta_(p big))."""
    return classic_sum(params, q, t) * _denominator_value(split_instance(params, q))
