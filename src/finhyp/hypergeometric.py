"""Finite hypergeometric sums, exactly, in three forms.

algebra_sum_direct evaluates the two-algebra exponential sum over pairs of
units subject to the norm equation, and algebra_sum_fourier evaluates its
expansion in multiplicative characters; the two are proved equal and both
are kept as independent code paths.  classic_sum, the Gauss-sum series
over F_q for a parameter pair, is the character expansion on the split
instance (d copies of F_q on both sides), whose terms are the series
terms one for one.  Both routes keep packed, unreduced exponent tallies
as two trace fibres at length big = lcm(q_i - 1).  An expansion value is
q-1 rotated rows, each row a product of Gauss sums (see charsums), built
one orbit of the instance's row stabilizer at a time: one Gauss product
per orbit, the other rows its Galois images, as slot permutations (see
_fourier_coefficients).  Every twist of the trace shares the rows and the
denominator inverse of twist 1, rotated.  A
direct value is the correlation of the norm classes of A and B, each kept
as its fibres 0 and 1, which the action of F_p^x turns into the rest (see
_direct_classes).  When p-1 divides dim A - dim B, as in every
equidimensional instance, either value lies in Q(zeta_big) and is read
there; otherwise it is lifted to length p big and read there.  Either is
reduced once and multiplied once by the inverse of the denominator.  The
norm-class tallies are convolved one component at a time, as a dict while
their support is small and then as one packed grid over (c/g, norm dlog),
g the gcd of every c, by one shift-add per histogram key.

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

from .charsums import (
    AlgebraChar,
    SemisimpleAlgebra,
    _GaussPair,
    _gauss_pair,
    gauss_product,
    invert_gauss_product,
)
from .cyclo import _Packed, root_of_unity
from .errors import AssumptionFails, FieldMismatch, NotCoprime, ZeroArgument
from .finfield import make_field, prime_power


class HGAlgebraInstance:
    """Two semisimple algebras over one base field, with their characters.

    Immutable, and hashed once: instances key the denominator, direct-sum
    and expansion caches."""

    __slots__ = ("A", "B", "chiA", "chiB", "_hash")

    def __init__(self, A, B, chiA, chiB):
        if A.base is not B.base:
            raise FieldMismatch("algebras must share the base field")
        if chiA.algebra is not A or chiB.algebra is not B:
            raise FieldMismatch("characters must live on the given algebras")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "chiA", chiA)
        object.__setattr__(self, "chiB", chiB)
        object.__setattr__(self, "_hash", hash((A, B, chiA, chiB)))

    def __setattr__(self, name, value):
        raise AttributeError(f"HGAlgebraInstance is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.A, self.B, self.chiA, self.chiB)
                == (other.A, other.B, other.chiA, other.chiB))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"HGAlgebraInstance(A={self.A!r}, B={self.B!r}, "
                f"chiA={self.chiA!r}, chiB={self.chiB!r})")

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


def _gauss_denominator(inst):
    """The normalising denominator g_A(chi_A) * g_B(conj(chi_B)), row 0 of
    the expansion, as a _GaussPair at the rows' bound: it shares their
    packed Gauss entries."""
    return _gauss_pair(inst.chiA.chars + inst.chiB.conj().chars, 1, _row_bound(inst))


@lru_cache(maxsize=None)
def _denominator_inverse(inst, twist, over_big=False):
    """The inverse of the denominator in Q(zeta_(p big)) or, with over_big,
    that of its coefficient of gamma(psi) in Q(zeta_big); either has a
    rational |.|^2, q^f or q^f / p.  Against the twisted trace the
    denominator is conj(tau(twist)) times that of twist 1, tau its
    character on F_p^x, so its inverse is tau(twist) times theirs."""
    if twist != 1:
        chars = inst.chiA.chars + inst.chiB.conj().chars
        big = lcm(*(chi.field.q - 1 for chi in chars))
        tau = sum(chi.e * chi.field.dlog(twist) * (big // (chi.field.q - 1)) for chi in chars)
        return _denominator_inverse(inst, 1, over_big) * root_of_unity(big, tau)
    den = _gauss_denominator(inst)
    return invert_gauss_product(den.gamma_coefficient() if over_big else den.read())


def _reads_at_big(inst):
    """Whether p-1 divides dim A - dim B, as it does for every
    equidimensional instance.  Then x -> b x, b in F_p^x, keeps the norm
    equation, so every value of either route is c gamma(tau), tau = chi_A
    conj(chi_B) on F_p^x and c in Q(zeta_big), as is the denominator."""
    return (inst.A.dim - inst.B.dim) % (inst.base.p - 1) == 0


# One dict update of a tally step costs about as much as shift-adding this
# many bytes of a packed grid: 220-270 ns against 1.1-1.6 ns per byte
# (2-core Xeon, Python 3.11.7).
_DICT_UPDATE_BYTES = 200


def _dict_step(acc, hist, rows, qbar):
    """The convolution of two dict tallies keyed by grid slot (see
    _norm_classes).  A sum of two keys has row < 2 rows and norm dlog <
    2(q-1) - 1, so it is folded by at most one subtraction of each."""
    span = 2 * qbar - 1
    top = rows * span
    out = {}
    for key, cnt in acc.items():
        for key_i, cnt_i in hist.items():
            k = key + key_i
            if k >= top:
                k -= top
            if k % span >= qbar:
                k -= qbar
            out[k] = out.get(k, 0) + cnt * cnt_i
    return out


@lru_cache(maxsize=None)
def _norm_fold_mask(rows, qbar, width):
    """The mask of the slots with norm dlog >= q-1 in every row of a grid."""
    row = bytes(width * qbar) + b"\xff" * (width * (qbar - 1))
    return int.from_bytes(row * rows, "little")


def _grid_step(grid, hist, rows, qbar):
    """A packed grid tally times a histogram: one shift-add per key, the rows
    folded by the packing and the norm dlogs >= q-1 folded within their row."""
    grid = grid.times(hist.items())
    high = grid.value & _norm_fold_mask(rows, qbar, grid.width)
    grid.value += (high >> 8 * grid.width * qbar) - high
    return grid


def _norm_classes(alg, exps, at_minus_y, n, bound):
    """Per norm dlog k < q-1, the trace fibres 0 and 1 of the units of alg
    with norm dlog k, the trace and character taken at -y when at_minus_y is
    set, from one histogram per component on (c, norm dlog), c as in
    _direct_classes.  Every c is a multiple of g = gcd(n, all c), and so is
    every sum mod n: c is kept as the row c/g < rows = n/g of a grid whose
    rows have span = 2(q-1) - 1 slots, room for a sum of two norm dlogs.
    The histograms are convolved into a dict keyed by grid slot while |acc|
    dict updates cost less than one shift-add of the grid, then into the
    packed grid.  Fibre u takes the rows r = r_u + p i, i < big/g, those with
    g r big^-1 = u mod p, at character exponent (g r - u big)/p."""
    p, qbar = alg.base.p, alg.base.q - 1
    big, span = n // p, 2 * qbar - 1
    hists = []
    for comp, e, nf in zip(alg.components, exps, alg._norm_factors):
        h = comp.minus_one_dlog if at_minus_y else 0
        step = (-e if at_minus_y else e) * (big // (comp.q - 1)) * p
        hists.append(Counter(((big * comp.trace_of_unit(j + h) + step * (j + h)) % n,
                              j * nf % qbar) for j in range(comp.q - 1)))
    g = gcd(n, *(c for hist in hists for c, _ in hist))
    rows, width = n // g, _Packed.slot_width(bound)
    acc, *hists = [{c // g * span + k: w for (c, k), w in hist.items()} for hist in hists]
    for hist in hists:
        if type(acc) is dict and len(acc) * _DICT_UPDATE_BYTES < rows * span * width:
            acc = _dict_step(acc, hist, rows, qbar)
            continue
        if type(acc) is dict:  # the support has outgrown the dict: pack it once
            acc = _Packed.tally(rows * span, bound, acc.items())
        acc = _grid_step(acc, hist, rows, qbar)
    firsts = [u * big * pow(g, -1, p) % p for u in (0, 1)]
    if type(acc) is not dict:
        return tuple(acc.cut([r * span + k for k in range(qbar)], p * span, big, g,
                             (g * r - u * big) // p) for u, r in enumerate(firsts))
    fibres = ([[0] * big for _ in range(qbar)], [[0] * big for _ in range(qbar)])
    for key, cnt in acc.items():
        r, k = divmod(key, span)
        for u in (0, 1):
            if (r - firsts[u]) % p == 0:
                fibres[u][k][(g * r - u * big) // p % big] += cnt
    return tuple([_Packed.vector(bound, v) for v in side] for side in fibres)


def _side_map(alg, chi, big):
    """Per u in F_p: x -> u x moves the norm class k of x to k + shift and
    multiplies chi(x) by zeta_big^rotation; (shift, rotation) = (0, 0) at
    u = 0.  Both are linear in the dlog of u, so they are read off one
    generator r of F_p^x, u = r^m."""
    base, p = alg.base, alg.base.p
    step = (base.q - 1) // (p - 1)
    r = base.unit(step).to_int()  # g^step generates F_p^x inside F_q
    rot_r = sum(e * c.dlog(r) * (big // (c.q - 1)) for c, e in zip(alg.components, chi.exponents))
    out, u = [(0, 0)] * p, 1
    for m in range(p - 1):
        out[u] = (alg.dim * step * m % (base.q - 1), rot_r * m % big)
        u = u * r % p
    return out


@lru_cache(maxsize=None)
def _direct_classes(inst, twist):
    """The norm classes of both sides as trace fibres, the side maps, and
    per read of the total (a fibre v, or "lifted") the (A fibres, table)
    pairs of its dot.

    A_(k,u) tallies, as powers of zeta_big, chi_A(x) over the units x of A
    with norm dlog k and Tr x = u; B_(k,u) tallies conj(chi_B)(-y) over
    the units y of B with norm dlog k and Tr(-y) = u.  Only the fibres
    u = 0, 1 are kept: by _side_map, A_(k,u) = zeta_big^rot_A(u)
    A_(k - shift_A(u), 1) for u != 0, and B likewise with rot_B negated,
    the character being conjugated there.  Against the twisted trace, twist
    Tr = u is Tr = u / twist, so every twist shares the fibres of twist 1
    and reads the side maps at u / twist.  Fibre v of the total is then

        T_v(s) = sum over k and a of A_(k,a) B_(k+s, v-a)
               = sum over k, i of A_(k,i) X_(v,i)[k+s],

    X_(v,i)[m] the sum over the a with i = [a != 0] of zeta_big^(rot_A(a)
    - rot_B(v-a)) B_(m + shift_A(a) - shift_B(v-a), j), j = [v-a != 0].
    The tables X do not depend on t, so they are built once, and a value
    costs one dot per fibre.  Where _reads_at_big holds, fibres 0 and 1
    suffice, and fibre 1 alone when tau is nontrivial, as T_0 = tau(b) T_0
    is then 0; otherwise all p are needed, and their tables are lifted to
    p big once, so that a value is one dot there.

    The classes are built at n = p big with c = trace * big + character
    exponent * p, which is linear in the unit, so each side is the
    convolution of one histogram of H keys (c, norm dlog) per component,
    on a grid of n/g rows c/g by q-1 norm dlogs (see _norm_classes).  The
    running tally is a dict while its support S is small: a dict step costs
    S * H dict updates.  A grid step costs H shift-adds of the one packed
    grid and two masked folds.  Each step takes the cheaper by the measured
    ratio above, and a tally once packed stays packed: the support never
    shrinks.  A side of one component is its histogram, and never packs.
    """
    p, qbar = inst.base.p, inst.base.q - 1
    big = lcm(*(c.q - 1 for c in inst.A.components + inst.B.components))
    if twist == 1:
        # N(y) = t N(x) pairs each unit x with (#B units)/(q-1) units y
        bound = inst.A.unit_count() * inst.B.unit_count() // qbar
        # the whole B side is evaluated at -y: additive and multiplicative part
        a_side = _norm_classes(inst.A, inst.chiA.exponents, False, p * big, bound)
        b_side = _norm_classes(inst.B, inst.chiB.exponents, True, p * big, bound)
        ma, mb = _side_map(inst.A, inst.chiA, big), _side_map(inst.B, inst.chiB, big)
    else:
        a_side, b_side, ma, mb, _ = _direct_classes(inst, 1)
        inv = pow(twist, -1, p)
        ma, mb = ([m[u * inv % p] for u in range(p)] for m in (ma, mb))
    if not _reads_at_big(inst):
        fibres = range(p)
    elif any(ma[u][1] != mb[u][1] for u in range(1, p)):
        fibres = (1,)
    else:
        fibres = (0, 1)
    tables = {}
    for v in fibres:
        groups = {}  # (i, j) -> the (rotation, shift) of each a
        for a in range(p):
            b = (v - a) % p
            groups.setdefault((a > 0, b > 0), []).append(
                ((ma[a][1] - mb[b][1]) % big, (ma[a][0] - mb[b][0]) % qbar))
        tables[v] = [(i, _class_table(b_side[j], terms)) for (i, j), terms in groups.items()]
    if _reads_at_big(inst):
        return a_side, b_side, ma, mb, {
            v: [(a_side[i], table) for i, table in groups] for v, groups in tables.items()}
    # The lifted total sum_v zeta_p^v T_v, zeta_p = x^big at length n = p big,
    # is one dot of the A fibres with Y_i[m] = sum_v zeta_p^v X_(v,i)[m], all
    # spread to n: spreading is a ring map from length big to n.
    n = p * big
    lifted = []
    for i in (False, True):
        parts = [(v, table) for v, groups in tables.items() for gi, table in groups if gi == i]
        y = [_Packed.rotated_sum([table[m].spread(n) for _, table in parts],
                                 [v * big for v, _ in parts]) for m in range(qbar)]
        lifted.append(([c.spread(n) for c in a_side[i]], y))
    return a_side, b_side, ma, mb, {"lifted": lifted}


def _class_table(classes, terms):
    """X[m], the sum of classes[m + shift] * x^rotation over the (rotation,
    shift) terms, for every class m; classes itself for the one term (0, 0)."""
    if terms == [(0, 0)]:
        return classes
    m = len(classes)
    return [_Packed.rotated_sum([classes[(k + d) % m] for _, d in terms], [e for e, _ in terms])
            for k in range(m)]


def _direct_totals(inst, s, twist):
    """{v: T_v(s)} for the fibres v that _direct_classes lists, packed at
    length big, or {"lifted": the total at length p big}: per entry, one dot
    of the A fibres with the tables rotated to s."""
    out = {}
    for v, groups in _direct_classes(inst, twist)[4].items():
        xs, ys = [], []
        for classes, table in groups:
            xs += classes
            ys += table[s:] + table[:s]
        out[v] = _Packed.dot(xs, ys)
    return out


def algebra_sum_direct(inst, t, twist=1):
    """The norm-equation exponential sum over unit pairs, exactly.

    Every summand is a root of unity, and the pairs with N(y) = t N(x) are
    those of the classes A_k, B_(k + dlog t), kept as trace fibres (see
    _direct_classes).  Where _reads_at_big holds, the total is (T_1 - T_0)
    gamma(tau) and the denominator c_D gamma(tau), so the value is -(T_1 -
    T_0) / c_D: one reduction at big, one product with the inverse that
    the Fourier route caches, one embedding into Q(zeta_(p big)).
    Otherwise the total sum_u T_u zeta_p^u is one dot of fibres and tables
    lifted to p big, read there.
    """
    t, twist = _unit_args(inst.base, t, twist)
    totals = _direct_totals(inst, inst.base.dlog(t), twist)
    if not _reads_at_big(inst):
        return totals["lifted"].read() * (-1) * _denominator_inverse(inst, twist)
    value = -totals[1].read(minus=totals.get(0)) * _denominator_inverse(inst, twist, True)
    return value.embed(inst.base.p * totals[1].n)


def _row_stabilizer(inst, big):
    """The units k mod big such that, on each side, e -> k e mod (q_i - 1)
    maps the multiset of (component field, exponent) pairs to itself.  For
    B this is the same set as for conj(chi_B).  Whether k qualifies depends
    only on k mod L, L the lcm of the orders of the exponents, and the row
    that sigma_k moves (see _fourier_coefficients) only on k mod q-1: k runs
    over the units mod M = lcm(L, q-1), a divisor of big, each lifted to a
    unit mod big."""
    groups = []
    for alg, chi in ((inst.A, inst.chiA), (inst.B, inst.chiB)):
        by_field = {}
        for comp, e in zip(alg.components, chi.exponents):
            by_field.setdefault(comp, []).append(e)
        groups += [(comp.q - 1, sorted(es)) for comp, es in by_field.items()]
    m = lcm(inst.base.q - 1, *(n // gcd(n, e) for n, es in groups for e in es))
    out = []
    for k in range(1, m + 1):
        if gcd(k, m) == 1 and all(sorted(k * e % n for e in es) == es for n, es in groups):
            while gcd(k, big) != 1:
                k += m
            out.append(k)
    return out


@lru_cache(maxsize=None)
def _fourier_coefficients(inst, twist):
    """rows[m], the m-th Gauss product g_A(chi_A omega^m) g_B(conj(chi_B)
    omega^-m), as an unreduced _GaussPair at big = lcm(q_i - 1), with a bound
    that admits the sum of all rows.

    sigma_k, which fixes zeta_p and raises zeta_big to the k-th power, takes
    g(chi) to g(chi^k).  For k in the row stabilizer it permutes the
    characters of row m among those of row k m mod q-1, the components of
    one field sharing their norm shift, so row k m = sigma_k(row m).  One
    row per orbit is a product of Gauss sums; the rest of its orbit are its
    slot permutations.  A permuted row equals the product in value, not
    always bit for bit, as X_0 is dropped wherever a partial product's psi
    is nontrivial.  The rows against the a-twisted trace are those of twist
    1 rotated (see _GaussPair.twisted)."""
    if twist != 1:
        return tuple(row.twisted(twist) for row in _fourier_coefficients(inst, 1))
    qbar, bound = inst.base.q - 1, _row_bound(inst)
    big = lcm(*(c.q - 1 for c in inst.A.components + inst.B.components))
    stabilizer = _row_stabilizer(inst, big)
    chiB_bar = inst.chiB.conj()
    rows = [None] * qbar
    for m in range(qbar):
        if rows[m] is None:
            rows[m] = _gauss_pair(
                inst.chiA.twist_by_norm_power(m).chars + chiB_bar.twist_by_norm_power(-m).chars,
                1, bound)
            for k in stabilizer:
                if rows[k * m % qbar] is None:
                    rows[k * m % qbar] = rows[m].galois(k)
    return tuple(rows)


def _rotated_rows(inst, t, twist):
    """The rows and their rotations: row m times chi(arg)^m, with arg =
    N(-1) t and N(-1) = (-1)^(dim B), is row m rotated in Q(zeta_big)."""
    qbar = inst.base.q - 1
    rows = _fourier_coefficients(inst, twist)
    step = rows[0].x1.n // qbar * (inst.base.dlog(t) + inst.B.dim * inst.base.minus_one_dlog)
    return rows, [step * m for m in range(qbar)]


def _expansion_times_denominator(inst, t, twist):
    """The expansion at a unit t before the division by the denominator:
    -1/(q-1) times the sum of the rotated rows.  The rows of one psi are
    summed as pairs and lifted once; the lifts are summed and read at p big."""
    classes = {}
    for row, shift in zip(*_rotated_rows(inst, t, twist)):
        rows, shifts = classes.setdefault(row.psi, ([], []))
        rows.append(row)
        shifts.append(shift)
    lifted = [_GaussPair.rotated_sum(*c).lift() for c in classes.values()]
    return _Packed.rotated_sum(lifted, [0] * len(lifted)).read() * Fraction(-1, inst.base.q - 1)


def algebra_sum_fourier(inst, t, twist=1):
    """The same sum through its character expansion; independent code path.

    Row m carries the character tau omega^(m (dim A - dim B)) on F_p^x, and
    omega has order p-1 there.  When p-1 divides dim A - dim B, as it does
    for every equidimensional instance, all rows and the denominator D are
    multiples of one gamma(tau): rows = c gamma(tau), D = c_D gamma(tau).
    The value -(sum of rotated rows) / ((q-1) D) is then -c(t) / ((q-1) c_D)
    in Q(zeta_big): one reduction at big, one product with the cached
    inverse of c_D, and one embedding into Q(zeta_(p big)), the conductor of
    every value of this function.
    """
    t, twist = _unit_args(inst.base, t, twist)
    if not _reads_at_big(inst):
        return _expansion_times_denominator(inst, t, twist) * _denominator_inverse(inst, twist)
    total = _GaussPair.rotated_sum(*_rotated_rows(inst, t, twist)).gamma_coefficient()
    value = total * _denominator_inverse(inst, twist, True) * Fraction(-1, inst.base.q - 1)
    return value.embed(inst.base.p * total.conductor)


# ---------------------------------------------------------------- instances


@lru_cache(maxsize=None)
def split_instance(params, q):
    """Both algebras a direct sum of d copies of F_q, characters from the
    parameters scaled by q-1."""
    p, f = prime_power(q)
    _check_assumption(params, q)
    field = make_field(p, f)
    qbar = q - 1
    d = params.d
    A = SemisimpleAlgebra(field, [field] * d)
    B = SemisimpleAlgebra(field, [field] * d)
    chiA = AlgebraChar.from_exponents(A, [int(qbar * x) for x in params.alpha])
    chiB = AlgebraChar.from_exponents(B, [int(qbar * x) for x in params.beta])
    return HGAlgebraInstance(A, B, chiA, chiB)


def orbit_instance(params, p):
    """Algebras assembled from the orbits of multiplication by p.

    Each orbit of length l contributes one component F_{p^l} whose
    character exponent is rep * (p^l - 1); that exponent is an integer
    precisely because l is the orbit length.
    """
    base = make_field(p)
    alpha_orbits, beta_orbits = params.p_orbits(p)

    def build(orbits):
        comps, exps = [], []
        for o in orbits:
            comp = make_field(p, o.length)
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
    inst = split_instance(params, q)
    sign = root_of_unity(q - 1, inst.base.minus_one_dlog * sum(inst.chiB.exponents))
    jacobi = gauss_product(a * b.conj() for a, b in zip(inst.chiA.chars, inst.chiB.chars))
    return (
        sign * Fraction(1, q**params.d)
        * _gauss_denominator(inst).read() * invert_gauss_product(jacobi)
    )


def katz_unnormalized(params, q, t):
    """classic_sum with the Gauss-sum denominator multiplied back in."""
    inst = split_instance(params, q)
    return _expansion_times_denominator(inst, *_unit_args(inst.base, t, 1))
