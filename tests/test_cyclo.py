import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhyp.cyclo import (
    CycloNum,
    _from_slots,
    _Packed,
    _to_slots,
    cyclotomic_polynomial,
    root_of_unity,
)
from finhyp.errors import (
    DivisionByZero,
    InternalInconsistency,
    LengthMismatch,
    NotCoprime,
    NotDivisor,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)



def test_cyclotomic_polynomials_multiply_to_binomial():
    # x^n - 1 is the product of Phi_d over the divisors d of n
    for n in list(range(1, 80)) + [506, 1024, 3 * 5 * 7 * 11]:
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_i_squared():
    i = root_of_unity(4, 1)
    assert i * i == -1


def test_geometric_sum_vanishes():
    for n in (2, 3, 5, 6, 12, 15):
        total = CycloNum.zero(n)
        for k in range(n):
            total = total + root_of_unity(n, k)
        assert total == 0


def test_inverse_of_root():
    for n in (5, 8, 12):
        for k in range(1, n):
            z = root_of_unity(n, k)
            assert z.inverse() == root_of_unity(n, n - k)
            assert z * z.inverse() == 1


def test_embed():
    assert root_of_unity(3, 1).embed(12) == root_of_unity(12, 4)
    with pytest.raises(NotDivisor):
        root_of_unity(3, 1).embed(10)


def test_galois_and_conj():
    assert root_of_unity(5, 1).galois(2) == root_of_unity(5, 2)
    assert root_of_unity(7, 3).conj() == root_of_unity(7, 4)
    with pytest.raises(NotCoprime):
        root_of_unity(6, 1).galois(3)


def _same(x, y):
    """Equal as written: the same conductor and the same coordinates."""
    return (x.conductor, x.num, x.den) == (y.conductor, y.num, y.den)


def test_subfield_membership():
    assert root_of_unity(15, 5).is_in_subfield(3) == root_of_unity(3, 1)
    assert root_of_unity(15, 1).is_in_subfield(3) is None
    w = root_of_unity(15, 3) + root_of_unity(15, 12)
    assert w.is_in_subfield(5) == root_of_unity(5, 1) + root_of_unity(5, 4)
    # M need not divide N: the answer is the element of Q(zeta_M) itself
    assert _same(root_of_unity(15, 5).is_in_subfield(6), root_of_unity(6, 2))
    assert root_of_unity(15, 1).is_in_subfield(6) is None
    assert _same(root_of_unity(3, 1).is_in_subfield(6), root_of_unity(6, 2))
    x = root_of_unity(12, 1) + Fraction(2, 3)
    assert _same(x.is_in_subfield(12), x)
    assert x.is_in_subfield(1) is None
    s = sum((root_of_unity(5, k) for k in range(1, 5)), CycloNum.zero(5))
    assert _same(s.is_in_subfield(1), CycloNum.from_rational(-1))
    r = CycloNum.from_rational(Fraction(3, 2))
    assert _same(r.is_in_subfield(7), CycloNum.from_rational(Fraction(3, 2), 7))


def test_subfield_of_a_multiple_is_the_embedding(monkeypatch):
    # when N divides M the answer is the embedding, reduced at M alone
    from finhyp import cyclo

    x = root_of_unity(12, 1) * Fraction(3, 2) + root_of_unity(12, 7) - 5
    calls = []
    reduce_ = cyclo._reduce
    monkeypatch.setattr(cyclo, "_reduce", lambda n, v: calls.append(n) or reduce_(n, v))
    for m in (12, 24, 36, 60):
        calls.clear()
        assert _same(x.is_in_subfield(m), x.embed(m))
        assert set(calls) <= {m}
    monkeypatch.undo()
    # outside the subfield the answer is still None
    assert x.is_in_subfield(6) is None and x.is_in_subfield(4) is None
    assert root_of_unity(12, 2).is_in_subfield(4) is None


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        CycloNum.zero(5).inverse()


def test_json_round_trip():
    a = CycloNum(12, [Fraction(1, 2), -3, Fraction(7, 5), 0])
    assert CycloNum.from_json(a.to_json()) == a
    with pytest.raises(LengthMismatch):  # phi(12) = 4 coordinates
        CycloNum.from_json({"conductor": 12, "coeffs": ["1", "2"]})


def _elements(n, bound=100, den=12):
    frac = st.fractions(min_value=-bound, max_value=bound, max_denominator=den)
    degree = len(cyclotomic_polynomial(n)) - 1
    return st.lists(frac, min_size=degree, max_size=degree).map(
        lambda c: CycloNum(n, c)
    )


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([4, 5, 12]).flatmap(
    lambda n: st.tuples(_elements(n), _elements(n), _elements(n))
))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=25, deadline=None)
@given(_elements(12), st.sampled_from([1, 5, 7, 11]))
def test_galois_is_homomorphism(a, k):
    b = a + root_of_unity(12, 1)
    assert a.galois(k) + b.galois(k) == (a + b).galois(k)
    assert a.galois(k) * b.galois(k) == (a * b).galois(k)


@settings(max_examples=20, deadline=None)
@given(_elements(12), st.sampled_from([5, 7, 11]), st.sampled_from([5, 7, 11]))
def test_galois_composition(a, k1, k2):
    assert a.galois(k1).galois(k2) == a.galois(k1 * k2 % 12)


@settings(max_examples=25, deadline=None)
@given(_elements(5))
def test_exact_inverse(a):
    if a.is_zero():
        return
    assert a * a.inverse() == 1


def test_conductor_promotion():
    a = root_of_unity(3, 1)
    b = root_of_unity(4, 1)
    c = a * b
    assert c.conductor == 12
    assert c == root_of_unity(12, 7)
    assert a + 1 == root_of_unity(3, 1) + CycloNum.one(3)


def test_rational_detection():
    z = root_of_unity(5, 1)
    s = z + z.galois(2) + z.galois(3) + z.galois(4)
    assert s.as_rational() == -1
    assert z.as_rational() is None


SUBFIELD_PAIRS = [(15, 6), (3, 6), (12, 12), (12, 1), (1, 7), (60, 18), (36, 8),
                  (30, 20), (45, 15), (8, 4), (84, 63), (40, 50)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SUBFIELD_PAIRS).flatmap(
    lambda nm: st.tuples(st.just(nm), _elements(gcd(*nm), 20, 6))
))
def test_subfield_recovers_embedded_element(case):
    # Q(zeta_N) meets Q(zeta_M) in Q(zeta_g), g = gcd(N, M)
    (n, m), y = case
    assert _same(y.embed(n).is_in_subfield(m), y.embed(m))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SUBFIELD_PAIRS).flatmap(
    lambda nm: st.tuples(
        st.just(nm),
        st.sampled_from([h for h in range(1, nm[0] + 1) if nm[0] % h == 0]).flatmap(
            lambda h: _elements(h, 20, 6)
        ),
    )
))
def test_subfield_membership_is_the_fixed_field(case):
    # x lies in Q(zeta_g) iff every z -> z^k with k = 1 mod g fixes it
    (n, m), x = case
    x = x.embed(n)
    g = gcd(n, m)
    fixed = all(x.galois(k) == x for k in range(1, n + 1, g) if gcd(k, n) == 1)
    assert (x.is_in_subfield(m) is None) == (not fixed)


# ------------------------------------------- dense schoolbook reference


@lru_cache(maxsize=None)
def _ref_rows(n):
    """Fraction coordinates of z^j, j < n, by repeated multiplication by z."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rows = [[Fraction(int(i == j)) for i in range(d)] for j in range(d)]
    while len(rows) < n:
        prev = rows[-1]
        shifted = [Fraction(0)] + prev[:-1]
        rows.append([r - prev[-1] * c for r, c in zip(shifted, phi)])
    return rows


def _ref_powers(n, pairs):
    """Coordinates of sum w * z^e over (e, w), from the dense power table."""
    rows = _ref_rows(n)
    acc = [Fraction(0)] * len(rows[0])
    for e, w in pairs:
        for i, r in enumerate(rows[e % n]):
            acc[i] += w * r
    return tuple(acc)


def _ref_mul(a, b):
    pairs = [(i + j, x * y) for i, x in enumerate(a.coeffs) for j, y in enumerate(b.coeffs)]
    return _ref_powers(a.conductor, pairs)


KERNEL_CONDUCTORS = [1, 2, 5, 7, 23, 8, 9, 12, 78]

_coefficient = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**80), 2**80),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**66)),
    st.fractions(min_value=-50, max_value=50, max_denominator=36),
)


def _kernel_elements(n):
    degree = len(cyclotomic_polynomial(n)) - 1
    return st.lists(_coefficient, min_size=degree, max_size=degree).map(
        lambda c: CycloNum(n, c)
    )


def _assert_normal(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS).flatmap(
    lambda n: st.tuples(_kernel_elements(n), _kernel_elements(n))
))
def test_kernel_multiply_matches_reference(pair):
    a, b = pair
    prod = a * b
    assert prod.coeffs == _ref_mul(a, b)
    _assert_normal(prod)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 10])
def test_kernel_multiply_at_slot_width_edges(width):
    # the largest product coefficient m sits just inside and just past the
    # bound of `width`-byte signed slots, |m| < 2^(8*width-1), in both signs
    half = 1 << (8 * width - 1)
    cases = [(1, [half - 1], [1]), (1, [half], [1]), (2, [-(half - 1)], [1])]
    for ma in (half // 4 - 1, half // 4):
        cases += [(5, [ma] * 4, [1] * 4), (5, [ma] * 4, [-1] * 4),
                  (5, [ma, -ma, ma, -ma], [1, -1, 1, -1]), (10, [ma, 0, 0, ma], [1, 1, 1, 1])]
    for n, x, y in cases:
        a, b = CycloNum(n, x), CycloNum(n, y)
        assert (a * b).coeffs == _ref_mul(a, b)
        assert (b * a).coeffs == _ref_mul(b, a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 23), (2, 8), (3, 9), (4, 12), (6, 78), (13, 78), (5, 5)])
       .flatmap(lambda nm: st.tuples(st.just(nm[1]), _kernel_elements(nm[0]))))
def test_kernel_embed_matches_reference(case):
    m, a = case
    step = m // a.conductor
    out = a.embed(m)
    assert out.coeffs == _ref_powers(m, [(j * step, c) for j, c in enumerate(a.coeffs)])
    _assert_normal(out)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS).flatmap(
    lambda n: st.tuples(_kernel_elements(n), st.integers(-3 * n - 5, 3 * n + 5))
))
def test_kernel_galois_matches_reference(case):
    a, k = case
    n = a.conductor
    if gcd(k, n) != 1:
        return
    out = a.galois(k)
    assert out.coeffs == _ref_powers(n, [(j * k, c) for j, c in enumerate(a.coeffs)])
    _assert_normal(out)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_CONDUCTORS).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(st.integers(-2 * n, 3 * n), _coefficient, max_size=2 * n + 3),
    )
))
def test_kernel_from_powers_matches_reference(case):
    n, weights = case
    out = CycloNum.from_powers(n, weights)
    assert out.coeffs == _ref_powers(n, weights.items())
    _assert_normal(out)
    dense = [0] * n
    for e, w in weights.items():
        dense[e % n] += w
    assert CycloNum.from_powers(n, dense) == out


@pytest.mark.parametrize("n", KERNEL_CONDUCTORS)
def test_kernel_root_of_unity_matches_reference(n):
    for k in list(range(-n - 2, 2 * n + 3)) + [10**20 + 3, -(10**20) - 7]:
        assert root_of_unity(n, k).coeffs == _ref_powers(n, [(k, 1)])


# ------------------------------------------------- packed nonnegative tallies

PACKED_CONDUCTORS = [1, 2, 12, 78, 342, 506]
# coefficient bounds filling 1, 2, 4 and 8 bytes exactly, and wider slots
EXACT_BOUNDS = [255, 2**16 - 1, 2**32 - 1, 2**64 - 1, 2**64, 2**80]


def _vectors(rng, n, count, top):
    """count random nonnegative vectors of length n or 3n+1, entries <= top."""
    return [[rng.randint(0, top) for _ in range(rng.choice((n, 3 * n + 1)))]
            for _ in range(count)]


def _pack(n, bound, v):
    return _Packed.tally(n, bound, enumerate(v))


def _powers(n, v):
    return CycloNum.from_powers(n, dict(enumerate(v)))


def _same(a, b):
    return (a.conductor, a.num, a.den) == (b.conductor, b.num, b.den)


def _times(x, y):
    """The packed product as _GaussPair.__mul__ forms it: one multiply of the
    packed ints, folded once, its total the product of the totals."""
    return _Packed(x.n, x.bound, x.width, x.value * y.value, x.total * y.total)


@pytest.mark.parametrize("n", PACKED_CONDUCTORS)
@pytest.mark.parametrize("top", [1, 200, 2**20, 2**40])
def test_packed_product_matches_cyclonum(n, top):
    # vectors of length 3n+1 make linear products that wrap x^n - 1 six times
    rng = random.Random(n * top)
    for a, b in zip(*[iter(_vectors(rng, n, 6, top))] * 2):
        bound = max(sum(a) * sum(b), sum(a), sum(b))
        prod = _times(_pack(n, bound, a), _pack(n, bound, b))
        assert prod.total == sum(a) * sum(b)
        assert _same(prod.read(), _powers(n, a) * _powers(n, b))
        assert _same(_pack(n, bound, a).read(), _powers(n, a))


@pytest.mark.parametrize("n", PACKED_CONDUCTORS)
def test_packed_rotated_sum_and_dot_match_cyclonum(n):
    rng = random.Random(n)
    for top in (1, 1000, 2**50):
        xs, ys = _vectors(rng, n, 4, top), _vectors(rng, n, 4, top)
        shifts = [rng.randint(-3 * n, 3 * n) for _ in xs]
        bound = sum(map(sum, xs)) * max(1, *map(sum, ys))
        px, py = [_pack(n, bound, x) for x in xs], [_pack(n, bound, y) for y in ys]
        rotated = _Packed.rotated_sum(px, shifts)
        assert rotated.total == sum(map(sum, xs))
        ref = sum((_powers(n, x) * root_of_unity(n, s) for x, s in zip(xs, shifts)),
                  CycloNum.zero(n))
        assert _same(rotated.read(), ref)
        dot = _Packed.rotated_sum([_times(x, y) for x, y in zip(px, py)], [0] * len(px))
        ref = sum((_powers(n, x) * _powers(n, y) for x, y in zip(xs, ys)), CycloNum.zero(n))
        assert _same(dot.read(), ref)
        # with weights: each row once, times its weight
        weights = [rng.randint(1, 3) for _ in xs]
        px = [_pack(n, 3 * bound, x) for x in xs]
        weighted = _Packed.rotated_sum(px, shifts, weights)
        assert weighted.total == sum(w * sum(x) for x, w in zip(xs, weights))
        ref = sum((_powers(n, x) * root_of_unity(n, s) * w
                   for x, s, w in zip(xs, shifts, weights)), CycloNum.zero(n))
        assert _same(weighted.read(), ref)


@pytest.mark.parametrize("n", PACKED_CONDUCTORS)
@pytest.mark.parametrize("weighted", [False, True])
def test_packed_times_match_cyclonum(n, weighted):
    # x times the sum of w * x^e over the terms, exponents indexed mod n
    rng = random.Random(n + weighted)
    for top in (5, 2**20, 1):
        v = [rng.randint(0, top) for _ in range(n)]
        terms = {rng.randrange(n): rng.randint(1, 3) if weighted else 1 for _ in range(5)}
        bound = sum(v) * sum(terms.values())
        got = _pack(n, bound, v).times(terms.items())
        ref = sum((_powers(n, v) * root_of_unity(n, e) * w for e, w in terms.items()),
                  CycloNum.zero(n))
        assert got.total == bound
        assert _same(got.read(), ref)


@pytest.mark.parametrize("n", PACKED_CONDUCTORS)
@pytest.mark.parametrize("weighted", [False, True])
def test_packed_class_products_match_cyclonum(n, weighted):
    # the norm-class grid step: m classes of length n as the rows of one packed
    # grid with rows of 2n - 1 slots; row k of the product is the sum of
    # w * classes[k - d] * x^e over the terms ((e, d), w), classes indexed mod m
    from finhyp.hypergeometric import _grid_sum

    rng = random.Random(n + weighted)
    span = 2 * n - 1
    for m, top in ((1, 5), (3, 2**20), (7, 1)):
        classes = [[rng.randint(0, top) for _ in range(n)] for _ in range(m)]
        terms = {(rng.randrange(n), rng.randrange(m)): rng.randint(1, 3) if weighted else 1
                 for _ in range(5)}
        bound = sum(map(sum, classes)) * sum(terms.values())
        grid = _Packed.tally(m * span, bound, ((k * span + j, c) for k, v in enumerate(classes)
                                               for j, c in enumerate(v)))
        out = _grid_sum([(grid, {d * span + e: w for (e, d), w in terms.items()})], m, n)
        rows = [out.cut(k * span, 1, n, 1, 0) for k in range(m)]
        assert out.total == sum(row.total for row in rows) == bound
        for k, got in enumerate(rows):
            ref = sum((_powers(n, classes[(k - d) % m]) * root_of_unity(n, e) * w
                       for (e, d), w in terms.items()), CycloNum.zero(n))
            assert got.total == sum(sum(classes[(k - d) % m]) * w for (e, d), w in terms.items())
            assert _same(got.read(), ref)


@pytest.mark.parametrize("bound", EXACT_BOUNDS)
@pytest.mark.parametrize("n", [1, 12, 342])
def test_packed_coefficient_equal_to_bound(n, bound):
    # the bound itself must fit its slot, through every operation and the read
    v = [0] * n
    v[n // 2] = bound
    x = _pack(n, bound, v)
    ref = CycloNum.from_powers(n, {n // 2: bound})
    assert _same(x.read(), ref)
    one = _pack(n, bound, [0, 1])
    assert _same(_times(x, one).read(), ref * root_of_unity(n, 1))
    assert _same(_Packed.rotated_sum([x], [n + 5]).read(), ref * root_of_unity(n, 5))
    split = _Packed.rotated_sum([_pack(n, bound, [bound - 1]), _pack(n, bound, [1])], [0, 0])
    assert _same(split.read(), CycloNum.from_rational(bound, n))


def _small_groups(n):
    """Groups of units mod n: the one that -1 generates, and the one that the
    least unit k > 1 of order 3 to 12 generates, if there is one."""
    def generated(k):
        return tuple(sorted({pow(k, i, n) or 1 for i in range(13)}))
    units = [k for k in range(2, n) if gcd(k, n) == 1]
    return [generated(n - 1)] + [generated(k) for k in units if 2 < len(generated(k)) <= 12][:1]


@pytest.mark.parametrize("n", PACKED_CONDUCTORS)
@pytest.mark.parametrize("bound", EXACT_BOUNDS)
def test_packed_galois_matches_cyclonum(n, bound):
    # the read traced over a group of units is the sum of the CycloNum Galois
    # images, with and without minus, at every slot width
    rng = random.Random(n + bound)
    for top in (1, bound // max(n, 1), bound):
        v, w = ([rng.randint(0, top) for _ in range(n)] for _ in range(2))
        x, y = (_Packed.tally(n, bound * n, enumerate(u)) for u in (v, w))
        for group in _small_groups(n):
            ref = sum((x.read().galois(k) for k in group), CycloNum.zero(n))
            assert _same(x.read(group=group), ref), (n, group)
            ref -= sum((y.read().galois(k) for k in group), CycloNum.zero(n))
            assert _same(x.read(y, group), ref), (n, group)


@pytest.mark.parametrize("width", [9, 11, 16])
def test_wide_slots_round_trip_against_to_bytes(width):
    # entries of every size up to the full slot, both ends included
    rng = random.Random(width)
    top = 1 << (8 * width)
    for v in ([0] * 7, [top - 1, 0, 1, top - 1],
              [rng.randrange(1 << rng.randrange(1, 8 * width + 1)) for _ in range(500)],
              [rng.randrange(300) for _ in range(500)]):
        ref = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in v), "little")
        assert _to_slots(v, width) == ref
        assert _from_slots(ref, width, len(v)) == v


@pytest.mark.parametrize("n,step", [(1, 1), (12, 3), (78, 3), (342, 19), (506, 2)])
def test_packed_cut_inverts_spread(n, step):
    rng = random.Random(n)
    m = n // step
    for bound in (255, 2**64 - 1, 2**80):
        vs = [[rng.randint(0, bound // n) for _ in range(m)] for _ in range(2)]
        xs = [_pack(m, bound, v) for v in vs]
        spread = _spread(n, bound, vs[0])
        assert _packed_fields(xs[0].cut(0, 1, n, step, 0)) == _packed_fields(spread)
        assert _packed_fields(spread.cut(0, step, m, 1, 0)) == _packed_fields(xs[0])
        # slots start + i*step, i < m, spread by 3 and rotated by shift
        start, shift = rng.randrange(step), rng.randrange(-3 * m, 3 * m)
        got = spread.times([(start, 1)]).cut(start, step, 3 * m, 3, shift)
        ref = _Packed.rotated_sum([_spread(3 * m, bound, vs[0])], [shift])
        assert _packed_fields(got) == _packed_fields(ref) and got.total == sum(vs[0])
        if step > 1:  # one cut per start: slots 0 and 1 of every step hold xs[0] and xs[1]
            both = _Packed.rotated_sum([_spread(n, bound, v) for v in vs], [0, 1])
            for start, x in enumerate(xs):
                assert _packed_fields(both.cut(start, step, m, 1, 0)) == _packed_fields(x)


@pytest.mark.parametrize("n,step", [(1, 1), (12, 3), (78, 3), (342, 19), (506, 2)])
def test_packed_strided_inverts_spread(n, step):
    # a strided cut from any start, past the first step too, reads back the
    # vector that was spread and rotated to that start
    rng = random.Random(n)
    for bound in (255, 2**64 - 1, 2**80):
        v = [rng.randint(0, bound // n) for _ in range(n // step)]
        x = _pack(n // step, bound, v)
        start = rng.randrange(n)
        got = _Packed.rotated_sum([_spread(n, bound, v)], [start]).cut(start, step, n // step, 1, 0)
        assert _packed_fields(got) == _packed_fields(x) and got.total == sum(v)


def _spread(n, bound, v):
    """v at length n, a multiple of len(v): entry i in slot i*n/len(v)."""
    return _Packed.tally(n, bound, ((i * (n // len(v)), x) for i, x in enumerate(v)))


def _packed_fields(x):
    return (x.n, x.width, x.value, x.total)


@pytest.mark.parametrize("n", [1, 12, 506])
def test_packed_sum_over_bound_raises(n):
    rng = random.Random(n)
    a, b = _vectors(rng, n, 2, 300)
    sa, sb = sum(a), sum(b)
    with pytest.raises(InternalInconsistency):
        _pack(n, sa - 1, a)
    x, y = _pack(n, sa * sb - 1, a), _pack(n, sa * sb - 1, b)
    with pytest.raises(InternalInconsistency):
        _times(x, y)
    x, y = _pack(n, sa + sb - 1, a), _pack(n, sa + sb - 1, b)
    with pytest.raises(InternalInconsistency):
        _Packed.rotated_sum([x, y], [0, 3])
    assert _Packed.rotated_sum([x], [3]).total == sa
    with pytest.raises(InternalInconsistency):  # weights count against the bound
        _Packed.rotated_sum([x, y], [0, 3], [1, 2])
    assert _Packed.rotated_sum([x, y], [0, 3], [1, 0]).total == sa


# ------------------------------------------------------ hash/eq contract


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(4, 12), (3, 6), (5, 20), (12, 60)])
       .flatmap(lambda nm: st.tuples(st.just(nm[1]), _elements(nm[0]))))
def test_hash_agrees_with_eq_across_embeddings(case):
    m, a = case
    b = a.embed(m)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_hash_of_rational_matches_fraction():
    for r in (0, 1, -7, Fraction(3, 5), Fraction(-22, 7)):
        for n in (1, 2, 5, 12, 60):
            x = CycloNum.from_rational(r, n)
            assert hash(x) == hash(Fraction(r)) == hash(r)
            assert len({x, r}) == 1
    i = root_of_unity(4, 1)
    assert len({i, i.embed(12), root_of_unity(12, 3), -i}) == 2
