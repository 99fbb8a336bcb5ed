"""The list reads: one call reads a route at every t of a list.

Each route's list read is compared with the brute-force values of
tests/oracles.py at every t it is given, for lane counts 1, 2 and q-1, with
the lanes in one chunk and in one chunk each.  The lane kernels of cyclo
are compared with CycloNum arithmetic at slot widths above 8 bytes.
"""

import json
import random
from fractions import Fraction

import pytest

from finhyp import cyclo
from finhyp.charsums import AlgebraChar, SemisimpleAlgebra
from finhyp.cli import main
from finhyp.cyclo import CycloNum, _Packed, _read_rotated, _read_times, root_of_unity
from finhyp.errors import InternalInconsistency
from finhyp.finfield import make_field
from finhyp.hypergeometric import (
    HGAlgebraInstance,
    _reads_at_big,
    _row_stabilizer,
    algebra_sums_direct,
    algebra_sums_fourier,
    classic_sums,
    split_instance,
)
from finhyp.padic import padic_sums_direct, padic_sums_via_orbits
from finhyp.params import HGParams

import oracles


def _hand_built(p, a_degrees, b_degrees, a_exps, b_exps):
    base = make_field(p)
    A = SemisimpleAlgebra(base, [make_field(p, d) for d in a_degrees])
    B = SemisimpleAlgebra(base, [make_field(p, d) for d in b_degrees])
    return HGAlgebraInstance(A, B, AlgebraChar.from_exponents(A, a_exps),
                             AlgebraChar.from_exponents(B, b_exps))


def _cases():
    return {
        # equidimensional, read at big, rows in orbits of |G| = 2
        "split_q7": split_instance(HGParams.parse("1/3,2/3", "0,0"), 7),
        # dim A - dim B = 1 at p = 3: read at p big, where p-1 does not divide it
        "lifted_p3": _hand_built(3, [2], [1], [3], [1]),
        # dim A - dim B = 1 at p = 5, with a component of degree 2 on A
        "lifted_p5": _hand_built(5, [1, 1], [1], [1, 2], [3]),
    }


def _lane_sets(field):
    units = [field.unit(j) for j in range(field.q - 1)]
    return [units[:1], units[1:3], units]


@pytest.mark.parametrize("case", ["split_q7", "lifted_p3", "lifted_p5"])
@pytest.mark.parametrize("twist", [1, 2])
@pytest.mark.parametrize("lane_bytes", [None, 1])
def test_complex_list_reads_match_bruteforce(case, twist, lane_bytes, monkeypatch):
    inst = _cases()[case]
    if lane_bytes is not None:  # every lane a chunk of its own
        monkeypatch.setattr(cyclo, "_LANE_BYTES", lane_bytes)
    assert _reads_at_big(inst) == (case == "split_q7")
    if case == "split_q7":
        assert len(_row_stabilizer(inst, 6)) == 2
    for ts in _lane_sets(inst.base):
        want = [oracles.direct_sum(inst, t, twist) for t in ts]
        assert algebra_sums_direct(inst, ts, twist) == want
        assert algebra_sums_fourier(inst, ts, twist) == want


def test_classic_list_read_matches_bruteforce():
    params, q = HGParams.parse("1/4,3/4", "0,1/2"), 5
    inst = split_instance(params, q)
    alt = inst.base.nth_generator(1)
    for ts in _lane_sets(inst.base):
        want = [oracles.direct_sum(inst, t) for t in ts]
        assert classic_sums(params, q, ts) == want
        assert classic_sums(params, q, ts, generator=alt) == want


@pytest.mark.parametrize("params,p", [("1/2,1/2;0,0", 7), ("1/4,3/4;0,1/2", 5),
                                      ("1/3,2/3;1/2,1/2", 7)])
def test_padic_list_reads_match_bruteforce(params, p):
    params = HGParams.parse(*params.split(";"))
    for ts in ([1], [2, p - 1], list(range(1, p))):
        direct = padic_sums_direct(params, p, ts, 6)
        orbits = padic_sums_via_orbits(params, p, ts, 6)
        for t, a, b in zip(ts, direct, orbits, strict=True):
            want = oracles.sum_direct(params, p, t, 6)
            assert a == want and b == oracles.sum_via_orbits(params, p, t, 6) == want


def test_hq_all_t_prints_what_each_t_prints(capsys):
    base = ["hq", "--alpha", "1/3,2/3", "--beta", "0,0", "--q", "7", "--json"]
    for algebra in ([], ["--algebra", "split"], ["--algebra", "orbits"]):
        assert main(base + algebra + ["--all-t"]) == 0
        every = json.loads(capsys.readouterr().out)["results"]
        assert sorted(entry["t"] for entry in every) == list(range(1, 7))
        single = []
        for entry in every:
            assert main(base + algebra + ["--t", str(entry["t"])]) == 0
            single += json.loads(capsys.readouterr().out)["results"]
        assert every == single


# ------------------------------------------------------------ lane kernels


def _random_tally(rng, n, bound):
    v = [rng.randrange(bound // n) for _ in range(n)]
    return v, _Packed.tally(n, bound, enumerate(v))


def _spread_rotated(v, start, step, n, spacing, shift):
    """The reference vector of one gather piece: slot start + k*step of v in
    slot shift + k*spacing, k < n/spacing."""
    out = [0] * n
    for k in range(n // spacing):
        out[(shift + k * spacing) % n] += v[(start + k * step) % len(v)]
    return out


@pytest.mark.parametrize("bound", [200, 2**40, 2**70])
@pytest.mark.parametrize("lane_bytes", [None, 1])
def test_read_times_matches_cyclonum(bound, lane_bytes, monkeypatch):
    # lanes of two pieces on plus and one on minus, from sources at slot
    # widths up to 9 bytes, times a factor with signed coordinates
    if lane_bytes is not None:
        monkeypatch.setattr(cyclo, "_LANE_BYTES", lane_bytes)
    rng = random.Random(bound)
    n, spacing, step = 12, 2, 5
    (u, x), (w, y) = _random_tally(rng, 30, bound // 3), _random_tally(rng, 30, bound // 3)
    assert bound < 2**64 or x.width > 8
    factor = CycloNum(n, [rng.randint(-9, 9) for _ in range(4)]) * Fraction(rng.choice([1, 3]), 7)
    lanes = [(rng.randrange(30), rng.randrange(n), rng.randrange(30), rng.randrange(n))
             for _ in range(7)]
    plus = [[(x, a, 2 * s), (y, b, 2 * s + 1)] for a, s, b, _ in lanes]
    minus = [[(y, b, r)] for _, _, b, r in lanes]
    got = _read_times(plus, minus, step, n, spacing, factor, bound)
    for (a, s, b, r), value in zip(lanes, got, strict=True):
        vec = [p0 + p1 - m for p0, p1, m in zip(
            _spread_rotated(u, a, step, n, spacing, 2 * s),
            _spread_rotated(w, b, step, n, spacing, 2 * s + 1),
            _spread_rotated(w, b, step, n, spacing, r))]
        assert value == CycloNum.from_powers(n, vec) * factor


@pytest.mark.parametrize("width", [2, 9])
@pytest.mark.parametrize("lane_bytes", [None, 1])
def test_read_rotated_matches_cyclonum(width, lane_bytes, monkeypatch):
    # signed rows rotated per step and traced over a group of units mod n
    if lane_bytes is not None:
        monkeypatch.setattr(cyclo, "_LANE_BYTES", lane_bytes)
    rng = random.Random(width)
    n, top = 20, (1 << 8 * width - 1) // 40
    rows = [(m, [rng.randint(-top, top) for _ in range(n)]) for m in (0, 1, 3)]
    packed = [(m, sum(c << 8 * width * j for j, c in enumerate(v))) for m, v in rows]
    steps = [0, 1, 7, 19, 5]
    for group in [(1,), (1, 9), (1, 3, 7, 9)]:
        got = _read_rotated(packed, steps, n, width, group, 6)
        for s, value in zip(steps, got, strict=True):
            sum_ = sum((CycloNum.from_powers(n, v) * root_of_unity(n, m * s) for m, v in rows),
                       CycloNum.zero(n))
            ref = sum((sum_.galois(k) for k in group), CycloNum.zero(n))
            assert value == ref / 6


def test_read_times_refuses_a_lane_over_the_bound():
    # each lane is within the bound of its source, but plus and minus together are not
    x = _Packed.tally(4, 10, [(0, 6), (1, 4)])
    with pytest.raises(InternalInconsistency):
        _read_times([[(x, 0, 0)]], [[(x, 0, 1)]], 1, 4, 1, CycloNum.one(4), 15)
