import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhyp import clear_caches
from finhyp.errors import (
    FieldTooLarge,
    LengthMismatch,
    MalformedValue,
    NotPrime,
    NotSubfield,
    ZeroElement,
)
from finhyp.finfield import (
    MAX_FIELD_SIZE,
    _smallest_irreducible,
    factorize,
    is_prime,
    make_field,
    prime_power,
)

FIELD_MODULI = Path(__file__).parent / "data" / "field_moduli.json"


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 9973, 65537}
    for n in range(2, 100):
        assert is_prime(n) == all(n % d for d in range(2, n))
    for n in primes:
        assert is_prime(n)
    assert not is_prime(1) and not is_prime(0)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(49) == {7: 2}


def test_generator_of_f5():
    # 2 is the least primitive root: 2^2 = 4 != 1 and 2^4 = 16 = 1 mod 5
    F5 = make_field(5)
    assert F5.generator == F5.elem(2)
    assert F5.generator ** 2 != F5.one()
    assert F5.generator ** 4 == F5.one()


def test_f4_modulus_unique():
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_not_prime():
    with pytest.raises(NotPrime):
        make_field(4)


def test_prime_power():
    assert prime_power(7) == (7, 1)
    assert prime_power(81) == (3, 4)
    for q in (12, 1, 0):
        with pytest.raises(NotPrime):
            prime_power(q)


def test_field_too_large():
    with pytest.raises(FieldTooLarge):
        make_field(2, 17)


@pytest.mark.parametrize("q", [MAX_FIELD_SIZE + 1, 1000000007, 3**20])
def test_prime_power_refuses_q_above_the_bound(q):
    # refused before trial division, which would not end at q = 2^61 - 1;
    # the CLI tests run that q in a subprocess with a timeout
    with pytest.raises(FieldTooLarge):
        prime_power(q)


def test_modulus_is_lex_smallest_irreducible():
    # pinned: skipping candidates divisible by x must not change any modulus
    assert _smallest_irreducible(2, 16) == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)
    assert _smallest_irreducible(3, 10) == (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)
    assert _smallest_irreducible(5, 6) == (1, 0, 0, 0, 1, 1, 1)
    assert _smallest_irreducible(7, 5) == (1, 0, 0, 0, 3, 1)
    assert make_field(7, 5).modulus == (1, 0, 0, 0, 3, 1)


def test_moduli_match_the_pinned_table():
    # (p, f, modulus) for every field with f >= 2 and p^f <= 2^16, as the
    # Rabin irreducibility test found them
    rows = json.loads(FIELD_MODULI.read_text())
    assert len(rows) == 93
    for p, f, modulus in rows:
        assert _smallest_irreducible(p, f) == tuple(modulus), (p, f)


def test_modulus_irreducible_bruteforce():
    # no roots and, for degree <= 3, rootlessness is irreducibility
    for p, f in ((3, 2), (3, 3), (5, 2), (7, 2)):
        field = make_field(p, f)
        mod = field.modulus
        for x in range(p):
            value = sum(c * x**i for i, c in enumerate(mod)) % p
            assert value != 0, (p, f, x)


def test_trace_of_one():
    for p, f in ((3, 2), (3, 4), (5, 2), (2, 4)):
        field = make_field(p, f)
        assert field.trace_int(field.one()) == f % p


def test_trace_is_linear():
    field = make_field(3, 3)
    rng = random.Random(0)
    for _ in range(30):
        x = field.elem(rng.randrange(27))
        y = field.elem(rng.randrange(27))
        assert field.trace_int(x + y) == (field.trace_int(x) + field.trace_int(y)) % 3


def test_norm_of_generator_generates_subfield():
    field = make_field(3, 4)
    sub = make_field(3)
    n = field.norm_to(field.generator, 1)
    # order of n in F_3^* must be p - 1 = 2
    assert n != sub.one()
    assert n * n == sub.one()


def test_dlog_table():
    field = make_field(3, 2)
    assert field.dlog(field.one()) == 0
    assert field.dlog(field.generator) == 1
    with pytest.raises(ZeroElement):
        field.dlog(field.zero())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 79), st.integers(0, 79))
def test_dlog_homomorphism(i, j):
    field = make_field(3, 4)
    x, y = field.unit(i), field.unit(j)
    assert (field.dlog(x) + field.dlog(y)) % 80 == field.dlog(x * y)


def test_frobenius_properties():
    field = make_field(5, 2)
    rng = random.Random(1)
    fixed = []
    for code in range(25):
        x = field.elem(code)
        fx = field.frobenius(x)
        if fx == x:
            fixed.append(x)
        y = field.elem(rng.randrange(25))
        assert field.frobenius(x * y) == fx * field.frobenius(y)
        assert field.frobenius(x + y) == fx + field.frobenius(y)
    # Frobenius fixes exactly the prime field
    assert len(fixed) == 5


def test_trace_norm_transitivity():
    big = make_field(3, 4)
    mid = make_field(3, 2)
    rng = random.Random(2)
    for _ in range(25):
        x = big.elem(rng.randrange(81))
        assert big.trace_to(x, 1) == mid.trace_to(big.trace_to(x, 2), 1)
        assert big.norm_to(x, 1) == mid.norm_to(big.norm_to(x, 2), 1)


def test_not_subfield():
    field = make_field(2, 4)
    with pytest.raises(NotSubfield):
        field.trace_to(field.one(), 3)


def test_unit_order():
    field = make_field(7, 2)
    rng = random.Random(3)
    for _ in range(20):
        x = field.unit(rng.randrange(48))
        assert x ** 48 == field.one()


def test_embedding_ring_hom():
    big = make_field(2, 4)
    sub = make_field(2, 2)
    for a in range(4):
        for b in range(4):
            x, y = sub.elem(a), sub.elem(b)
            assert big.embed_from(x * y) == big.embed_from(x) * big.embed_from(y)
            assert big.embed_from(x + y) == big.embed_from(x) + big.embed_from(y)


def test_norm_unit_dlog_consistency():
    big = make_field(3, 4)
    sub = make_field(3, 2)
    a = big.norm_unit_dlog(2)
    for j in (0, 1, 7, 40):
        assert big.norm_to(big.unit(j), 2) == sub.unit(j * a)


def test_element_int_codes():
    field = make_field(3, 2)
    for code in range(9):
        assert field.elem(code).to_int() == code


def test_elem_rejects_foreign_or_misshapen_values():
    # a field built before clear_caches() is another field after it
    stale = make_field(3).elem(2)
    clear_caches()
    with pytest.raises(MalformedValue, match="another field"):
        make_field(3).elem(stale)
    with pytest.raises(MalformedValue, match="coefficients"):
        make_field(3, 2).elem([1, 2, 0])


def test_nth_generator():
    field = make_field(13)
    g0 = field.nth_generator(0)
    g1 = field.nth_generator(1)
    assert g0 == field.generator
    assert g1 != g0
    # both really generate
    for g in (g0, g1):
        assert len({(g ** k).to_int() for k in range(12)}) == 12
    # F_5^x has phi(4) = 2 generators
    with pytest.raises(LengthMismatch):
        make_field(5).nth_generator(2)
