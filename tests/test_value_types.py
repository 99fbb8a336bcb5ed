"""Python invariants of the package's value types: equal values hash alike,
a changed field breaks equality, the cache-key types are immutable, and
reprs keep their established format."""

import importlib
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import finhyp
from finhyp._value import Value
from finhyp.charsums import AlgebraChar, MultChar, SemisimpleAlgebra
from finhyp.checks import CheckReport
from finhyp.finfield import make_field
from finhyp.hypergeometric import (
    HGAlgebraInstance,
    _direct_tally,
    algebra_sum_direct,
    split_instance,
)
from finhyp.params import HGParams

F = Fraction
F5, F25 = make_field(5), make_field(5, 2)
ALG = SemisimpleAlgebra(F5, [F5, F25])
OTHER_ALG = SemisimpleAlgebra(F5, [F5, F25])  # same components, another algebra
A1, B1 = SemisimpleAlgebra(F5, [F5]), SemisimpleAlgebra(F5, [F5])


def _instance(A=A1, B=B1, a=1, b=2):
    return HGAlgebraInstance(A, B, AlgebraChar.from_exponents(A, [a]),
                             AlgebraChar.from_exponents(B, [b]))


# type name: (a function making one fixed value, functions that each change one field)
VALUES = {
    "MultChar": (lambda: MultChar(F5, 3), [lambda: MultChar(F25, 3), lambda: MultChar(F5, 2)]),
    "AlgebraChar": (
        lambda: AlgebraChar.from_exponents(ALG, [1, 6]),
        [lambda: AlgebraChar.from_exponents(OTHER_ALG, [1, 6]),
         lambda: AlgebraChar.from_exponents(ALG, [1, 7])],
    ),
    "HGAlgebraInstance": (
        _instance,
        [lambda: _instance(A=SemisimpleAlgebra(F5, [F5])),
         lambda: _instance(B=SemisimpleAlgebra(F5, [F5])),
         lambda: _instance(a=3), lambda: _instance(b=0)],
    ),
    "HGParams": (
        lambda: HGParams([F(1, 2), F(1, 4)], [0, 0]),
        [lambda: HGParams([F(1, 2), F(3, 4)], [0, 0]),
         lambda: HGParams([F(1, 2), F(1, 4)], [0, F(1, 3)])],
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_hash_alike_and_one_field_breaks_equality(name):
    build, changes = VALUES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for change in changes:
        c = change()
        assert a != c and not a == c, c


@pytest.mark.parametrize("name, field", [("MultChar", "e"), ("AlgebraChar", "chars"),
                                         ("HGAlgebraInstance", "chiA"), ("HGParams", "alpha")])
def test_hashable_values_are_immutable(name, field):
    value = VALUES[name][0]()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def _value_types(cls=Value):
    """Every subclass of cls, once every module of the package is imported."""
    for module in pkgutil.iter_modules(finhyp.__path__):
        importlib.import_module(f"finhyp.{module.name}")
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_types(sub)


def test_every_hashable_value_type_is_pinned_here():
    hashable = {cls.__name__ for cls in _value_types() if cls.__hash__ is not None}
    assert hashable == set(VALUES)


def test_check_report_is_the_only_mutable_value_type():
    mutable = [cls for cls in _value_types() if cls.__setattr__ is not Value.__setattr__]
    assert mutable == [CheckReport] and CheckReport.__hash__ is None


@pytest.mark.parametrize("p, f", [(5, 1), (3, 2)])
def test_field_elements_hash_like_the_ints_they_equal(p, f):
    field = make_field(p, f)
    for code in range(field.q):
        x = field.elem(code)
        assert x == code and len({x, code}) == 1
        for n in range(-2 * field.q, 3 * field.q):
            if x == n:
                assert hash(x) == hash(n), (x, n)


def test_mult_char_reduces_its_exponent():
    assert MultChar(F5, 3 + 4) == MultChar(F5, 3)
    assert MultChar(F25, -1).e == 23 and MultChar(F25, 23 + 24) == MultChar(F25, 23)
    assert hash(MultChar(F5, 7)) == hash(MultChar(F5, 3))


def test_value_reprs_keep_their_format():
    assert repr(MultChar(F5, 7)) == "MultChar(field=GF(5), e=3)"
    assert repr(AlgebraChar.from_exponents(ALG, [1, 30])) == (
        "AlgebraChar(algebra=[GF(5) + GF(5^2) over GF(5)], "
        "chars=(MultChar(field=GF(5), e=1), MultChar(field=GF(5^2), e=6)))"
    )
    assert repr(split_instance(HGParams.parse("1/2", "0"), 5)) == (
        "HGAlgebraInstance(A=[GF(5) over GF(5)], B=[GF(5) over GF(5)], "
        "chiA=AlgebraChar(algebra=[GF(5) over GF(5)], chars=(MultChar(field=GF(5), e=2),)), "
        "chiB=AlgebraChar(algebra=[GF(5) over GF(5)], chars=(MultChar(field=GF(5), e=0),)))"
    )
    assert repr(HGParams.parse("1/2", "0")) == "HGParams([Fraction(1, 2)], [Fraction(0, 1)])"
    assert repr(CheckReport("fourier", "x", "fail", {"t": 2}, 7)) == (
        "CheckReport(check='fourier', instance='x', verdict='fail', witness={'t': 2}, millis=7)"
    )


def test_check_report_compares_by_fields_and_is_unhashable():
    report = CheckReport("fourier", "x", "pass")
    assert report == CheckReport(check="fourier", instance="x", verdict="pass",
                                 witness=None, millis=0)
    for changed in (CheckReport("gauss_norm", "x", "pass"), CheckReport("fourier", "y", "pass"),
                    CheckReport("fourier", "x", "fail"), CheckReport("fourier", "x", "pass", {}),
                    CheckReport("fourier", "x", "pass", None, 1)):
        assert report != changed
    with pytest.raises(TypeError):
        hash(report)
    report.millis = 5
    assert report.millis == 5 and report != CheckReport("fourier", "x", "pass")


def test_equal_instance_hits_the_direct_cache():
    inst = split_instance(HGParams.parse("1/3,2/3", "0,0"), 7)
    algebra_sum_direct(inst, 2)
    # algebras compare by identity, so an equal instance shares them
    twin = HGAlgebraInstance(inst.A, inst.B,
                             AlgebraChar.from_exponents(inst.A, inst.chiA.exponents),
                             AlgebraChar.from_exponents(inst.B, inst.chiB.exponents))
    assert twin is not inst and twin == inst and hash(twin) == hash(inst)
    before = _direct_tally.cache_info()
    assert algebra_sum_direct(twin, 2) == algebra_sum_direct(inst, 2)
    after = _direct_tally.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import finhyp.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
