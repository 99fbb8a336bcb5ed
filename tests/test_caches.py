import importlib
import pkgutil
from fractions import Fraction

import finhyp
from finhyp import clear_caches, padic
from finhyp.charsums import AlgebraChar, SemisimpleAlgebra
from finhyp.finfield import make_field
from finhyp.hypergeometric import (
    HGAlgebraInstance,
    _denominator_inverse,
    _fourier_coefficients,
    _lifted_rows,
    _reads_at_big,
    algebra_sum_direct,
    algebra_sum_fourier,
    classic_sum,
    katz_unnormalized,
    orbit_instance,
)
from finhyp.padic import padic_sum_direct
from finhyp.params import HGParams

F = Fraction


def _caches():
    """Every lru_cache of the package, found by scanning its modules and
    their classes, and the memo tables of padic."""
    found = {}
    for info in pkgutil.iter_modules(finhyp.__path__):
        module = importlib.import_module(f"finhyp.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from another module
            members = vars(obj).items() if isinstance(obj, type) else [("", obj)]
            for attr, member in members:
                if hasattr(member, "cache_info"):
                    found[f"{module.__name__}.{name}.{attr}".rstrip(".")] = member
    sizes = {name: fn.cache_info().currsize for name, fn in found.items()}
    for name in ("_gamma_cache", "_gamma_blocks", "_unit_terms"):
        sizes[f"finhyp.padic.{name}"] = len(getattr(padic, name))
    return sizes


def test_clear_caches_empties_every_cache():
    params = HGParams([F(1, 4), F(3, 4)], [0, F(1, 2)])
    classic_sum(params, 5, 2)
    katz_unnormalized(params, 5, 2)  # the lift path and its cache
    inst = orbit_instance(HGParams.parse("1/2,1/4,3/4", "0,1/8,3/8"), 3)
    value = algebra_sum_direct(inst, 2)
    algebra_sum_fourier(inst, 2)
    padic_sum_direct(params, 5, 2, 4)
    params.denominator_exponent()
    before = _caches()
    assert len(before) == 19
    assert all(before.values()), before
    clear_caches()
    assert not any(_caches().values())
    # the expansion of an instance built before the call needs no new field
    assert algebra_sum_fourier(inst, 2) == value
    clear_caches()
    # a new instance over the new fields computes the same value from cold
    inst = orbit_instance(HGParams.parse("1/2,1/4,3/4", "0,1/8,3/8"), 3)
    assert algebra_sum_direct(inst, 2) == algebra_sum_fourier(inst, 2) == value


def test_twisted_values_share_the_caches_of_twist_1():
    # rows, lifts and denominator inverses are keyed by the instance alone: a
    # twist is applied to each value, not tabulated
    clear_caches()
    f5 = make_field(5)
    A = SemisimpleAlgebra(f5, [f5, make_field(5, 2)])
    B = SemisimpleAlgebra(f5, [f5])
    lifted = HGAlgebraInstance(A, B, AlgebraChar.from_exponents(A, [3, 7]),
                               AlgebraChar.from_exponents(B, [2]))
    at_big = orbit_instance(HGParams.parse("1/4,3/4", "0,1/2"), 5)
    assert not _reads_at_big(lifted) and _reads_at_big(at_big)
    for inst in (lifted, at_big):
        for twist in (1, 2, 4):
            for t in (1, 2, 3):
                algebra_sum_fourier(inst, t, twist)
                algebra_sum_direct(inst, t, twist)
    assert _fourier_coefficients.cache_info().currsize == 2
    assert _lifted_rows.cache_info().currsize == 1
    # the lifted instance reads the inverse in Q(zeta_(p big)), the other in Q(zeta_big)
    assert _denominator_inverse.cache_info().currsize == 2
