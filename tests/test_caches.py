import importlib
import pkgutil
from fractions import Fraction

import finhyp
from finhyp import clear_caches, padic
from finhyp.hypergeometric import (
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
    assert len(before) == 18
    assert all(before.values()), before
    clear_caches()
    assert not any(_caches().values())
    # the expansion of an instance built before the call needs no new field
    assert algebra_sum_fourier(inst, 2) == value
    clear_caches()
    # a new instance over the new fields computes the same value from cold
    inst = orbit_instance(HGParams.parse("1/2,1/4,3/4", "0,1/8,3/8"), 3)
    assert algebra_sum_direct(inst, 2) == algebra_sum_fourier(inst, 2) == value
