"""Exact finite hypergeometric sums over finite fields, Gauss sums on
semisimple algebras, and their p-adic counterparts."""

from .charsums import (
    AlgebraChar,
    AlgebraElem,
    MultChar,
    SemisimpleAlgebra,
    add_char,
    algebra_gauss_sum,
    algebra_gauss_sum_bruteforce,
    algebra_norm_absolute,
    algebra_norm_to_base,
    algebra_trace,
    gauss_norm_exponent,
    gauss_sum,
)
from .checks import CheckReport, run_full_suite
from .cyclo import CycloNum, root_of_unity
from .finfield import FqElem, FqField, make_field
from .hypergeometric import (
    HGAlgebraInstance,
    algebra_sum_direct,
    algebra_sum_fourier,
    classic_sum,
    greene_factor,
    katz_unnormalized,
    orbit_instance,
    split_instance,
)
from .padic import (
    PadicNum,
    PiExp,
    embed_cyclotomic,
    gamma_p,
    gauss_sum_padic,
    padic_sum_direct,
    padic_sum_via_orbits,
    teichmuller,
)
from .params import HGParams, POrbit, parse_fraction_list

__version__ = "0.1.0"
