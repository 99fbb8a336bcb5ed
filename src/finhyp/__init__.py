"""Exact finite hypergeometric sums over finite fields, Gauss sums on
semisimple algebras, and their p-adic counterparts."""

from . import charsums, cyclo, finfield, hypergeometric, padic, params
from .charsums import (
    AlgebraChar,
    MultChar,
    SemisimpleAlgebra,
    algebra_gauss_sum,
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
from .params import HGParams, parse_fraction_list

__version__ = "0.1.0"


def clear_caches():
    """Empty every cache of the package: fields, orbit instances,
    cyclotomic structure, the slot orbits of traced reads, trace fibres and
    Gauss sums, the joint direct-sum tallies and the masks of their grids,
    the expansion rows of each orbit times the inverse denominator,
    denominators, their values and their inverses, Gamma_p values and
    blocks, p-adic unit terms, and term and denominator exponents.

    Fields are cached objects too, and their elements equal only elements of
    the same field object: fields, elements and instances built before the
    call must not be used after it; build them again.
    """
    for fn in (
        cyclo.cyclotomic_polynomial, cyclo._structure, cyclo._slot_orbits,
        charsums._trace_fibres, charsums._gauss_pair_entry, finfield._make_field_cached,
        finfield.FqField._embedding_data, hypergeometric._denominator_inverse,
        hypergeometric._denominator_value, hypergeometric._direct_tally,
        hypergeometric._gauss_denominator, hypergeometric._norm_fold_mask,
        hypergeometric._scaled_rows, hypergeometric.orbit_instance,
        params._denominator_exponent, params._term_exponents,
    ):
        fn.cache_clear()
    for table in (padic._gamma_cache, padic._gamma_blocks, padic._unit_terms):
        table.clear()
