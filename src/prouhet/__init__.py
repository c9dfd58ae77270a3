"""Exact constructions and checks for equal sums of like powers.

Everything is computed in exact arithmetic: Python big integers, a
cyclotomic quotient ring housing a p-th root of unity, and symbolic
zero-sum linear forms.  See the individual modules for the machinery:
sequences, partitions, polynomial factorization, and the weighted
(Lehmer-style) multiset construction.
"""

from .rings import CyclotomicElement, ZeroSumForm, omega_pow
from .sequence import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PTMParams,
    ZeroSumVector,
    ptm_block,
    ptm_block_recursive,
    ptm_term,
)
from .partition import (
    EspReport,
    class_power_sums,
    power_sum,
    power_sum_table,
    prouhet_partition,
    verify_esp,
    weighted_classes,
)
from .factorization import (
    DensePolynomial,
    NotDivisibleError,
    binomial_product,
    cofactor_by_division,
    cofactor_recursive,
    first_coefficient_mismatch,
    one_minus_x_pow,
    ptm_polynomial,
)
from .lehmer import (
    LehmerSpec,
    lehmer_expand,
    lehmer_verify,
    lehmer_weighted_sum,
    product_identity_sides,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CyclotomicElement",
    "DEFAULT_BUDGET",
    "DensePolynomial",
    "EspReport",
    "LehmerSpec",
    "NotDivisibleError",
    "PTMParams",
    "ZeroSumForm",
    "ZeroSumVector",
    "binomial_product",
    "class_power_sums",
    "cofactor_by_division",
    "cofactor_recursive",
    "first_coefficient_mismatch",
    "lehmer_expand",
    "lehmer_verify",
    "lehmer_weighted_sum",
    "omega_pow",
    "one_minus_x_pow",
    "power_sum",
    "power_sum_table",
    "product_identity_sides",
    "prouhet_partition",
    "ptm_block",
    "ptm_block_recursive",
    "ptm_polynomial",
    "ptm_term",
    "verify_esp",
    "weighted_classes",
]
