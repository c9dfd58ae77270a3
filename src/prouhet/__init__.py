"""Exact constructions and checks for equal sums of like powers.

Everything is computed in exact arithmetic: Python big integers, a
cyclotomic quotient ring housing a p-th root of unity, and symbolic
zero-sum linear forms.  See the individual modules for the machinery:
sequences, partitions, polynomial factorization, and the weighted
(Lehmer-style) multiset construction.
"""

from .rings import CyclotomicElement, ZeroSumForm
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

# The names the README's Library section uses (tests/test_readme.py checks
# that the two agree); every name imported above stays importable by name.
__all__ = [
    "EspReport",
    "LehmerSpec",
    "PTMParams",
    "ZeroSumVector",
    "binomial_product",
    "cofactor_by_division",
    "lehmer_expand",
    "lehmer_verify",
    "power_sum_table",
    "prouhet_partition",
    "ptm_polynomial",
    "verify_esp",
    "weighted_classes",
]
