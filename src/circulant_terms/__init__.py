"""Exact term counts and coefficients for determinants and permanents of
generic circulant matrices, with a numerical certification of the
prime-power non-cancellation theorem.

The names of the theorem module, the per-term route of the dominance
argument, load on first use (PEP 562), so that importing the command
line never compiles it."""

from .exactmath import divisors, euler_phi, multinomial, prime_power, valuation
from .partitions import Partition, factorial_of_partition, partitions_of, z_of
from .bricks import (FillingClass, class_weight_sum,
                     enumerate_filling_classes, filling_weight,
                     m_to_p_expansion)
from .circulant import (ExponentVector, RouteDisagreement, cache_sizes,
                        clear_caches, d_count, det_coeff_er,
                        det_coeff_er_terms, det_coeff_oracle, det_table,
                        expand_det, hall_admissible, p_count,
                        permanent_terms, sign_epsilon)

_THEOREM_NAMES = (
    "DominanceReport", "class_contribution", "contribution_ratio_factors",
    "dominance_check", "lemma_check", "q_class_contribution",
)


def __getattr__(name):
    if name not in _THEOREM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import theorem
    value = getattr(theorem, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_THEOREM_NAMES))


__version__ = "0.1.0"

__all__ = [
    "DominanceReport", "ExponentVector", "FillingClass", "Partition",
    "RouteDisagreement", "cache_sizes", "class_contribution",
    "class_weight_sum", "clear_caches", "contribution_ratio_factors",
    "d_count", "det_coeff_er", "det_coeff_er_terms", "det_coeff_oracle",
    "det_table", "divisors", "dominance_check", "enumerate_filling_classes",
    "euler_phi", "expand_det", "factorial_of_partition", "filling_weight",
    "hall_admissible", "lemma_check", "m_to_p_expansion", "multinomial",
    "p_count", "partitions_of", "permanent_terms", "prime_power",
    "q_class_contribution", "sign_epsilon", "valuation", "z_of",
]
