"""Exact term counts and coefficients for determinants and permanents of
generic circulant matrices, with a numerical certification of the
prime-power non-cancellation theorem."""

from .exactmath import divisors, euler_phi, multinomial, prime_power, valuation
from .partitions import Partition, factorial_of_partition, partitions_of, z_of
from .bricks import (BrickMultiset, FillingClass, class_weight_sum,
                     enumerate_filling_classes, filling_weight,
                     m_to_p_expansion, row_weight_sum, verify_m2p)
from .circulant import (ExponentVector, RouteDisagreement, TermTable,
                        cache_sizes, clear_caches, d_count, det_coeff_er,
                        det_coeff_er_terms, det_coeff_oracle, det_table,
                        expand_det, hall_admissible, p_count,
                        permanent_terms, sign_epsilon)
from .theorem import (DominanceReport, class_contribution,
                      contribution_ratio_factors, dominance_check,
                      lemma_check, q_class_contribution)

__version__ = "0.1.0"

__all__ = [
    "BrickMultiset", "DominanceReport", "ExponentVector", "FillingClass",
    "Partition", "RouteDisagreement", "TermTable", "cache_sizes",
    "class_contribution", "class_weight_sum", "clear_caches",
    "contribution_ratio_factors", "d_count", "det_coeff_er",
    "det_coeff_er_terms", "det_coeff_oracle", "det_table", "divisors",
    "dominance_check", "enumerate_filling_classes", "euler_phi",
    "expand_det", "factorial_of_partition", "filling_weight",
    "hall_admissible", "lemma_check", "m_to_p_expansion", "multinomial",
    "p_count", "partitions_of", "permanent_terms", "prime_power",
    "q_class_contribution", "row_weight_sum", "sign_epsilon", "valuation",
    "verify_m2p", "z_of",
]
