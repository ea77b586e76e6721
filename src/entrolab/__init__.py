"""Certified topological-entropy bounds for one-dimensional dynamics.

Exact rationals and integer-mantissa enclosures with outward dyadic
rounding underneath; every reported bound is a rigorous enclosure.
"""

from .numkit import (
    IterMapExpr,
    RatInterval,
    critical_orbit_expr,
    exp2_enclosure,
    log2_enclosure,
    parse_rational,
)
from .symbolic import (
    SFT,
    EntropyBound,
    MixingVerdict,
    Provenance,
    check_mixing,
    count_words,
    glue_prefix_maps,
    prefix_decode,
    prefix_encode,
    sft_entropy,
)
from .interval_maps import (
    PWLMap,
    QuadMap,
    compose_iterate,
    constant_slope_map,
    entropy_via_variation,
    identity_map,
    slope_detect,
    staircase_map,
    tent_map,
    variation,
)
from .horseshoe import (
    HorseshoeCert,
    LowerBoundRecord,
    SearchBudget,
    check_certificate,
    search_lower_bounds,
)
from .logistic import (
    BudgetExceeded,
    Center,
    CenterCache,
    SandwichBudget,
    enumerate_centers,
    logistic_entropy,
    markov_partition,
)

__version__ = "0.1.0"
