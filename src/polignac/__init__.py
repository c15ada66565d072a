"""Disjoint packings of prime-pattern difference sets with exact density bounds."""

from .admissible import (
    difference_set,
    is_admissible,
    normalize,
    regular_admissible,
)
from .oracle import (
    InstanceTooLarge,
    PackingInstance,
    enumerate_admissible_diffsets,
    max_disjoint_packing,
)
from .packing import (
    EXTENDED,
    PAPER_LITERAL,
    InvariantViolation,
    PackingCertificate,
    geh_assignment,
    geh_family,
    greedy_counting_floor,
    greedy_regular_packing,
    k3_finite_upper_bound,
    k3_upper_bound_density,
    lower_bound_density,
    regular_overlap,
    trivial_upper_bound_density,
)
from .sieve import CensusReport, prime_pair_census, primes_up_to, primorial

__all__ = [
    "CensusReport",
    "EXTENDED",
    "InstanceTooLarge",
    "InvariantViolation",
    "PAPER_LITERAL",
    "PackingCertificate",
    "PackingInstance",
    "difference_set",
    "enumerate_admissible_diffsets",
    "geh_assignment",
    "geh_family",
    "greedy_counting_floor",
    "greedy_regular_packing",
    "is_admissible",
    "k3_finite_upper_bound",
    "k3_upper_bound_density",
    "lower_bound_density",
    "max_disjoint_packing",
    "normalize",
    "prime_pair_census",
    "primes_up_to",
    "primorial",
    "regular_admissible",
    "regular_overlap",
    "trivial_upper_bound_density",
]
