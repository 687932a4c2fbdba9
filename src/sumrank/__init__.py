"""Exact volumes of spheres, balls and ball intersections in the sum-rank metric.

All quantities are exact arbitrary-precision integers; no floating point is
used anywhere. The `oracle` module provides brute-force enumeration at small
prime fields as ground truth for every closed-form formula.
"""

from sumrank.qkit import (
    InputError,
    InternalInconsistencyError,
    gaussian_binomial,
    num_matrices_rank,
    q_krawtchouk,
)
from sumrank.compositions import (
    count_uniform,
    count_upper_bound,
    enumerate_bounded,
    enumerate_partitions,
    enumerate_uniform,
)
from sumrank.volumes import (
    Params,
    ball_volume,
    sphere_volume,
    sphere_volume_by_profiles,
    weight_distribution,
)
from sumrank.intersections import (
    IntersectionQuery,
    rank1_additive_pairs,
    rank_ball_intersection_I,
    rank_sphere_intersection_J,
    sumrank_intersection_exact,
    theorem1_literal,
    theorem2_literal,
    theorem2_per_profile,
    theorem3_aggregate,
    theorem3_literal,
    theorem3_per_profile,
)

__version__ = "0.1.0"

__all__ = [
    "Params",
    "ball_volume",
    "count_uniform",
    "count_upper_bound",
    "enumerate_bounded",
    "enumerate_partitions",
    "enumerate_uniform",
    "gaussian_binomial",
    "InputError",
    "InternalInconsistencyError",
    "IntersectionQuery",
    "num_matrices_rank",
    "q_krawtchouk",
    "rank1_additive_pairs",
    "rank_ball_intersection_I",
    "rank_sphere_intersection_J",
    "sphere_volume",
    "sphere_volume_by_profiles",
    "sumrank_intersection_exact",
    "theorem1_literal",
    "theorem2_literal",
    "theorem2_per_profile",
    "theorem3_aggregate",
    "theorem3_literal",
    "theorem3_per_profile",
    "weight_distribution",
]
