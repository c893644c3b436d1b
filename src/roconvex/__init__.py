"""Numerical verification toolkit for rank-one convex functions on matrix spaces."""

from .convex1d import (
    AtomicMeasure1D,
    PLConvex1D,
    convex_taylor_check,
    fubini_tail_experiment,
    l1_ball_containment,
    maximal_function,
    second_derivative_measure,
    superlevel,
    weak_one_one_check,
)
from .core import (
    CapacityError,
    Grid,
    GridSpec,
    MatrixPoint,
    MatrixShape,
    SampledField,
    ball_samples,
    ball_volume,
    coordinate_directions,
    evaluate,
    grid_spec,
    gradient_field,
    make_grid,
    sample,
)
from .corpus import ConvexityFlags, FunctionHandle, corpus, corpus_names, get_handle
from .envelope import (
    ConeEnvelopePair,
    RemainderProfile,
    cone_convolutions,
    sandwich_check,
    second_order_remainder,
)
from .lowerbound import (
    RadialMajorant,
    TangencyError,
    empirical_majorant,
    lemma_constant,
    lower_bound_certify,
)
from .paraboloid import (
    ParaboloidTouch,
    TailReport,
    ThetaField,
    replay_lower_bound,
    tail_experiment,
    theta_field,
    theta_upper,
)
from .verify import (
    ConvexityReport,
    SegmentSampler,
    mollify,
    rank_one_convexity_check,
    separate_convexity_check,
    symmetric_operator_check,
    viscosity_subharmonic_check,
)

__version__ = "0.1.0"
