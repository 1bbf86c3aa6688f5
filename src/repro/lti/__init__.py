"""Linear time-invariant systems substrate.

Everything the robust-control stack needs: state-space and transfer-function
representations, interconnections and LFTs, Lyapunov machinery, system norms,
bilinear transforms, and balanced-truncation model reduction.
"""

from .bilinear import continuous_to_discrete, discrete_to_continuous
from .lft import (
    PartitionedSystem,
    lft_lower,
    lft_upper,
    matrix_lft_lower,
    matrix_lft_upper,
)
from .lyapunov import (
    controllability_gramian,
    controllability_matrix,
    is_controllable,
    is_observable,
    lyapunov_solve,
    observability_gramian,
    observability_matrix,
)
from .norms import frequency_grid, h2_norm, hinf_norm, linf_norm_grid, singular_value_plot
from .reduction import balanced_truncation, hankel_singular_values, stable_unstable_split
from .response import StepInfo, impulse_response, step_info, step_response
from .statespace import StateSpace, append, feedback, grid_chunks, parallel, series, ss, static_gain
from .transferfunction import TransferFunction, first_order_lag, tf, tf_to_ss

__all__ = [
    "StateSpace",
    "ss",
    "static_gain",
    "series",
    "parallel",
    "feedback",
    "append",
    "grid_chunks",
    "TransferFunction",
    "tf",
    "tf_to_ss",
    "first_order_lag",
    "PartitionedSystem",
    "lft_lower",
    "lft_upper",
    "matrix_lft_lower",
    "matrix_lft_upper",
    "lyapunov_solve",
    "controllability_gramian",
    "observability_gramian",
    "controllability_matrix",
    "observability_matrix",
    "is_controllable",
    "is_observable",
    "h2_norm",
    "hinf_norm",
    "linf_norm_grid",
    "frequency_grid",
    "singular_value_plot",
    "discrete_to_continuous",
    "continuous_to_discrete",
    "balanced_truncation",
    "hankel_singular_values",
    "stable_unstable_split",
    "StepInfo",
    "step_response",
    "impulse_response",
    "step_info",
]
