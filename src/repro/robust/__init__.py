"""Robust control: H-infinity synthesis, SSV (mu) analysis, D-K iteration.

This package replaces the MATLAB Robust Control Toolbox in the paper's
design flow.  The entry points are:

* :func:`build_generalized_plant` — encode a layer's bounds/weights/
  guardband into a Delta-N generalized plant;
* :func:`hinf_synthesize` — two-Riccati central-controller synthesis with
  gamma bisection and a-posteriori closed-loop verification;
* :func:`mu_bounds_over_frequency` — SSV upper/lower bounds of a closed
  loop against a block structure;
* :func:`dk_synthesize` — the D-K iteration (approximate mu-synthesis)
  producing the paper's SSV controllers.
"""

from .augmentation import AugmentedPlant, ChannelMap, build_generalized_plant
from .dk import DKResult, dk_synthesize
from .hinf import HinfResult, SynthesisError, hinf_synthesize
from .riccati import RiccatiError, care_hamiltonian, solve_hinf_riccati
from .ssv import (
    MuAnalysis,
    mu_bounds_over_frequency,
    mu_lower_bound,
    mu_upper_bound,
    mu_upper_bounds,
)
from .uncertainty import (
    BlockStructure,
    UncertaintyBlock,
    guardband_weight,
    quantization_uncertainty,
)
from .worstcase import (
    WorstCaseResult,
    destabilizing_radius,
    worst_case_delta,
    worst_case_gain,
)

__all__ = [
    "AugmentedPlant",
    "ChannelMap",
    "build_generalized_plant",
    "DKResult",
    "dk_synthesize",
    "HinfResult",
    "SynthesisError",
    "hinf_synthesize",
    "RiccatiError",
    "care_hamiltonian",
    "solve_hinf_riccati",
    "MuAnalysis",
    "mu_bounds_over_frequency",
    "mu_lower_bound",
    "mu_upper_bound",
    "mu_upper_bounds",
    "BlockStructure",
    "UncertaintyBlock",
    "guardband_weight",
    "quantization_uncertainty",
    "WorstCaseResult",
    "destabilizing_radius",
    "worst_case_delta",
    "worst_case_gain",
]
