"""Key rates, two-way distillation thresholds and a Monte Carlo simulator
for quantum key distribution over asymmetric Pauli channels."""

from .channel import (
    Basis,
    FlipRates,
    PauliRates,
    average_over_mixture,
    conjugate,
    flip_rates,
)
from .distill import (
    BStepOutcome,
    DistillationTrace,
    PStepResult,
    SearchParams,
    b_step,
    distill_schedule,
    distillable_in_limit,
    majority_phase_error,
    modified_rate_one_bstep,
    p_step,
    parity_bit_error,
)
from .keyrates import (
    binary_entropy,
    rate_bb84_symmetrized,
    rate_single_basis,
    rate_sixstate_mixed,
    rate_sixstate_separate,
    shannon4,
)
from .sim import (
    EveModel,
    ProtocolParams,
    SimReport,
    run_protocol,
)
from .threshold import (
    ChannelFamily,
    Fig1Row,
    Fig2Curve,
    NonMonotoneFamilyError,
    ProtocolVariant,
    ThresholdResult,
    fig2_blocks,
    is_distillable,
    sweep_fig1,
    threshold_total_noise,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BStepOutcome",
    "ChannelFamily",
    "DistillationTrace",
    "EveModel",
    "Fig1Row",
    "Fig2Curve",
    "FlipRates",
    "NonMonotoneFamilyError",
    "PStepResult",
    "PauliRates",
    "ProtocolParams",
    "ProtocolVariant",
    "SearchParams",
    "SimReport",
    "ThresholdResult",
    "average_over_mixture",
    "b_step",
    "binary_entropy",
    "conjugate",
    "distill_schedule",
    "distillable_in_limit",
    "fig2_blocks",
    "flip_rates",
    "is_distillable",
    "majority_phase_error",
    "modified_rate_one_bstep",
    "p_step",
    "parity_bit_error",
    "rate_bb84_symmetrized",
    "rate_single_basis",
    "rate_sixstate_mixed",
    "rate_sixstate_separate",
    "run_protocol",
    "shannon4",
    "sweep_fig1",
    "threshold_total_noise",
]
