"""Exact online-learning dimensions, learners, and adversaries for finite problems.

Everything is tabulated and rational: a Problem is a loss matrix over finite
label and prediction sets, a HypothesisClass is a prediction table, and all
dimensions, game values, mixtures, and regrets are computed exactly over
Fractions. See the README for the file formats and the CLI.
"""

from .adversaries import (
    ShatteringAdversary,
    SqrtTWitness,
    expected_abs_sign_sum,
    find_sqrt_witness,
    rademacher_stream,
)
from .core import (
    BudgetError,
    Candidate,
    HypothesisClass,
    Mixture,
    Problem,
    ProtocolError,
    RealizabilityError,
    ThresholdedExample,
    ValidationError,
    VersionSpace,
    expected_loss,
    format_rational,
    make_problem,
    make_stream,
    parse_rational,
    validate_problem,
)
from .dimensions import (
    CertificateNode,
    DimensionEngine,
    GammaValue,
    ShatteringCertificate,
    ldim_k,
    msdim,
    msdim_direct,
    seqfat,
    smdim,
)
from .game import AffineRow, GameSolution, best_response, solve_min_max
from .instances import (
    builtin_names,
    canonical_json,
    encode_identifier,
    make_builtin,
    parse_instance_document,
    parse_stream_document,
    serialize_instance,
    serialize_stream,
)
from .learners import (
    AgnosticLearner,
    FollowTheLeader,
    Mrsoa,
    UniformLearner,
    aggregate_mixture,
    loss_grid,
    pool_size,
)
from .simulation import (
    RegretReport,
    RoundRecord,
    best_in_hindsight,
    exact_expectation_over_signs,
    run_game,
    transcript_rows,
)
from .verify import CaseResult, normalize_prop, run_verification

__version__ = "0.1.0"

__all__ = [
    "AffineRow",
    "AgnosticLearner",
    "BudgetError",
    "Candidate",
    "CaseResult",
    "CertificateNode",
    "DimensionEngine",
    "FollowTheLeader",
    "GameSolution",
    "GammaValue",
    "HypothesisClass",
    "Mixture",
    "Mrsoa",
    "Problem",
    "ProtocolError",
    "RealizabilityError",
    "RegretReport",
    "RoundRecord",
    "ShatteringAdversary",
    "ShatteringCertificate",
    "SqrtTWitness",
    "ThresholdedExample",
    "UniformLearner",
    "ValidationError",
    "VersionSpace",
    "aggregate_mixture",
    "best_in_hindsight",
    "best_response",
    "builtin_names",
    "canonical_json",
    "encode_identifier",
    "exact_expectation_over_signs",
    "expected_abs_sign_sum",
    "expected_loss",
    "find_sqrt_witness",
    "format_rational",
    "ldim_k",
    "loss_grid",
    "make_builtin",
    "make_problem",
    "make_stream",
    "msdim",
    "msdim_direct",
    "normalize_prop",
    "parse_instance_document",
    "parse_rational",
    "parse_stream_document",
    "pool_size",
    "rademacher_stream",
    "run_game",
    "run_verification",
    "seqfat",
    "serialize_instance",
    "serialize_stream",
    "smdim",
    "solve_min_max",
    "transcript_rows",
    "validate_problem",
]
