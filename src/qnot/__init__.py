"""Exact and probabilistic machines for antiunitary target maps.

The library decides when a finite family of pure states admits a machine
realizing the qubit spin flip (orthogonal complement) or entrywise
conjugation — exactly, exactly with a probe, or probabilistically with
chosen efficiencies — and constructs, simulates, and optimizes such
machines.
"""

from .errors import (
    DegenerateDeterminant,
    DimensionMismatch,
    GramMismatch,
    InfeasibleGamma,
    InvalidProbe,
    InvalidProbeGram,
    InvalidState,
    LinearlyDependent,
    LinearlyDependentPair,
    MachineMismatch,
    NoFeasiblePoint,
    NotHermitian,
    NotPSD,
    NotSquare,
    QnotError,
    WrongDimension,
    ZeroOverlap,
    ZeroSuccess,
)
from .feasibility import (
    EfficiencyMatrix,
    FeasibilityVerdict,
    ProbeSpec,
    build_exact_unitary,
    build_probe_unitary,
    check_exact_unitary,
    check_exact_with_probe,
    check_probabilistic,
    constraint_matrix,
    solve_dependent_triple,
    standard_probe,
)
from .linalg import is_psd, psd_sqrt, unitary_completion
from .optimizer import (
    GammaPolicy,
    GammaSearchResult,
    TripleBoundInput,
    gamma_max_triple,
    grid_oracle_triple,
    search_gamma,
)
from .simulator import (
    ExactRecord,
    MonteCarloRecord,
    SimulationReport,
    run_exact,
    verify_machine,
)
from .states import (
    GramMatrix,
    QuditState,
    StateSet,
    TargetMap,
    conjugate,
    gram,
    orthogonal_complement,
    target_state,
)
from .synthesis import Machine, SynthesisReport, synthesize, synthesize_with

__version__ = "0.1.0"

__all__ = [
    "QuditState", "StateSet", "TargetMap", "GramMatrix",
    "orthogonal_complement", "conjugate", "target_state", "gram",
    "is_psd", "psd_sqrt", "unitary_completion",
    "ProbeSpec", "EfficiencyMatrix", "FeasibilityVerdict",
    "check_exact_unitary", "check_exact_with_probe", "check_probabilistic",
    "build_exact_unitary", "build_probe_unitary", "constraint_matrix",
    "solve_dependent_triple",
    "Machine", "SynthesisReport", "synthesize", "synthesize_with",
    "ExactRecord", "MonteCarloRecord", "SimulationReport",
    "run_exact", "verify_machine",
    "TripleBoundInput", "GammaPolicy", "GammaSearchResult",
    "gamma_max_triple", "grid_oracle_triple", "search_gamma",
    "standard_probe",
    "QnotError", "NotSquare", "NotHermitian", "NotPSD", "GramMismatch",
    "DimensionMismatch", "MachineMismatch", "WrongDimension", "InvalidState",
    "ZeroOverlap",
    "InvalidProbeGram", "LinearlyDependentPair", "LinearlyDependent",
    "InfeasibleGamma", "InvalidProbe", "ZeroSuccess",
    "DegenerateDeterminant", "NoFeasiblePoint",
]
