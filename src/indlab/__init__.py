"""Quantum-coin sequences, algorithmic-randomness measurement, and the
hidden-variable experiments they feed."""

__version__ = "0.1.0"

from .sequences import SequenceSource, SymbolString, block_frequencies, champernowne
from .born import (
    BornMeasure,
    Observable,
    Spectrum,
    State,
    born_measure,
    equivalence_check,
    joint_spectrum,
    product_measure,
    sample_sequence,
    spectral_decompose,
)
from .machine import MachineResult, run_machine
from .randomness import (
    ComplexityEstimate,
    OmegaEstimate,
    TestReport,
    borel_normality_test,
    count_c_incompressible,
    exact_k_small,
    k_upper_bound,
    levin_chaitin_margin,
    monkey_search,
    omega_lower_bound,
)
from .hv import HVModel, HVSpace, Sampler, bohm_measure, run_model, thooft_measure
from .bell import (
    LocalDeterministicStrategy,
    MismatchFunctional,
    SettingSet,
    local_bound_bruteforce,
    quantum_mismatch,
    quantum_value,
    run_bipartite,
)
from .ks import ColoringProblem, Ray, search_coloring, validate_problem, verify_coloring
from .errors import CapacityError, CommutationError, ContractViolationError

__all__ = [name for name in dir() if not name.startswith("_")]
