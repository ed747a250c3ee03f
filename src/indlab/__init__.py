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
    spectral_decompose,
)
from .machine import MachineResult, run_machine
from .randomness import (
    ComplexityEstimate,
    OmegaEstimate,
    borel_normality_test,
    exact_k_small,
    k_upper_bound,
    levin_chaitin_margin,
    monkey_search,
    omega_lower_bound,
)
from .hv import HVModel, HVSpace, Sampler, run_model
from .bell import (
    LocalDeterministicStrategy,
    MismatchFunctional,
    SettingSet,
    local_bound_bruteforce,
    quantum_mismatch,
    quantum_value,
    run_bipartite,
)
from .ks import ColoringProblem, Ray, search_coloring, verify_coloring
from .errors import CapacityError, ContractViolationError

__all__ = [name for name in dir() if not name.startswith("_")]
