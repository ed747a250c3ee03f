"""Born measures of finite-dimensional observables, joint and product
measures, and seeded outcome sampling.

Only finite-dimensional Hilbert spaces are handled; an observable is a
Hermitian matrix, a state is a unit vector or a density matrix, and the
measure assigns omega(e_lambda) to each (possibly degenerate) eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from .errors import CapacityError, CommutationError
from .sequences import SymbolString, sample_indices

HERMITIAN_TOL = 1e-12
COMMUTATION_TOL = 1e-10
MEASURE_TOL = 1e-10
DEFAULT_OUTCOME_CAP = 1_000_000
TENSOR_CAP = 4096
EQUIVALENCE_TOL = 1e-10


def _hermitian(m: np.ndarray) -> bool:
    """m equals its conjugate transpose within HERMITIAN_TOL, relative to its largest entry."""
    return np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL * max(1.0, np.max(np.abs(m)))


@dataclass(frozen=True)
class Observable:
    """A Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"observable must be square, got shape {m.shape}")
        if not _hermitian(m):
            raise ValueError("observable is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class State:
    """A unit vector or a density matrix, queried through expectations."""

    data: np.ndarray
    form: str = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.data, dtype=complex)
        if a.ndim == 1:
            norm2 = float(np.vdot(a, a).real)
            if abs(norm2 - 1.0) > 1e-12:
                raise ValueError(f"vector state has squared norm {norm2!r}, need 1")
            object.__setattr__(self, "form", "unit_vector")
        elif a.ndim == 2 and a.shape[0] == a.shape[1]:
            if not _hermitian(a):
                raise ValueError("density matrix is not Hermitian")
            eigs = np.linalg.eigvalsh(a)
            if eigs.min() < -1e-10:
                raise ValueError(f"density matrix has negative eigenvalue {eigs.min()!r}")
            if abs(np.trace(a).real - 1.0) > 1e-12:
                raise ValueError(f"density matrix has trace {np.trace(a).real!r}, need 1")
            object.__setattr__(self, "form", "density_matrix")
        else:
            raise ValueError(f"state must be a vector or square matrix, got shape {a.shape}")
        object.__setattr__(self, "data", a)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def expectation(self, operator: np.ndarray) -> float:
        if self.form == "unit_vector":
            return float(np.vdot(self.data, operator @ self.data).real)
        return float(np.trace(self.data @ operator).real)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (degeneracy merged) with their spectral projections."""

    eigenvalues: tuple[float, ...]
    projections: tuple[np.ndarray, ...]


def spectral_decompose(a: Observable) -> Spectrum:
    """Eigendecomposition with eigenvalues within 1e-8 * max(1, ||a||) merged
    (degeneracy)."""
    eigs, vecs = np.linalg.eigh(a.matrix)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(eigs))) if len(eigs) else 1.0)
    groups: list[list[int]] = [[0]]
    for i in range(1, len(eigs)):
        if eigs[i] - eigs[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    values = []
    projections = []
    for g in groups:
        values.append(float(np.mean(eigs[g])))
        v = vecs[:, g]
        projections.append(v @ v.conj().T)
    return Spectrum(tuple(values), tuple(projections))


@dataclass(frozen=True)
class BornMeasure:
    """Probabilities over a finite outcome set (eigenvalues or tuples)."""

    outcomes: tuple
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if len(self.outcomes) != len(self.probabilities):
            raise ValueError("outcomes and probabilities differ in length")
        p = np.asarray(self.probabilities, dtype=float)
        if np.any(p < -MEASURE_TOL):
            raise ValueError(f"negative probability {p.min()!r}")
        if abs(p.sum() - 1.0) > MEASURE_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, need 1")
        object.__setattr__(
            self, "probabilities", tuple(float(max(0.0, x)) for x in p)
        )

    def __len__(self) -> int:
        return len(self.outcomes)

    def probability(self, outcome) -> float:
        for o, p in zip(self.outcomes, self.probabilities):
            if o == outcome:
                return p
        return 0.0


def born_measure(omega: State, a: Observable) -> BornMeasure:
    """The measure lambda -> omega(e_lambda) on the spectrum of a."""
    if omega.dim != a.dim:
        raise ValueError(f"state dim {omega.dim} != observable dim {a.dim}")
    spec = spectral_decompose(a)
    probs = [omega.expectation(e) for e in spec.projections]
    return BornMeasure(spec.eigenvalues, tuple(probs))


def joint_spectrum(ops: Sequence[Observable]) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """Joint eigenvalue tuples of observables that commute within COMMUTATION_TOL,
    with their (nonzero) product projections e_l1 ... e_lN, of at most
    DEFAULT_OUTCOME_CAP tuples."""
    if not ops:
        raise ValueError("need at least one observable")
    dim = ops[0].dim
    for i, a in enumerate(ops):
        if a.dim != dim:
            raise ValueError(f"observable {i} has dim {a.dim}, expected {dim}")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            comm = ops[i].matrix @ ops[j].matrix - ops[j].matrix @ ops[i].matrix
            norm = float(np.max(np.abs(comm)))
            if norm > COMMUTATION_TOL:
                raise CommutationError(i, j, norm, COMMUTATION_TOL)
    spectra = [spectral_decompose(a) for a in ops]
    n_tuples = 1
    for s in spectra:
        n_tuples *= len(s.eigenvalues)
        if n_tuples > DEFAULT_OUTCOME_CAP:
            raise CapacityError(
                f"joint spectrum would exceed {DEFAULT_OUTCOME_CAP} outcome tuples"
            )
    out = []
    for combo in iter_product(*(range(len(s.eigenvalues)) for s in spectra)):
        proj = spectra[0].projections[combo[0]]
        for k in range(1, len(spectra)):
            proj = proj @ spectra[k].projections[combo[k]]
        if float(np.trace(proj).real) > 0.5:
            values = tuple(spectra[k].eigenvalues[combo[k]] for k in range(len(spectra)))
            out.append((values, (proj + proj.conj().T) / 2.0))
    return out


def product_measure(mu: BornMeasure, n: int) -> BornMeasure:
    """The n-fold product measure over at most DEFAULT_OUTCOME_CAP outcome tuples."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(mu) ** n > DEFAULT_OUTCOME_CAP:
        raise CapacityError(
            f"product outcome table of size {len(mu)}^{n} exceeds cap {DEFAULT_OUTCOME_CAP}; "
            "use the sampling path instead"
        )
    if n == 1:
        return mu
    outcomes = []
    probs = []
    for combo in iter_product(range(len(mu)), repeat=n):
        outcomes.append(tuple(mu.outcomes[i] for i in combo))
        p = 1.0
        for i in combo:
            p *= mu.probabilities[i]
        probs.append(p)
    return BornMeasure(tuple(outcomes), tuple(probs))


@dataclass(frozen=True)
class EquivalenceReport:
    """Joint-measure-on-tensor-power versus product-of-single-measure."""

    n: int
    dim: int
    l_inf_distance: float
    tolerance: float
    outcome_count: int

    @property
    def passed(self) -> bool:
        return self.l_inf_distance <= self.tolerance


def _tensor_power_probabilities(
    omega1: State, projections: Sequence[np.ndarray], n: int
) -> np.ndarray:
    """omega1^(x n)(e_i1 x ... x e_in) for every index tuple, as an array of
    shape (m,)*n over the m projections.

    The tensor-power state is kept as a (d, d)*n array, one (row, column)
    axis pair per factor (a unit vector enters as |psi><psi|), and each
    factor's pair is contracted with the stacked projections in turn:
    tr(rho e) = sum_rc rho[r, c] e[c, r].  No d^n x d^n operator is built.
    """
    rho1 = omega1.data
    if omega1.form == "unit_vector":
        rho1 = np.outer(rho1, rho1.conj())
    joint = rho1
    for _ in range(n - 1):
        joint = np.multiply.outer(joint, rho1)
    stacked = np.stack(projections)
    for _ in range(n):
        # contract the leading (row, column) pair; the outcome axis goes last
        joint = np.tensordot(joint, stacked, axes=([0, 1], [2, 1]))
    return joint.real


def equivalence_check(omega1: State, a: Observable, n: int) -> EquivalenceReport:
    """Compare two descriptions of an n-fold repeated measurement.

    Procedure 1 measures the commuting family a x 1 x ... , ..., 1 x ... x a
    on the n-fold tensor-power state; procedure 2 takes the n-fold product
    of the single-experiment measure.  The two must agree pointwise, within
    EQUIVALENCE_TOL; a tensor power above TENSOR_CAP dimensions is refused.
    """
    if omega1.dim != a.dim:
        raise ValueError("state and observable dimensions differ")
    if a.dim**n > TENSOR_CAP:
        raise CapacityError(
            f"tensor power dimension {a.dim}^{n} exceeds cap {TENSOR_CAP}"
        )
    prod = product_measure(born_measure(omega1, a), n)
    joint = _tensor_power_probabilities(omega1, spectral_decompose(a).projections, n)
    # both tables list outcome tuples in the same row-major order
    dist = float(np.max(np.abs(joint.ravel() - np.asarray(prod.probabilities))))
    return EquivalenceReport(n, a.dim, dist, EQUIVALENCE_TOL, joint.size)


def sample_sequence(mu: BornMeasure, n: int, seed: int) -> tuple[SymbolString, tuple]:
    """n i.i.d. outcome draws from mu, returned as a SymbolString of outcome
    indices plus the index -> outcome key.

    The draw is sequences.sample_indices: one Philox stream keyed (seed, 0),
    so the same (mu, n, seed) gives the same indices.
    """
    idx = sample_indices(mu.probabilities, n, seed)
    alphabet = max(2, len(mu))
    return SymbolString(alphabet, idx), tuple(mu.outcomes)


# -- spin-1 helpers ----------------------------------------------------------

_SQ2 = np.sqrt(2.0)
SPIN1_JX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQ2
SPIN1_JY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQ2
SPIN1_JZ = np.diag([1.0, 0.0, -1.0]).astype(complex)


def spin1_squared(direction: Sequence[float]) -> Observable:
    """The squared spin-1 component along a unit direction."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    j = d[0] * SPIN1_JX + d[1] * SPIN1_JY + d[2] * SPIN1_JZ
    return Observable(j @ j)
