"""Born measures of finite-dimensional observables, and the check that
measuring a tensor-power state agrees with the product of single measures.

Only finite-dimensional Hilbert spaces are handled; an observable is a
Hermitian matrix, a state is a unit vector or a density matrix, and the
measure assigns omega(e_lambda) to each (possibly degenerate) eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .sequences import distribution

HERMITIAN_TOL = 1e-12
MEASURE_TOL = 1e-10
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
    """Probabilities over a finite outcome set of eigenvalues.  They must pass
    sequences.distribution once each entry in [-MEASURE_TOL, 0], rounding, is 0.0."""

    outcomes: tuple
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if len(self.outcomes) != len(self.probabilities):
            raise ValueError("outcomes and probabilities differ in length")
        p = [0.0 if isinstance(x, float) and -MEASURE_TOL <= x <= 0 else x
             for x in self.probabilities]
        object.__setattr__(self, "probabilities", distribution(p, "probabilities"))


def born_measure(omega: State, a: Observable) -> BornMeasure:
    """The measure lambda -> omega(e_lambda) on the spectrum of a."""
    if omega.dim != a.dim:
        raise ValueError(f"state dim {omega.dim} != observable dim {a.dim}")
    spec = spectral_decompose(a)
    probs = [omega.expectation(e) for e in spec.projections]
    return BornMeasure(spec.eigenvalues, tuple(probs))


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
    on the n-fold tensor-power state; procedure 2 is the n-fold outer
    product of the single-experiment Born probabilities.  Both are arrays of
    shape (m,)*n over the m eigenvalues of a, indexed in the same order, and
    must agree pointwise within EQUIVALENCE_TOL; a tensor power above
    TENSOR_CAP dimensions is refused.
    """
    if omega1.dim != a.dim:
        raise ValueError("state and observable dimensions differ")
    if a.dim**n > TENSOR_CAP:
        raise ValueError(f"tensor power dimension {a.dim}^{n} exceeds cap {TENSOR_CAP}")
    probs = np.asarray(born_measure(omega1, a).probabilities)
    prod = reduce(np.multiply.outer, [probs] * n)
    joint = _tensor_power_probabilities(omega1, spectral_decompose(a).projections, n)
    dist = float(np.max(np.abs(joint - prod)))
    return EquivalenceReport(n, a.dim, dist, EQUIVALENCE_TOL, joint.size)


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
