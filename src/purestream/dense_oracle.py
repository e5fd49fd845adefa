"""Brute-force density-matrix swap test for small dimensions.

Independent of every parametric formula in this package: states are
explicit d x d matrices, the swap test is the pair of projectors
P = (I +- S)/2 applied to rho (x) sigma, and outputs come from a partial
trace.  Wherever the gadget module claims a closed form, this module can
check it by direct linear algebra.

The kept register of each branch follows from the identity
Tr_2[P (rho (x) sigma) P] = (rho + sigma +- (rho sigma + sigma rho))/4,
which holds for any pair of unit-trace matrices, so neither S nor the
d^4 entries of the joint state are ever formed.  For Hermitian inputs
sigma rho = (rho sigma)^H, so one swap test is one O(d^3) matmul, and its
memory is a few d x d matrices.  Capped at d <= 16.

validate_density_matrix and swap_test_apply also take stacks (..., d, d), as
numpy.linalg does, and run each step once over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_generator, check_closed_unit, check_dim

__all__ = [
    "MAX_DIM",
    "SwapTestResult",
    "random_pure_state",
    "make_depolarized",
    "swap_test_apply",
    "trace_distance",
    "validate_density_matrix",
]

MAX_DIM = 16

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-12
_BRANCH_EPS = 1e-12  # outcome branches lighter than this are not normalized
_CROSS_CHECK_TOL = 1e-12
_NORM_TOL = 1e-10


def random_pure_state(d: int, seed) -> np.ndarray:
    """Normalized complex d-vector from i.i.d. Gaussian amplitudes."""
    check_dim(d)
    rng = as_generator(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def make_depolarized(psi: np.ndarray, delta: float) -> np.ndarray:
    """Density matrix (1 - delta)|psi><psi| + delta I/d of a finite unit d-vector psi, d >= 2."""
    check_closed_unit(delta=delta)
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"psi must be a 1-D vector, got shape {psi.shape}")
    d = psi.shape[0]
    check_dim(d)
    if not np.isfinite(psi).all():
        raise ValueError("psi has a non-finite entry")
    if abs(np.linalg.norm(psi) - 1.0) > _NORM_TOL:
        raise ValueError("psi must have unit norm")
    rho = (1.0 - delta) * np.outer(psi, psi.conj())
    rho.flat[:: d + 1] += delta / d  # the diagonal, in place
    return rho


def validate_density_matrix(rho: np.ndarray, name: str = "state") -> int:
    """Check finiteness, Hermiticity, unit trace, and positivity; return the dimension.

    rho is a matrix or a stack (..., d, d): one bad member fails the stack, as itself.
    """
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
        raise ValueError(f"{name} must be a square matrix")
    d = rho.shape[-1]
    check_dim(d)
    if not np.isfinite(rho).all():
        raise ValueError(f"{name} has a non-finite entry")
    if (np.abs(rho - rho.conj().swapaxes(-2, -1)) > _HERMITIAN_TOL).any():
        raise ValueError(f"{name} is not Hermitian")
    trace = rho.trace(axis1=-2, axis2=-1)
    if ((abs(trace.real - 1.0) > _TRACE_TOL) | (abs(trace.imag) > _TRACE_TOL)).any():
        raise ValueError(f"{name} does not have unit trace")
    if (np.linalg.eigvalsh(rho) < -_PSD_TOL).any():
        raise ValueError(f"{name} has a negative eigenvalue")
    return d


@dataclass
class SwapTestResult:
    """Both outcome branches of one swap test, or of a stack of them.

    p0/p1 are the traces of each branch's reduced state: floats for one
    pair, float arrays over the leading axes for a stack.  omega0 and omega1
    are the normalized kept registers (None when a branch weight in them is
    at most 1e-12, where normalizing would be meaningless).
    """

    p0: float | np.ndarray
    p1: float | np.ndarray
    omega0: np.ndarray | None
    omega1: np.ndarray | None


def swap_test_apply(rho: np.ndarray, sigma: np.ndarray) -> SwapTestResult:
    """Swap-test rho (x) sigma, two states or equal-shape stacks (..., d, d); return both branches.

    The keep probability of each pair is computed twice, as (1 + Tr(rho sigma))/2
    and as the trace of the kept branch's reduced state; a disagreement
    beyond 1e-12 raises, since it would mean the dense algebra itself is
    inconsistent.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    d = validate_density_matrix(rho, "rho")
    validate_density_matrix(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    if d > MAX_DIM:
        raise ValueError(f"dense oracle is capped at d <= {MAX_DIM}, got {d}")

    rs = rho @ sigma
    p0_formula = (1.0 + rs.trace(axis1=-2, axis2=-1).real) / 2.0

    # the partial traces of (J + SJS) and (SJ + JS), J = rho (x) sigma
    direct = rho + sigma
    rs += rs.conj().swapaxes(-2, -1)  # + sigma rho, which is (rho sigma)^H
    p0, omega0 = _branch((direct + rs) / 4.0)
    p1, omega1 = _branch((direct - rs) / 4.0)

    if (np.abs(p0 - p0_formula) > _CROSS_CHECK_TOL).any():
        raise AssertionError(
            f"swap-test probability cross-check failed: {p0} vs {p0_formula}"
        )
    return SwapTestResult(p0=p0, p1=p1, omega0=omega0, omega1=omega1)


def _branch(reduced: np.ndarray) -> tuple[float | np.ndarray, np.ndarray | None]:
    """The branch weights and normalized states, None if any weight is at most _BRANCH_EPS."""
    p = reduced.trace(axis1=-2, axis2=-1).real
    omega = reduced / p[..., None, None] if (p > _BRANCH_EPS).all() else None
    return (p if p.ndim else float(p)), omega


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of the Hermitian difference."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"trace_distance needs square matrices, got shape {a.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("trace_distance needs finite matrices")
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()
