"""Dense complex linear algebra sized for this problem (matrices up to 16 x 16).

Everything here operates on plain ``numpy.ndarray`` values of dtype
``complex128``.  Eigenvalues of Hermitian matrices are computed with a
cyclic Jacobi iteration, which is simple and very accurate at these sizes;
``eigvalsh_stack`` is a LAPACK-backed batched variant for hot loops and is
cross-checked against the Jacobi solver in the test suite.  The PSD oracle
(``models.physical_mask`` in "psd_oracle" mode) passes it the exact coupling
blocks of the states, at most 3 x 3 for the catalog, one stack per block
size, rather than the full states.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DimensionOverflow, NumericFailure

MAX_DIM = 16
DEFAULT_EPS_PSD = 1e-12
_HERMITIAN_TOL = 1e-12
_RESIDUAL_FACTOR = 1e-13
_MAX_SWEEPS = 30


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues of a Hermitian matrix plus solver diagnostics.

    values    -- real eigenvalues sorted ascending
    iterations -- number of full Jacobi sweeps performed
    residual  -- max off-diagonal magnitude at termination
    """

    values: np.ndarray
    iterations: int
    residual: float


def as_square(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise DimensionOverflow(
            f"matrix dimension {a.shape[0]} exceeds the supported maximum {MAX_DIM}"
        )
    return a


def is_hermitian(m) -> bool:
    a = np.asarray(m)
    return bool(np.max(np.abs(a - a.conj().T)) <= _HERMITIAN_TOL * max(1.0, np.max(np.abs(a))))


def kron(a, b) -> np.ndarray:
    """Kronecker product with the size guard of this problem domain."""
    a = as_square(a)
    b = as_square(b)
    if a.shape[0] * b.shape[0] > MAX_DIM:
        raise DimensionOverflow(
            f"kron result dimension {a.shape[0] * b.shape[0]} exceeds {MAX_DIM}"
        )
    return np.kron(a, b)


def partial_transpose_b(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of a (dim_a*dim_b) square matrix.

    Pure index permutation: trace-preserving and an involution, bit-exactly.
    """
    a = as_square(m)
    if a.shape[0] != dim_a * dim_b:
        raise ContractViolation(
            f"matrix dimension {a.shape[0]} does not equal dim_a*dim_b = {dim_a * dim_b}"
        )
    return (
        a.reshape(dim_a, dim_b, dim_a, dim_b)
        .transpose(0, 3, 2, 1)
        .reshape(dim_a * dim_b, dim_a * dim_b)
    )


def hermitian_eigenvalues(m) -> EigenResult:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    The input must be Hermitian within 1e-12 (checked).  Iterates sweeps of
    plane rotations until the largest off-diagonal magnitude falls below
    1e-13 times the largest initial entry magnitude.
    """
    a = as_square(m)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if not is_hermitian(a):
        raise ContractViolation("matrix is not Hermitian within 1e-12")
    n = a.shape[0]
    if n == 1:
        return EigenResult(values=a.real.reshape(1).copy(), iterations=0, residual=0.0)

    # Work on the Hermitian average so roundoff in the input cannot bias
    # the rotations; the shift is below the checked tolerance.
    a = (a + a.conj().T) / 2.0
    tol = _RESIDUAL_FACTOR * scale
    rot_tol = tol / (4.0 * n * n)

    def max_off(x):
        off = np.abs(x - np.diag(np.diagonal(x)))
        return float(off.max())

    sweeps = 0
    off = max_off(a)
    while off > tol:
        if sweeps >= _MAX_SWEEPS:
            raise NumericFailure(
                f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps "
                f"(residual {off:.3e}, tolerance {tol:.3e})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag <= rot_tol:
                    continue
                alpha = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # A <- U^dagger A U with U mixing columns p and q
                col_p = c * a[:, p] - s * np.conj(alpha) * a[:, q]
                col_q = s * alpha * a[:, p] + c * a[:, q]
                a[:, p] = col_p
                a[:, q] = col_q
                row_p = c * a[p, :] - s * alpha * a[q, :]
                row_q = s * np.conj(alpha) * a[p, :] + c * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
        sweeps += 1
        off = max_off(a)
    values = np.sort(np.diagonal(a).real)
    return EigenResult(values=values, iterations=sweeps, residual=off)


def eigvalsh_stack(stack: np.ndarray) -> np.ndarray:
    """Batched Hermitian eigenvalues (ascending) for an (N, d, d) stack.

    LAPACK-backed fast path for sampling/grid oracles; agrees with
    ``hermitian_eigenvalues`` to well below every tolerance used here.
    """
    return np.linalg.eigvalsh(stack)


def min_eigenvalue(m) -> float:
    return float(hermitian_eigenvalues(m).values[0])


def is_psd(m, eps_psd: float = DEFAULT_EPS_PSD) -> bool:
    """True iff the smallest eigenvalue is >= -eps_psd.

    Boundary states are physical, so the test is tolerant on the negative
    side by ``eps_psd`` (default 1e-12).
    """
    return min_eigenvalue(m) >= -eps_psd
