import numpy as np
import pytest
from scipy.linalg import expm

from entarch import generators, linalg, models
from entarch.errors import ContractViolation, DimensionOverflow, NumericFailure


def random_hermitian(rng, n):
    g = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    return (g + g.conj().T) / 2


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        s3 = generators.pauli(3)
        assert np.array_equal(linalg.kron(s3, s3), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_trace_multiplicativity_traceless(self):
        k = linalg.kron(generators.pauli(1), generators.gell_mann(4, 1))
        assert abs(np.trace(k)) == 0.0

    def test_entries_definition(self):
        # exact on integer-valued inputs; ulp-level on generic complex, where
        # vectorized complex multiplication may use fused operations
        a_int = np.array([[1, 2], [-3, 0]], dtype=complex)
        b_int = np.array([[0, -1, 2], [1, 1, 0], [2, 0, -2]], dtype=complex)
        k = linalg.kron(a_int, b_int)
        for i in range(2):
            for j in range(2):
                for p in range(3):
                    for q in range(3):
                        assert k[i * 3 + p, j * 3 + q] == a_int[i, j] * b_int[p, q]
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        k = linalg.kron(a, b)
        for i in range(2):
            for j in range(2):
                for p in range(3):
                    for q in range(3):
                        assert abs(k[i * 3 + p, j * 3 + q] - a[i, j] * b[p, q]) <= 1e-15

    def test_dimension_overflow(self):
        with pytest.raises(DimensionOverflow):
            linalg.kron(np.eye(4), np.eye(8))


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 4)
        pt = linalg.partial_transpose_b(np.kron(a, b), 2, 4)
        assert np.allclose(pt, np.kron(a, b.T), atol=0)

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        twice = linalg.partial_transpose_b(linalg.partial_transpose_b(m, 2, 4), 2, 4)
        assert np.array_equal(twice, m)

    def test_bell_projector_witness(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        pt = linalg.partial_transpose_b(rho, 2, 2)
        vals = linalg.hermitian_eigenvalues(pt).values
        assert abs(vals[0] + 0.5) < 1e-14

    def test_preserves_hermiticity_trace_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_hermitian(rng, 6)
            b = random_hermitian(rng, 6)
            pa = linalg.partial_transpose_b(a, 2, 3)
            pb = linalg.partial_transpose_b(b, 2, 3)
            assert np.allclose(pa, pa.conj().T, atol=0)
            assert np.trace(pa) == np.trace(a)
            lam = rng.standard_normal()
            combined = linalg.partial_transpose_b(a + lam * b, 2, 3)
            assert np.allclose(combined, pa + lam * pb, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            linalg.partial_transpose_b(np.eye(6), 2, 4)


class TestHermitianEigenvalues:
    def test_pauli3(self):
        res = linalg.hermitian_eigenvalues(generators.pauli(3))
        assert np.allclose(res.values, [-1.0, 1.0], atol=1e-15)

    def test_kron_pauli1(self):
        m = linalg.kron(generators.pauli(1), generators.pauli(1))
        res = linalg.hermitian_eigenvalues(m)
        assert np.allclose(res.values, [-1.0, -1.0, 1.0, 1.0], atol=1e-14)

    def test_maximally_mixed_state(self):
        spec = models.get_model("M1")
        rho = models.build_state(spec, (0.0, 0.0, 0.0))
        res = linalg.hermitian_eigenvalues(rho)
        assert np.allclose(res.values, np.full(8, 1.0 / 8.0), atol=1e-15)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ContractViolation):
            linalg.hermitian_eigenvalues(m)

    def test_against_lapack(self):
        rng = np.random.default_rng(11)
        for n in range(2, 17):
            m = random_hermitian(rng, n)
            res = linalg.hermitian_eigenvalues(m)
            assert np.max(np.abs(res.values - np.linalg.eigvalsh(m))) < 1e-12
            assert res.residual <= 1e-13 * np.max(np.abs(m))

    def test_non_convergence_raises(self, monkeypatch):
        # one sweep cannot diagonalize a dense 16 x 16 matrix
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        m = random_hermitian(np.random.default_rng(13), 16)
        with pytest.raises(NumericFailure, match=r"in 1 sweeps .*tolerance \d"):
            linalg.hermitian_eigenvalues(m)

    def test_random_suite_trace_and_similarity(self):
        # 1e4 random Hermitian matrices, dims 2..16: eigenvalue sum matches
        # the trace to 1e-11 and the spectrum is invariant under orthogonal
        # similarity built from exponentiated antisymmetric generators.
        rng = np.random.default_rng(12)
        for _ in range(10_000):
            n = int(rng.integers(2, 17))
            m = random_hermitian(rng, n)
            res = linalg.hermitian_eigenvalues(m)
            assert abs(res.values.sum() - np.trace(m).real) < 1e-11
            assert res.residual <= 1e-13 * np.max(np.abs(m))
            a = rng.uniform(-1.0, 1.0, (n, n))
            u = expm(a - a.T)
            rotated = u @ m @ u.T.conj()
            rotated = (rotated + rotated.conj().T) / 2
            res_rot = linalg.hermitian_eigenvalues(rotated)
            assert np.max(np.abs(res.values - res_rot.values)) < 1e-10


class TestIsPsd:
    def test_scaled_identity(self):
        assert linalg.is_psd(np.eye(4) / 4)

    def test_small_negative(self):
        assert not linalg.is_psd(np.diag([1.0, -1e-6]))

    def test_m1_outside_region(self):
        spec = models.get_model("M1")
        assert not linalg.is_psd(models.build_state(spec, (0.3, 0.0, 0.3)))

    def test_shift_consistency_away_from_boundary(self):
        # is_psd(m) agrees with is_psd(m + eps*I) for eps = 10*eps_psd when the
        # minimum eigenvalue is outside the shifted band.
        rng = np.random.default_rng(13)
        eps = 10 * linalg.DEFAULT_EPS_PSD
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = random_hermitian(rng, n)
            lo = linalg.min_eigenvalue(m)
            if abs(lo) < 10 * eps or abs(lo + eps) < 10 * eps:
                continue
            assert linalg.is_psd(m) == linalg.is_psd(m + eps * np.eye(n))


def test_eigvalsh_stack_matches_jacobi():
    rng = np.random.default_rng(14)
    stack = np.array([random_hermitian(rng, 6) for _ in range(50)])
    batched = linalg.eigvalsh_stack(stack)
    for m, vals in zip(stack, batched):
        assert np.max(np.abs(vals - linalg.hermitian_eigenvalues(m).values)) < 1e-12
