import numpy as np
import pytest

from entarch import generators, linalg, models


def test_pauli_convention():
    assert np.array_equal(generators.pauli(1), [[0, 1], [1, 0]])
    assert np.array_equal(generators.pauli(2), [[0, -1j], [1j, 0]])
    assert np.array_equal(generators.pauli(3), [[1, 0], [0, -1]])


def test_pauli_squares_to_identity():
    s1 = generators.pauli(1)
    assert np.array_equal(s1 @ s1, np.eye(2))


def test_pauli2_eigenvalues():
    vals = linalg.hermitian_eigenvalues(generators.pauli(2)).values
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-15)


def test_pauli_orthogonality():
    assert np.trace(generators.pauli(1) @ generators.pauli(3)) == 0.0


def test_pauli_index_error():
    with pytest.raises(IndexError):
        generators.pauli(4)


def test_gell_mann_convention_entries():
    g1 = generators.gell_mann(3, 1)
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 1.0
    assert np.array_equal(g1, expected)
    g13 = generators.gell_mann(4, 13)
    expected = np.zeros((4, 4))
    expected[2, 3] = expected[3, 2] = 1.0
    assert np.array_equal(g13, expected)


def _sym(i, j):
    return {(i, j): 1.0, (j, i): 1.0}


def _asym(i, j):
    return {(i, j): -1.0j, (j, i): 1.0j}


def _diag(*entries, norm=1.0):
    return {(k, k): v / norm for k, v in enumerate(entries, start=1) if v}


# The module docstring's table: nonzero entries (1-based row, column) of each generator.
_SU3 = [
    _sym(1, 2), _asym(1, 2), _diag(1, -1), _sym(1, 3), _asym(1, 3), _sym(2, 3), _asym(2, 3),
    _diag(1, 1, -2, norm=np.sqrt(3.0)),
]
TABLE = {
    2: [_sym(1, 2), _asym(1, 2), _diag(1, -1)],
    3: _SU3,
    4: _SU3 + [
        _sym(1, 4), _asym(1, 4), _sym(2, 4), _asym(2, 4), _sym(3, 4), _asym(3, 4),
        _diag(1, 1, 1, -3, norm=np.sqrt(6.0)),
    ],
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_generator_matches_docstring_table(n):
    basis = generators.generator_basis(n)
    assert len(basis) == len(TABLE[n]) == n * n - 1
    for g, expected in zip(basis, TABLE[n]):
        assert g.shape == (n, n) and g.dtype == complex
        entries = {(i + 1, j + 1): g[i, j] for i, j in zip(*np.nonzero(g))}
        assert entries == expected
    singles = [generators.pauli(k) for k in (1, 2, 3)] if n == 2 else [
        generators.gell_mann(n, k) for k in range(1, n * n)
    ]
    assert all(a is b for a, b in zip(singles, basis))


def test_gell_mann_diagonal_normalization():
    g15 = generators.gell_mann(4, 15)
    assert np.allclose(g15, np.diag([1, 1, 1, -3]) / np.sqrt(6), atol=0)
    assert abs(np.trace(g15 @ g15).real - 2.0) < 1e-14


def test_gell_mann_index_errors():
    with pytest.raises(IndexError):
        generators.gell_mann(3, 9)
    with pytest.raises(IndexError):
        generators.gell_mann(4, 0)
    with pytest.raises(ValueError):
        generators.gell_mann(5, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_hermitian_traceless(n):
    for g in generators.generator_basis(n):
        assert np.max(np.abs(g - g.conj().T)) == 0.0
        assert abs(np.trace(g)) <= 1e-14


@pytest.mark.parametrize("n", [3, 4])
def test_basis_trace_orthonormality(n):
    basis = generators.generator_basis(n)
    for a, ga in enumerate(basis):
        for b, gb in enumerate(basis):
            val = np.trace(ga @ gb).real
            target = 2.0 if a == b else 0.0
            assert abs(val - target) <= 1e-13


def test_basis_cached_and_immutable():
    g = generators.gell_mann(4, 13)
    assert g is generators.gell_mann(4, 13)
    with pytest.raises(ValueError):
        g[0, 0] = 5.0


def test_convention_reproduces_m1_region():
    # Under this indexing the PSD set of the qubit-ququart family matches
    # the closed-form prism; a different index-13 placement would not.
    spec = models.get_model("M1")
    rng = np.random.default_rng(21)
    pts = rng.uniform(-0.6, 0.6, (20_000, 3))
    margin = models.physical_margin(spec, pts)
    keep = np.abs(margin) > 1e-9
    analytic = models.physical_mask(spec, pts[keep], models.MODE_ANALYTIC)
    oracle = models.physical_mask(spec, pts[keep], models.MODE_PSD_ORACLE)
    assert np.array_equal(analytic, oracle)
