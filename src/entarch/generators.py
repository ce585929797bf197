"""Pauli matrices and generalized Gell-Mann generators of SU(3) and SU(4).

A single fixed indexing convention is used everywhere:

SU(3) (standard Gell-Mann):
    l1 = E12+E21        l2 = -i(E12-E21)    l3 = diag(1,-1,0)
    l4 = E13+E31        l5 = -i(E13-E31)    l6 = E23+E32
    l7 = -i(E23-E32)    l8 = diag(1,1,-2)/sqrt(3)

SU(4): l1..l8 are the SU(3) generators embedded in the upper-left 3x3
block, then
    l9  = E14+E41       l10 = -i(E14-E41)   l11 = E24+E42
    l12 = -i(E24-E42)   l13 = E34+E43       l14 = -i(E34-E43)
    l15 = diag(1,1,1,-3)/sqrt(6)

Both tables, and the Pauli matrices s1, s2, s3 (n = 2), follow one level
formula: for each level m = 2..n, the pair E_jm+E_mj, -i(E_jm-E_mj) for
each j = 1..m-1, then diag(1,...,1,1-m,0,...,0)/sqrt(m(m-1)/2) with m-1
ones.  Every generator is Hermitian, traceless and normalized so that
trace(l_a l_b) = 2 delta_ab.  Bases are cached as read-only arrays.
"""

from functools import lru_cache

import numpy as np


def _sym(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i - 1, j - 1] = m[j - 1, i - 1] = 1.0
    return m


def _asym(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i - 1, j - 1] = -1.0j
    m[j - 1, i - 1] = 1.0j
    return m


@lru_cache(maxsize=None)
def _basis(n):
    mats = []
    for m in range(2, n + 1):
        for j in range(1, m):
            mats += [_sym(n, j, m), _asym(n, j, m)]
        level = np.diag([1.0] * (m - 1) + [1.0 - m] + [0.0] * (n - m)).astype(complex)
        mats.append(level / np.sqrt(m * (m - 1) / 2))
    for g in mats:
        g.flags.writeable = False
    return tuple(mats)


def pauli(i: int) -> np.ndarray:
    """Pauli matrix sigma_i for i in 1..3."""
    if i not in (1, 2, 3):
        raise IndexError(f"Pauli index must be 1, 2 or 3, got {i}")
    return _basis(2)[i - 1]


def gell_mann(n: int, k: int) -> np.ndarray:
    """Generalized Gell-Mann generator l_k of SU(n), n in {3, 4}, k in 1..n^2-1."""
    if n not in (3, 4):
        raise ValueError(f"Gell-Mann generators are provided for n in {{3, 4}}, not n={n}")
    if not 1 <= k <= n * n - 1:
        raise IndexError(f"generator index must be in 1..{n * n - 1}, got {k}")
    return _basis(n)[k - 1]


def generator_basis(n: int):
    """The full generator tuple for SU(n), n in {2, 3, 4}, indexed 1..n^2-1."""
    if n not in (2, 3, 4):
        raise ValueError(f"generators are provided for n in {{2, 3, 4}}, not n={n}")
    return _basis(n)
