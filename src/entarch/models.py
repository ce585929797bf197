"""Catalog of the five three-parameter state families and their region predicates.

Each family has the form

    rho(t) = 1/(dim_a*dim_b) * (1 x 1) + 1/4 * sum_i t_i * (A_i x B_i)

with three fixed generator pairs (A_i, B_i).  The catalog provides the
density-matrix builder, one region record per family, PPT predicates and
the two entanglement constraints

    additive:        (|t1| + |t2| + |t3|)^2 > additive_threshold
    multiplicative:  (t1*t2*t3)^2 > multiplicative_threshold

both strict.  ``ModelSpec.regions`` maps each physicality mode to a
``Region`` - a prism, cube, tetrahedron or ball of one size - whose margin,
volume, l1 supremum and direct sampler every per-model predicate reads.
"psd_oracle" shares the true set's region but lets the eigen-oracle decide.
The oracle solves the exact coupling blocks of each state: the three
couplings share a fixed zero pattern, whose connected components split every
state, by a permutation, into blocks of at most 3 x 3 for these five families,
each still diagonalized by LAPACK.

Models
------
M1  qubit-ququart (2x4), generators (s1,l1), (s2,l13), (s3,l3).
    Physical set Prism(1/2).  Every physical state equals its own partial
    transpose on the ququart side.
M2  two-ququart (4x4), generators (l1,l1), (l13,l13), (l3,l3).
    Mode "paper_cube" uses the documented domain Cube(1/4); the
    eigenvalue oracle shows the actual PSD set is the smaller Prism(1/4)
    (mode "analytic").  Both modes are first class and every report names
    the mode it used.
M3  two-qubit (2x2) Bell-diagonal family, generators (s_i, s_i).  The
    middle term's second-side generator index is read as 2 (the standard
    Bell-diagonal family); the resulting spectrum is (1 +- t1 +- t2 +- t3)/4
    over sign patterns with an even number of plus signs: Tetrahedron(1).
M4  two-qutrit (3x3), generators (l_i, l_i) for i = 1, 2, 3.  Its physical
    set is Tetrahedron(4/9); the additive threshold (4/9)^2 is the image of
    the M3 threshold under that exact affine map.
M5  two-qutrit (3x3), generators (l1,l1), (l2,l4), (l3,l6).  The spectrum
    is {1/9 (x5), 1/9 +- |t|_2/4 (x2 each)}, so the physical set is
    Ball(4/9).  Its only mode is "psd_oracle": the eigen-oracle decides
    membership, and the ball supplies the margin, volume and l1 supremum.
"""

import itertools
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import ContractViolation, UnsupportedMode
from .generators import gell_mann, pauli
from .linalg import (
    DEFAULT_EPS_PSD,
    eigvalsh_stack,
    hermitian_eigenvalues,
    partial_transpose_b,
)

LABELS = ("unphysical", "undetermined", "bound_entangled", "free_entangled")
# verdict_label's policy as a table indexed by 4 * physical + 2 * ppt + constrained.
_VERDICT_LABELS = np.array(LABELS)[[0, 0, 0, 0, 3, 3, 1, 2]]

MODE_ANALYTIC = "analytic"
MODE_PSD_ORACLE = "psd_oracle"
MODE_PAPER_CUBE = "paper_cube"


@dataclass(frozen=True)
class Region:
    """A solid scaled by ``size``, its bounding half-width.

    Subclasses give the volume VOLUME, the supremum L1SQ of
    (|t1|+|t2|+|t3|)^2 and the supremum PROD of |t1 t2 t3| at size 1, the
    signed ``margin`` (positive inside) and optionally ``direct``, a
    measure-preserving map of unit-cube uniforms onto the set.
    """

    size: float
    direct = None

    @property
    def volume(self) -> float:
        return self.VOLUME * self.size**3

    @property
    def l1sq_sup(self) -> float:
        return self.L1SQ * self.size**2

    @property
    def abs_product_sup(self) -> float:
        return self.PROD * self.size**3


class Prism(Region):
    """{|t2| <= a, |t1| + |t3| <= a}; the l1 supremum is at (a, a, 0) and that of
    |t1 t2 t3| at (a/2, a, a/2)."""

    VOLUME, L1SQ, PROD = 4.0, 4.0, 0.25

    def margin(self, ts):
        # a - max(|t2|, |t1| + |t3|) rather than (a - |t1|) - |t3|: its sign is
        # exactly that of the float comparisons |t2| <= a and |t1| + |t3| <= a.
        diamond = np.abs(ts[:, 0]) + np.abs(ts[:, 2])
        return self.size - np.maximum(np.abs(ts[:, 1]), diamond, out=diamond)

    def direct(self, u):
        # t2 is uniform on its interval; (t1, t3) fill the diamond through the
        # square-to-diamond affine map.
        a = self.size
        t1 = (u[:, 0] + u[:, 1] - 1.0) * a
        t3 = (u[:, 0] - u[:, 1]) * a
        return np.column_stack([t1, (2.0 * u[:, 2] - 1.0) * a, t3])


class Cube(Region):
    """[-a, a]^3; the l1 and |t1 t2 t3| suprema are at (a, a, a)."""

    VOLUME, L1SQ, PROD = 8.0, 9.0, 1.0

    def margin(self, ts):
        return self.size - np.max(np.abs(ts), axis=1)

    def direct(self, u):
        return (2.0 * u - 1.0) * self.size


class Tetrahedron(Region):
    """Vertices s(1,1,-1), s(1,-1,1), s(-1,1,1), s(-1,-1,-1), where the l1 and
    |t1 t2 t3| suprema are.

    The margin is the least face form s +- t1 +- t2 +- t3 (even plus signs).
    """

    VOLUME, L1SQ, PROD = 8.0 / 3.0, 9.0, 1.0

    def margin(self, ts):
        s = self.size
        t1, t2, t3 = ts[:, 0], ts[:, 1], ts[:, 2]
        return np.min(
            np.stack([s + t1 - t2 + t3, s - t1 + t2 + t3, s + t1 + t2 - t3, s - t1 - t2 - t3]),
            axis=0,
        )


class Ball(Region):
    """{|t|_2 <= r}; the l1 and |t1 t2 t3| suprema are at r (1, 1, 1) / sqrt(3)."""

    VOLUME, L1SQ, PROD = 4.0 / 3.0 * np.pi, 3.0, 3.0**-1.5

    def margin(self, ts):
        return self.size - np.sqrt(np.sum(ts * ts, axis=1))


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one state family."""

    model_id: str
    dim_a: int
    dim_b: int
    term_indices: tuple  # three (A-side index, B-side index) pairs
    mult_threshold: Fraction
    add_threshold: Fraction
    regions: dict = field(hash=False)  # physicality mode -> region; the first is the default
    note: str = ""

    coefficient: float = field(default=0.25, init=False)

    def __post_init__(self):
        object.__setattr__(self, "regions", MappingProxyType(dict(self.regions)))

    @property
    def modes(self) -> tuple:
        return tuple(self.regions)

    @property
    def default_mode(self) -> str:
        return next(iter(self.regions))

    @property
    def box_half(self) -> float:
        """Per-axis half width of the tight box around every mode's region."""
        return max(region.size for region in self.regions.values())

    @cached_property
    def pt_signs(self) -> np.ndarray:
        """Signs s_i with B_i^T = s_i B_i, so that rho(t)^{T_B} = rho(s * t)."""
        gens = [_side_generator(self.dim_b, ib) for _, ib in self.term_indices]
        signs = np.array([1.0 if np.array_equal(b.T, b) else -1.0 for b in gens])
        if not all(np.array_equal(b.T, s * b) for b, s in zip(gens, signs)):
            raise ContractViolation("a second-side generator is neither symmetric nor antisymmetric")
        signs.flags.writeable = False
        return signs

    @cached_property
    def coupling_matrices(self) -> np.ndarray:
        """The three tensor-product coupling matrices as a read-only (3, d, d) stack."""
        stack = np.array(
            [
                np.kron(_side_generator(self.dim_a, ia), _side_generator(self.dim_b, ib))
                for ia, ib in self.term_indices
            ]
        )
        stack.flags.writeable = False
        return stack

    @cached_property
    def coupling_blocks(self) -> tuple:
        """The exact block split shared by every state of the family, grouped by size.

        A state is the identity plus a combination of the three couplings, so its
        nonzero entries lie in the union of their patterns.  The connected
        components of that pattern are index blocks no entry joins: permuting
        rows and columns into component order makes every state block-diagonal.
        One ``(indices, couplings)`` pair per block size b, ascending:
        ``indices`` is the read-only (m, b) array of the m blocks of that size,
        ``couplings`` the read-only (3, m, b, b) coupling entries on them.
        """
        k = self.coupling_matrices
        count, component = connected_components(np.any(k != 0, axis=0), directed=False)
        blocks = [np.flatnonzero(component == c) for c in range(count)]
        groups = []
        for size in sorted({len(block) for block in blocks}):
            indices = np.array([block for block in blocks if len(block) == size])
            couplings = k[:, indices[:, :, None], indices[:, None, :]]
            indices.flags.writeable = couplings.flags.writeable = False
            groups.append((indices, couplings))
        return tuple(groups)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def identity_weight(self) -> float:
        return 1.0 / self.dim

    @property
    def multiplicative_threshold(self) -> float:
        return float(self.mult_threshold)

    @property
    def additive_threshold(self) -> float:
        return float(self.add_threshold)


MODELS = {
    "M1": ModelSpec(
        model_id="M1",
        dim_a=2,
        dim_b=4,
        term_indices=((1, 1), (2, 13), (3, 3)),
        mult_threshold=Fraction(4, 19683),
        add_threshold=Fraction(1),
        regions=dict.fromkeys((MODE_ANALYTIC, MODE_PSD_ORACLE), Prism(0.5)),
        note="physical set is the prism |t2| <= 1/2, |t1|+|t3| <= 1/2; "
        "all physical states are PPT (the partial transpose equals the state).",
    ),
    "M2": ModelSpec(
        model_id="M2",
        dim_a=4,
        dim_b=4,
        term_indices=((1, 1), (13, 13), (3, 3)),
        mult_threshold=Fraction(16, 531441),
        add_threshold=Fraction(1),
        regions={
            MODE_PAPER_CUBE: Cube(0.25),
            **dict.fromkeys((MODE_ANALYTIC, MODE_PSD_ORACLE), Prism(0.25)),
        },
        note="'paper_cube' takes the cube [-1/4,1/4]^3 as the physical domain; "
        "the PSD eigen-oracle gives the smaller prism |t2| <= 1/4, "
        "|t1|+|t3| <= 1/4 ('analytic' mode).  The partial transpose equals "
        "the state bit-exactly.",
    ),
    "M3": ModelSpec(
        model_id="M3",
        dim_a=2,
        dim_b=2,
        term_indices=((1, 1), (2, 2), (3, 3)),
        mult_threshold=Fraction(1, 729),
        add_threshold=Fraction(1),
        regions=dict.fromkeys((MODE_ANALYTIC, MODE_PSD_ORACLE), Tetrahedron(1.0)),
        note="Bell-diagonal two-qubit family; the middle term's second-side "
        "generator index is read as 2.  Physical set is the tetrahedron with "
        "vertices (1,1,-1), (1,-1,1), (-1,1,1), (-1,-1,-1).",
    ),
    "M4": ModelSpec(
        model_id="M4",
        dim_a=3,
        dim_b=3,
        term_indices=((1, 1), (2, 2), (3, 3)),
        mult_threshold=Fraction(4096, 387420489),
        add_threshold=Fraction(16, 81),
        regions=dict.fromkeys((MODE_ANALYTIC, MODE_PSD_ORACLE), Tetrahedron(4.0 / 9.0)),
        note="physical set is the M3 tetrahedron scaled by 4/9; the additive "
        "threshold (4/9)^2 is inferred from that scaling (no independent "
        "source states it) and is flagged in reports.",
    ),
    "M5": ModelSpec(
        model_id="M5",
        dim_a=3,
        dim_b=3,
        term_indices=((1, 1), (2, 4), (3, 6)),
        mult_threshold=Fraction(4096, 14348907),
        add_threshold=Fraction(16, 81),
        regions={MODE_PSD_ORACLE: Ball(4.0 / 9.0)},
        note="no closed-form physicality predicate; the PSD eigen-oracle "
        "decides.  The additive threshold is an unused placeholder.  The "
        "partial transpose equals the state.",
    ),
}

@dataclass(frozen=True)
class Classification:
    """Per-point verdict for one model at one parameter point."""

    physical: bool
    ppt: bool
    additive: bool
    multiplicative: bool
    label: str
    min_eigenvalue: float
    min_pt_eigenvalue: float

    as_dict = asdict


def get_model(model_id: str) -> ModelSpec:
    try:
        return MODELS[model_id]
    except KeyError:
        raise KeyError(
            f"unknown model {model_id!r}; available: {', '.join(sorted(MODELS))}"
        ) from None


def resolve_mode(spec: ModelSpec, mode: str | None) -> str:
    if mode is None:
        return spec.default_mode
    if mode not in spec.regions:
        raise UnsupportedMode(
            f"model {spec.model_id} supports physicality modes {spec.modes}, not {mode!r}"
        )
    return mode


def _side_generator(dim: int, index: int) -> np.ndarray:
    return pauli(index) if dim == 2 else gell_mann(dim, index)


def _least_eigenvalues(spec: ModelSpec, ts: np.ndarray) -> np.ndarray:
    """Least eigenvalue of each state: LAPACK on its coupling blocks, one stack per size."""
    least = np.full(len(ts), np.inf)
    for _, couplings in spec.coupling_blocks:
        m, b = couplings.shape[1], couplings.shape[-1]
        base = spec.identity_weight * np.eye(b, dtype=complex)
        blocks = base + spec.coefficient * np.einsum("ni,imjk->nmjk", ts, couplings)
        block_least = eigvalsh_stack(blocks.reshape(-1, b, b))[:, 0].reshape(len(ts), m)
        np.minimum(least, block_least.min(axis=1), out=least)
    return least


def build_state(spec: ModelSpec, t) -> np.ndarray:
    """Density matrix of the family at parameter point t = (t1, t2, t3).

    Any real t is accepted; physicality is a separate check.  The result is
    Hermitian with unit trace by construction.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (3,):
        raise ContractViolation(f"parameter point must have three components, got {t.shape}")
    return build_states(spec, t[None])[0]


def build_states(spec: ModelSpec, ts: np.ndarray) -> np.ndarray:
    """The family's density matrices at an (N, 3) array of parameter points."""
    ts = np.asarray(ts, dtype=float)
    k = spec.coupling_matrices
    base = spec.identity_weight * np.eye(spec.dim, dtype=complex)
    return base[None, :, :] + spec.coefficient * np.einsum("ni,ijk->njk", ts, k)


def physical_mask(
    spec: ModelSpec,
    ts: np.ndarray,
    mode: str | None = None,
    eps_psd: float = DEFAULT_EPS_PSD,
) -> np.ndarray:
    """Vectorized physicality test for an (N, 3) array of parameter points.

    The region's margin decides; in "psd_oracle" mode the eigenvalue oracle,
    which solves each state's exact coupling blocks (``coupling_blocks``)
    rather than the full d x d matrix: a point is physical iff the least
    eigenvalue over its blocks is >= -eps_psd.
    """
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    mode = resolve_mode(spec, mode)
    if mode != MODE_PSD_ORACLE:
        return spec.regions[mode].margin(ts) >= 0.0
    return _least_eigenvalues(spec, ts) >= -eps_psd


def physical_margin(spec: ModelSpec, ts: np.ndarray, mode: str | None = None) -> np.ndarray:
    """Signed distance proxy to the closed-form physicality boundary (positive inside).

    Used to exclude a thin boundary band when comparing analytic predicates
    against the PSD eigen-oracle.
    """
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    return spec.regions[resolve_mode(spec, mode)].margin(ts)


def is_physical_analytic(spec: ModelSpec, t, mode: str | None = None) -> bool:
    """Closed-form physicality predicate (raises UnsupportedMode for M5)."""
    mode = resolve_mode(spec, mode)
    if mode == MODE_PSD_ORACLE:
        raise UnsupportedMode(
            f"model {spec.model_id} has no analytic physicality predicate; "
            "use the PSD oracle"
        )
    return bool(physical_mask(spec, np.asarray(t, dtype=float)[None, :], mode)[0])


def is_physical(
    spec: ModelSpec,
    t,
    mode: str | None = None,
    eps_psd: float = DEFAULT_EPS_PSD,
) -> bool:
    return bool(physical_mask(spec, np.asarray(t, dtype=float)[None, :], mode, eps_psd)[0])


def ppt_mask(spec: ModelSpec, ts: np.ndarray, eps_psd: float = DEFAULT_EPS_PSD) -> np.ndarray:
    """Vectorized PPT test: physicality of the point the partial transpose reflects it to.

    Uses the "analytic" region where the model has one, otherwise the
    eigenvalue oracle of ``physical_mask``, which solves the exact coupling
    blocks of the reflected state.  Tested against the oracle on the partial
    transpose.
    """
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    mode = MODE_ANALYTIC if MODE_ANALYTIC in spec.regions else MODE_PSD_ORACLE
    return physical_mask(spec, ts * spec.pt_signs, mode, eps_psd)


def is_ppt(spec: ModelSpec, t, eps_psd: float = DEFAULT_EPS_PSD) -> bool:
    """PPT test via the eigenvalue oracle on the partial transpose."""
    rho = build_state(spec, t)
    pt = partial_transpose_b(rho, spec.dim_a, spec.dim_b)
    return bool(hermitian_eigenvalues(pt).values[0] >= -eps_psd)


def multiplicative_mask(spec: ModelSpec, ts: np.ndarray) -> np.ndarray:
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    return (ts[:, 0] * ts[:, 1] * ts[:, 2]) ** 2 > spec.multiplicative_threshold


def additive_mask(spec: ModelSpec, ts: np.ndarray) -> np.ndarray:
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    return np.sum(np.abs(ts), axis=1) ** 2 > spec.additive_threshold


def satisfies_multiplicative(spec: ModelSpec, t) -> bool:
    return bool(multiplicative_mask(spec, np.asarray(t, dtype=float)[None, :])[0])


def satisfies_additive(spec: ModelSpec, t) -> bool:
    return bool(additive_mask(spec, np.asarray(t, dtype=float)[None, :])[0])


def verdict_label(physical, ppt, constrained):
    """The ``LABELS`` entry of each (physical, PPT, additive-or-multiplicative) verdict.

    A physical point is free-entangled if not PPT, else bound-entangled if it
    meets either constraint, else undetermined.  Takes bools or same-shape
    bool arrays; returns a numpy str scalar or array.
    """
    return _VERDICT_LABELS[4 * physical + 2 * ppt + constrained]


def classify(
    spec: ModelSpec,
    t,
    eps_psd: float = DEFAULT_EPS_PSD,
    physical_mode: str | None = None,
) -> Classification:
    """Full per-point verdict: physicality, PPT, constraints and label."""
    t = np.asarray(t, dtype=float)
    mode = resolve_mode(spec, physical_mode)
    rho = build_state(spec, t)
    min_eig = float(hermitian_eigenvalues(rho).values[0])
    pt = partial_transpose_b(rho, spec.dim_a, spec.dim_b)
    min_pt_eig = float(hermitian_eigenvalues(pt).values[0])
    if mode == MODE_PSD_ORACLE:
        physical = min_eig >= -eps_psd
    else:
        physical = bool(physical_mask(spec, t[None, :], mode)[0])
    ppt = min_pt_eig >= -eps_psd
    additive = satisfies_additive(spec, t)
    multiplicative = satisfies_multiplicative(spec, t)
    return Classification(
        physical=physical,
        ppt=ppt,
        additive=additive,
        multiplicative=multiplicative,
        label=str(verdict_label(physical, ppt, additive or multiplicative)),
        min_eigenvalue=min_eig,
        min_pt_eigenvalue=min_pt_eig,
    )


def _state_record(side: str, signs: tuple, rho: np.ndarray) -> dict:
    vals = hermitian_eigenvalues(rho).values
    return {
        "side": side,
        "signs": signs,
        "trace": float(np.trace(rho).real),
        "eigenvalues": [float(v) for v in vals],
        "min_eigenvalue": float(vals[0]),
    }


def extremal_states() -> list:
    """The extremal single-side states tied to the two constraint constants.

    Returns one record per sign variant: the 8 qubit-side states
    1/2 + (1/(2 sqrt 3)) (+-s1 +-s2 +-s3) and the 4 ququart-side states
    1/4 + 1/2 (+-(sqrt2/3) l1 +- (sqrt2/3) l3 + (1/3) l13 + (1/(3 sqrt3)) l8
    + (1/(3 sqrt6)) l15), each with trace, spectrum and minimum eigenvalue.
    """
    records = []
    for s1, s2, s3 in itertools.product((1, -1), repeat=3):
        rho = np.eye(2, dtype=complex) / 2 + (
            s1 * pauli(1) + s2 * pauli(2) + s3 * pauli(3)
        ) / (2 * np.sqrt(3))
        records.append(_state_record("qubit", (s1, s2, s3), rho))
    w = np.sqrt(2.0) / 3.0
    for s1, s2 in itertools.product((1, -1), repeat=2):
        rho = np.eye(4, dtype=complex) / 4 + 0.5 * (
            s1 * w * gell_mann(4, 1)
            + s2 * w * gell_mann(4, 3)
            + gell_mann(4, 13) / 3
            + gell_mann(4, 8) / (3 * np.sqrt(3))
            + gell_mann(4, 15) / (3 * np.sqrt(6))
        )
        records.append(_state_record("ququart", (s1, s2), rho))
    return records


def physical_volume(spec: ModelSpec, mode: str | None = None) -> float:
    """Euclidean volume of the physical set in parameter space."""
    return spec.regions[resolve_mode(spec, mode)].volume


def catalog() -> list:
    """JSON-ready description of every model in the catalog."""
    out = []
    for mid in sorted(MODELS):
        spec = MODELS[mid]
        out.append(
            {
                "id": spec.model_id,
                "dim_a": spec.dim_a,
                "dim_b": spec.dim_b,
                "identity_weight": spec.identity_weight,
                "coefficient": spec.coefficient,
                "term_indices": [list(pair) for pair in spec.term_indices],
                "multiplicative_threshold": spec.multiplicative_threshold,
                "multiplicative_threshold_fraction": str(spec.mult_threshold),
                "additive_threshold": spec.additive_threshold,
                "additive_threshold_fraction": str(spec.add_threshold),
                "physical_modes": list(spec.modes),
                "default_physical_mode": spec.default_mode,
                "bounding_box_half_width": spec.box_half,
                "physical_volume": {m: r.volume for m, r in spec.regions.items()},
                "note": spec.note,
            }
        )
    return out
