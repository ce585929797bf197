"""Constrained maximization of |t1 t2 t3| and |t1|+|t2|+|t3| over feasible sets.

The feasible sets have corners, so a derivative-free pattern search is
used: an 18-direction stencil (the six axis moves plus the twelve
two-coordinate diagonal moves, which can slide along the flat faces where
axis moves stall), greedy polling and step halving.  Restarts are seeded
one per sign octant first, then uniformly; the restart schedule is a pure
function of the seed, so the best value is nondecreasing in the number of
restarts.
"""

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import SearchFailure
from .linalg import DEFAULT_EPS_PSD
from .sampling import SamplerConfig, count_constraint

OBJECTIVES = ("abs_product", "l1_norm")
FEASIBLE_SETS = ("physical", "ppt_and_physical")

_STEP_MIN = 1e-9
_SHRINK_TRIES = 60


@dataclass(frozen=True)
class OptResult:
    model: str
    objective: str
    feasible_set: str
    best_point: tuple
    best_value: float
    restarts: int
    feasible: bool

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "objective": self.objective,
            "feasible_set": self.feasible_set,
            "best_point": list(self.best_point),
            "best_value": self.best_value,
            "restarts": self.restarts,
            "feasible": self.feasible,
        }


def _directions() -> np.ndarray:
    dirs = []
    for i in range(3):
        for s in (1.0, -1.0):
            d = np.zeros(3)
            d[i] = s
            dirs.append(d)
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    d = np.zeros(3)
                    d[i], d[j] = si, sj
                    dirs.append(d / np.sqrt(2.0))
    return np.array(dirs)


_DIRS = _directions()


def _objective(name, t):
    """Objective value of each row of ``t``."""
    if name == "abs_product":
        return np.abs(t[:, 0] * t[:, 1] * t[:, 2])
    return np.sum(np.abs(t), axis=1)


def _feasible_fn(spec, feasible_set, mode, eps_psd):
    """A function from an (n, 3) point array to its feasibility mask."""
    if feasible_set == "physical":
        return lambda t: models.physical_mask(spec, t, mode, eps_psd)
    return lambda t: models.physical_mask(spec, t, mode, eps_psd) & models.ppt_mask(spec, t, eps_psd)


def _start_points(spec, restarts, seed):
    """Deterministic restart schedule: eight octant seeds, then uniform draws."""
    starts = []
    h = spec.box_half
    for r in range(restarts):
        if r < 8:
            signs = np.array([1.0 if r & (1 << k) else -1.0 for k in range(3)])
            starts.append(signs * 0.5 * h)
        else:
            gen = np.random.Generator(np.random.Philox(key=seed, counter=r << 128))
            starts.append((2.0 * gen.random(3) - 1.0) * h)
    return starts


def _pattern_search(objective, feasible, x0, step0):
    """Greedy polling: all 18 stencil points in one feasibility call; move to the
    first direction with the largest improving value, else halve the step."""
    x = x0.copy()
    best = _objective(objective, x[None])[0]
    step = step0
    while step > _STEP_MIN:
        cands = x + step * _DIRS
        values = np.where(feasible(cands), _objective(objective, cands), -np.inf)
        k = np.argmax(values)
        if values[k] > best:
            x, best = cands[k], values[k]
        else:
            step *= 0.5
    return x, best


def maximize(
    spec,
    objective: str = "abs_product",
    feasible_set: str = "physical",
    restarts: int = 8,
    seed: int = 0,
    physical_mode: str | None = None,
    eps_psd: float = DEFAULT_EPS_PSD,
) -> OptResult:
    """Multi-start pattern-search maximization over a feasible set.

    For the closed-form cases (e.g. |t1 t2 t3| over the two-qubit octahedron
    or over the M1 prism) the returned value is within 1e-6 of the analytic
    optimum.  The returned point is re-checked feasible; ties in value are
    broken by the lexicographically smallest point.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if feasible_set not in FEASIBLE_SETS:
        raise ValueError(f"feasible_set must be one of {FEASIBLE_SETS}, got {feasible_set!r}")
    if restarts < 8:
        raise ValueError(f"restarts must be >= 8 (one per sign octant), got {restarts}")
    mode = models.resolve_mode(spec, physical_mode)
    feasible = _feasible_fn(spec, feasible_set, mode, eps_psd)
    best_x = None
    best_v = -np.inf
    any_start = False
    for x0 in _start_points(spec, restarts, seed):
        x = x0.copy()
        for _ in range(_SHRINK_TRIES):
            if feasible(x[None])[0]:
                break
            x *= 0.5
        else:
            continue
        any_start = True
        x, v = _pattern_search(objective, feasible, x, step0=0.25 * spec.box_half)
        if v > best_v or (v == best_v and best_x is not None and tuple(x) < tuple(best_x)):
            best_x, best_v = x, v
    if not any_start:
        raise SearchFailure(
            f"no feasible starting point found for model {spec.model_id} "
            f"({feasible_set}) after {_SHRINK_TRIES} shrink attempts per restart"
        )
    return OptResult(
        model=spec.model_id,
        objective=objective,
        feasible_set=feasible_set,
        best_point=tuple(float(v) for v in best_x),
        best_value=float(best_v),
        restarts=restarts,
        feasible=bool(feasible(best_x[None])[0]),
    )


def threshold_consistency(
    spec,
    restarts: int = 24,
    seed: int = 0,
    n_scan: int = 1_000_000,
    eps_psd: float = DEFAULT_EPS_PSD,
) -> dict:
    """Compare the maximal |t1 t2 t3| over the physical set with the threshold.

    The region is expected empty when the closed-form supremum of |t1 t2 t3|
    over the default mode's region is at most sqrt(multiplicative_threshold)
    + 1e-9 (M5's ball, by AM-GM); the search maximum must then stay within
    that bound and a sample scan must find zero strict constraint hits.
    Otherwise the maximum must exceed the threshold and the scan must hit.
    """
    bound = float(np.sqrt(spec.multiplicative_threshold))
    opt = maximize(spec, "abs_product", "physical", restarts=restarts, seed=seed, eps_psd=eps_psd)
    cfg = SamplerConfig(seed=seed, n_samples=n_scan)
    _, n_phys, hits = count_constraint(spec, "multiplicative", cfg, eps_psd)
    expected_empty = spec.regions[spec.default_mode].abs_product_sup <= bound + 1e-9
    if expected_empty:
        consistent = opt.best_value <= bound + 1e-9 and hits == 0
    else:
        consistent = opt.best_value > bound and hits > 0
    return {
        "model": spec.model_id,
        "multiplicative_threshold": spec.multiplicative_threshold,
        "threshold_sqrt": bound,
        "max_abs_product": opt.best_value,
        "max_point": list(opt.best_point),
        "restarts": restarts,
        "scan_samples": n_scan,
        "scan_physical": n_phys,
        "scan_hits": hits,
        "expected_empty": expected_empty,
        "consistent": consistent,
    }
