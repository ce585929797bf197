"""Reproducible Monte Carlo / low-discrepancy estimation of region probabilities.

Work is split into fixed-size chunks.  Chunk ``i`` owns an independent
random substream derived purely from ``(seed, i)``: the Philox key is the
SeedSequence hash of the seed and the 256-bit counter starts at
``i << 128``.  Low-discrepancy mode uses one global scrambled Sobol
sequence, with chunk ``i`` covering positions ``[i*chunk_size, ...)`` via
fast-forward.  Estimates are therefore bit-identical for a fixed
(seed, n_samples, stream, chunk_size, physical_mode) regardless of how
many workers process the chunks.

``n_samples`` counts raw candidate draws.  Where the mode's region
(``models.ModelSpec.regions``) maps the unit cube onto the set - the prism
and the cube - every draw is physical; other regions, and "psd_oracle" mode
always, reject from the tight bounding box, and ``n_physical`` records how
many draws were accepted.  Probabilities are conditional on
physicality: p = hits / n_physical with the binomial standard error
sqrt(p(1-p)/n_physical) (for the low-discrepancy stream this is the
nominal iid-equivalent figure, typically conservative).
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.stats import qmc

from . import models
from .errors import ConfigurationError, ContractViolation
from .linalg import DEFAULT_EPS_PSD

CONSTRAINTS = (
    "multiplicative",
    "additive",
    "non_ppt",
    "additive_minus_mult",
    "mult_minus_additive",
)

STREAM_PSEUDO = "pseudo"
STREAM_LDS = "low_discrepancy"

_MIN_ACCEPTANCE = 1e-3

@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    n_samples: int = 1_000_000
    stream: str = STREAM_PSEUDO
    chunk_size: int = 65536
    physical_mode: str | None = None

    def __post_init__(self):
        if self.n_samples <= 0 or self.chunk_size <= 0:
            raise ContractViolation("n_samples and chunk_size must be positive")
        if self.stream not in (STREAM_PSEUDO, STREAM_LDS):
            raise ContractViolation(f"unknown stream {self.stream!r}")


@dataclass(frozen=True)
class VolumeEstimate:
    """A probability estimate conditional on physicality, with provenance."""

    model: str
    constraint: str
    probability: float
    std_error: float
    n_samples: int
    n_physical: int
    method: str
    seed: int
    stream: str
    chunk_size: int
    physical_mode: str

    as_dict = asdict


def _philox_key(seed: int) -> int:
    words = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def _chunk_uniforms(cfg: SamplerConfig, chunk_index: int, count: int) -> np.ndarray:
    """The (count, 3) uniforms of chunk ``chunk_index``; pure in (cfg, index)."""
    if cfg.stream == STREAM_PSEUDO:
        bitgen = np.random.Philox(key=_philox_key(cfg.seed), counter=chunk_index << 128)
        return np.random.Generator(bitgen).random((count, 3))
    engine = qmc.Sobol(d=3, scramble=True, seed=cfg.seed)
    offset = chunk_index * cfg.chunk_size
    if offset:
        engine.fast_forward(offset)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Sobol balance warning for non-power-of-two n
        return engine.random(count)


def _direct_map(spec: models.ModelSpec, mode: str):
    """The region's map of unit-cube uniforms onto the set, or None for rejection.

    "psd_oracle" mode always rejects from the box, so that the oracle stays an
    independent check of the closed-form regions.
    """
    return None if mode == models.MODE_PSD_ORACLE else spec.regions[mode].direct


def _chunk_len(cfg: SamplerConfig, chunk_index: int) -> int:
    start = chunk_index * cfg.chunk_size
    return min(cfg.chunk_size, cfg.n_samples - start)


def _n_chunks(cfg: SamplerConfig) -> int:
    return (cfg.n_samples + cfg.chunk_size - 1) // cfg.chunk_size


def _chunk_points(spec, cfg, mode, chunk_index, eps_psd):
    """Raw points of one chunk plus their physicality mask."""
    u = _chunk_uniforms(cfg, chunk_index, _chunk_len(cfg, chunk_index))
    direct = _direct_map(spec, mode)
    if direct is not None:
        return direct(u), np.ones(len(u), dtype=bool)
    pts = (2.0 * u - 1.0) * spec.box_half
    return pts, models.physical_mask(spec, pts, mode, eps_psd)


def sample_physical(spec, cfg: SamplerConfig, eps_psd: float = DEFAULT_EPS_PSD):
    """Yield chunk-sized arrays of points uniform on the physical set.

    The union over chunks is the accepted subset of ``cfg.n_samples`` raw
    draws; rejection keeps the stream order.
    """
    mode = models.resolve_mode(spec, cfg.physical_mode)
    for i in range(_n_chunks(cfg)):
        pts, mask = _chunk_points(spec, cfg, mode, i, eps_psd)
        yield pts[mask]


def constraint_mask(
    spec, pts: np.ndarray, constraint: str, eps_psd: float = DEFAULT_EPS_PSD
) -> np.ndarray:
    """Vectorized membership test for one of the named constraints."""
    if constraint == "multiplicative":
        return models.multiplicative_mask(spec, pts)
    if constraint == "additive":
        return models.additive_mask(spec, pts)
    if constraint == "non_ppt":
        return ~models.ppt_mask(spec, pts, eps_psd)
    if constraint == "additive_minus_mult":
        return models.additive_mask(spec, pts) & ~models.multiplicative_mask(spec, pts)
    if constraint == "mult_minus_additive":
        return models.multiplicative_mask(spec, pts) & ~models.additive_mask(spec, pts)
    raise ContractViolation(f"unknown constraint {constraint!r}; choose from {CONSTRAINTS}")


def _count_chunk(spec, cfg, mode, constraint, chunk_index, eps_psd):
    pts, mask = _chunk_points(spec, cfg, mode, chunk_index, eps_psd)
    accepted = pts[mask]
    hits = int(np.count_nonzero(constraint_mask(spec, accepted, constraint, eps_psd)))
    return len(pts), int(np.count_nonzero(mask)), hits


def count_constraint(
    spec,
    constraint: str,
    cfg: SamplerConfig,
    eps_psd: float = DEFAULT_EPS_PSD,
    workers: int = 1,
):
    """(n_raw, n_physical, n_hits) over all chunks; independent of ``workers``."""
    mode = models.resolve_mode(spec, cfg.physical_mode)
    indices = range(_n_chunks(cfg))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda i: _count_chunk(spec, cfg, mode, constraint, i, eps_psd), indices)
            )
    else:
        results = [_count_chunk(spec, cfg, mode, constraint, i, eps_psd) for i in indices]
    n_raw = sum(r[0] for r in results)
    n_phys = sum(r[1] for r in results)
    n_hits = sum(r[2] for r in results)
    if _direct_map(spec, mode) is None and n_phys < _MIN_ACCEPTANCE * n_raw:
        raise ConfigurationError(
            f"rejection acceptance rate {n_phys / n_raw:.2e} below {_MIN_ACCEPTANCE}; "
            f"the bounding box for model {spec.model_id} looks wrong"
        )
    return n_raw, n_phys, n_hits


def estimate_probability(
    spec,
    constraint: str,
    cfg: SamplerConfig,
    eps_psd: float = DEFAULT_EPS_PSD,
    workers: int = 1,
) -> VolumeEstimate:
    """Fraction of physical samples satisfying ``constraint``.

    Bit-reproducible for a fixed config; ``workers`` only parallelizes the
    chunk loop and cannot change the result.
    """
    mode = models.resolve_mode(spec, cfg.physical_mode)
    n_raw, n_phys, n_hits = count_constraint(spec, constraint, cfg, eps_psd, workers)
    if n_phys == 0:
        raise ConfigurationError(
            f"no physical samples among {n_raw} draws for model {spec.model_id}"
        )
    p = n_hits / n_phys
    return VolumeEstimate(
        model=spec.model_id,
        constraint=constraint,
        probability=p,
        std_error=float(np.sqrt(p * (1.0 - p) / n_phys)),
        n_samples=n_raw,
        n_physical=n_phys,
        method="mc" if cfg.stream == STREAM_PSEUDO else "lds",
        seed=cfg.seed,
        stream=cfg.stream,
        chunk_size=cfg.chunk_size,
        physical_mode=mode,
    )


def samples_for_physical(spec, cfg: SamplerConfig, n_physical: int) -> SamplerConfig:
    """Config with ``n_samples`` scaled so roughly >= n_physical draws are accepted.

    Direct samplers accept everything; rejection models use a pilot run to
    gauge the acceptance rate, then pad by 10 percent.
    """
    mode = models.resolve_mode(spec, cfg.physical_mode)
    if _direct_map(spec, mode) is not None:
        return replace(cfg, n_samples=n_physical)
    pilot = replace(cfg, n_samples=max(4 * cfg.chunk_size, 20000))
    raw, phys, _ = count_constraint(spec, "multiplicative", pilot)
    rate = max(phys / raw, _MIN_ACCEPTANCE)
    return replace(cfg, n_samples=int(np.ceil(1.1 * n_physical / rate)))


def emptiness_check(
    spec,
    cfg: SamplerConfig | None = None,
    eps_psd: float = DEFAULT_EPS_PSD,
) -> dict:
    """Report whether the additive constraint can ever hold on the physical set.

    Gives the region's closed-form supremum of (|t1|+|t2|+|t3|)^2, the
    sampled maximum and the number of strict constraint hits among the
    physical samples.  For M1 and M2 the supremum does not exceed the
    threshold, so the hit count must be zero.
    """
    cfg = cfg or SamplerConfig()
    mode = models.resolve_mode(spec, cfg.physical_mode)
    threshold = spec.additive_threshold
    analytic_sup = spec.regions[mode].l1sq_sup
    n_phys = hits = 0
    sampled_sup = 0.0
    for chunk in sample_physical(spec, cfg, eps_psd):
        n_phys += len(chunk)
        if len(chunk):
            l1sq = np.sum(np.abs(chunk), axis=1) ** 2
            sampled_sup = max(sampled_sup, float(l1sq.max()))
            hits += int(np.count_nonzero(l1sq > threshold))
    empty = hits == 0 and analytic_sup <= threshold
    return {
        "model": spec.model_id,
        "constraint": "additive",
        "threshold": threshold,
        "analytic_sup": analytic_sup,
        "sampled_sup": sampled_sup,
        "n_samples": cfg.n_samples,
        "n_physical": n_phys,
        "hits": hits,
        "empty": empty,
        "physical_mode": mode,
        "seed": cfg.seed,
    }
