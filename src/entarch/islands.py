"""Voxel-grid enumeration of the disjoint components of a constrained region.

Voxel centers are classified by (physical AND constraint), one t1 plane at
a time: each plane's points are built from ``grid_axis`` and dropped after
classifying, so only the boolean occupancy grid spans every voxel, and only
the occupied centers are gathered.  Occupied voxels are grouped by
``scipy.ndimage.label`` under its default 6-connectivity (face adjacency).
Odd resolutions keep the grid sign-symmetric, with the middle voxel layer
centered on each coordinate plane; strict constraints of the form
|t1 t2 t3| > c leave that layer empty, so sign octants can never merge.
26-connectivity could bridge octants diagonally and is deliberately not
offered.
"""

import os
import shutil
import tempfile
from dataclasses import asdict, dataclass

import numpy as np
from scipy import ndimage

from . import models
from .errors import ConfigurationError, ContractViolation
from .linalg import DEFAULT_EPS_PSD
from .sampling import CONSTRAINTS, SamplerConfig, constraint_mask, sample_physical

# Vertex colors for PLY export, one per classification label.
PALETTE = {
    "unphysical": (128, 128, 128),
    "undetermined": (204, 204, 204),
    "bound_entangled": (214, 39, 40),
    "free_entangled": (31, 119, 180),
}

MIN_RESOLUTION = 33

# Points labelled and written per export step; bounds the labels' oracle state stack.
EXPORT_SLICE = 8192

# Peak bytes a grid run allocates per voxel when every voxel is occupied
# (tracemalloc peak of ``_islands_full``: 74.4, 74.1, 73.7 and 73.5 B at
# resolutions 33, 41, 61 and 81); grids whose peak exceeds memory are refused.
GRID_BYTES_PER_VOXEL = 75


@dataclass(frozen=True)
class Island:
    id: int
    voxel_count: int
    volume_fraction: float
    centroid: tuple
    octant_signature: tuple
    bbox: tuple  # ((t1min,t1max), (t2min,t2max), (t3min,t3max))

    as_dict = asdict


@dataclass(frozen=True)
class IslandReport:
    model: str
    constraint: str
    resolution: int
    bounding_box: tuple
    physical_mode: str
    island_count: int
    islands: tuple
    physical_voxels: int
    occupied_voxels: int
    voxel_volume: float

    as_dict = asdict


def grid_axis(resolution: int, half: float) -> np.ndarray:
    """Voxel-center coordinates along one axis of the [-half, half] box."""
    return (np.arange(resolution) + 0.5) * (2.0 * half / resolution) - half


def _validate_resolution(resolution: int):
    if resolution % 2 == 0:
        raise ContractViolation(
            f"resolution must be odd so grid planes align with the coordinate "
            f"planes and octants cannot merge through them; got {resolution}"
        )
    if resolution < MIN_RESOLUTION:
        raise ContractViolation(f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")
    peak = GRID_BYTES_PER_VOXEL * resolution**3
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if peak > physical:
        raise ConfigurationError(
            f"resolution {resolution} needs about {peak / 2**30:.3g} GiB at its peak "
            f"({GRID_BYTES_PER_VOXEL} B per voxel), more than the {physical / 2**30:.3g} GiB "
            "of physical memory"
        )


def label_components(occupied: np.ndarray) -> tuple:
    """6-connected components of a boolean 3-d grid.

    Returns (labels, count): ``labels`` assigns each occupied voxel (in
    C-order over the flattened grid) a component id in 0..count-1, numbered
    in the scan order of each component's first voxel.
    """
    grid, count = ndimage.label(occupied)
    return grid[occupied].astype(np.int64) - 1, count


def _islands_full(spec, constraint, resolution, mode, eps_psd):
    """Shared worker: (report, occupied voxel centers, ranked island id per voxel)."""
    _validate_resolution(resolution)
    half = spec.box_half
    ax = grid_axis(resolution, half)
    t2, t3 = (t.ravel() for t in np.meshgrid(ax, ax, indexing="ij"))
    occupied = np.empty((resolution, t2.size), dtype=bool)
    n_physical = 0
    # Only one t1 plane of points exists at a time, which also bounds the
    # oracle's state stack at res^2 matrices; the grid itself is never built.
    for i, t1 in enumerate(ax):
        plane = np.column_stack([np.full(t2.size, t1), t2, t3])
        physical = models.physical_mask(spec, plane, mode, eps_psd)
        n_physical += int(np.count_nonzero(physical))
        occupied[i] = constraint_mask(spec, plane, constraint, eps_psd) & physical
    occupied = occupied.reshape((resolution,) * 3)
    labels, count = label_components(occupied)
    pts = ax[np.argwhere(occupied)]  # occupied voxel centers in C order, as ``labels``
    middle = ax[resolution // 2]  # center of the voxel layer on each coordinate plane
    voxel_volume = (2.0 * half / resolution) ** 3

    sizes = np.bincount(labels, minlength=count)
    members_of = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
    # Rank by voxel count descending; ties keep label order, the scan order of first voxels.
    order = np.argsort(-sizes, kind="stable")
    ranked_ids = np.zeros(len(pts), dtype=np.int64)
    islands = []
    for rank, cid in enumerate(order, start=1):
        members = members_of[cid]
        ranked_ids[members] = rank
        mpts = pts[members]
        centroid = mpts.mean(axis=0)
        bbox = tuple((float(mpts[:, k].min()), float(mpts[:, k].max())) for k in range(3))
        islands.append(
            Island(
                id=rank,
                voxel_count=int(len(members)),
                volume_fraction=len(members) / n_physical if n_physical else 0.0,
                centroid=tuple(float(c) for c in centroid),
                # Per axis: +1 or -1 for an island wholly on one side of the middle
                # voxel layer, 0 for one that reaches it (``ax`` is increasing, so this
                # is its voxel-index extent); a centroid's sign would be rounding noise.
                octant_signature=tuple(int(lo > middle) - int(hi < middle) for lo, hi in bbox),
                bbox=bbox,
            )
        )
    report = IslandReport(
        model=spec.model_id,
        constraint=constraint,
        resolution=resolution,
        bounding_box=tuple((-half, half) for _ in range(3)),
        physical_mode=mode,
        island_count=count,
        islands=tuple(islands),
        physical_voxels=n_physical,
        occupied_voxels=int(len(pts)),
        voxel_volume=voxel_volume,
    )
    return report, pts, ranked_ids


def enumerate_islands(
    spec,
    constraint: str = "multiplicative",
    resolution: int = 121,
    physical_mode: str | None = None,
    eps_psd: float = DEFAULT_EPS_PSD,
) -> IslandReport:
    """Connected-component decomposition of the constrained region.

    Islands are sorted by voxel count (descending, ties by first voxel in
    scan order) and carry grid-based volume fractions relative to the
    physical set, so the fractions sum to the grid estimate of the
    constrained probability.  Zero occupied voxels is a valid outcome
    (for example M5) and yields an empty report.  A resolution whose peak
    (``GRID_BYTES_PER_VOXEL`` per voxel) exceeds physical memory raises
    ``ConfigurationError`` before anything is allocated.
    """
    mode = models.resolve_mode(spec, physical_mode)
    report, _, _ = _islands_full(spec, constraint, resolution, mode, eps_psd)
    return report


def _point_labels(spec, pts, mode, eps_psd):
    """Classification label per point, via the vectorized mask fast paths."""
    return models.verdict_label(
        models.physical_mask(spec, pts, mode, eps_psd),
        models.ppt_mask(spec, pts, eps_psd),
        models.additive_mask(spec, pts) | models.multiplicative_mask(spec, pts),
    )


def _slices(pts, island_ids):
    """(points, island ids) in consecutive ``EXPORT_SLICE``-point parts."""
    for start in range(0, len(pts), EXPORT_SLICE):
        yield pts[start : start + EXPORT_SLICE], island_ids[start : start + EXPORT_SLICE]


def _sampled_batches(spec, cfg, constraint, eps_psd):
    """The accepted draws that meet ``constraint``, chunk by chunk, sliced, island id -1."""
    for chunk in sample_physical(spec, cfg, eps_psd):
        hits = chunk[constraint_mask(spec, chunk, constraint, eps_psd)]
        yield from _slices(hits, np.full(len(hits), -1, dtype=np.int64))


def _header(fmt, n_points):
    if fmt == "csv":
        return "t1,t2,t3,label,island_id\n"
    return (
        f"ply\nformat ascii 1.0\nelement vertex {n_points}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"
    )


def _write_rows(out, spec, batches, fmt, mode, eps_psd) -> int:
    """Label each (points, island ids) batch, write its rows to ``out``; return the row count."""
    row = "{:.17g},{:.17g},{:.17g},{},{}\n" if fmt == "csv" else "{:.9g} {:.9g} {:.9g} {} {} {}\n"
    n_rows = 0
    for pts, island_ids in batches:
        labels = _point_labels(spec, pts, mode, eps_psd).tolist()
        t1, t2, t3 = pts.T.tolist()
        if fmt == "csv":
            rest = (labels, island_ids.tolist())
        else:
            rest = zip(*[PALETTE[label] for label in labels])
        out.writelines(map(row.format, t1, t2, t3, *rest))
        n_rows += len(pts)
    return n_rows


def export_point_cloud(
    spec,
    path: str,
    constraint: str = "multiplicative",
    resolution: int | None = None,
    n_samples: int | None = None,
    fmt: str = "csv",
    seed: int = 0,
    physical_mode: str | None = None,
    eps_psd: float = DEFAULT_EPS_PSD,
) -> dict:
    """Write the constrained region as a CSV or PLY point cloud.

    Grid mode (``resolution``) exports occupied voxel centers with their
    island ids; sample mode (``n_samples``) exports accepted Monte Carlo
    points with island_id = -1, one sampling chunk at a time.  Either way
    the points are then labelled and written ``EXPORT_SLICE`` at a time, so
    in every mode at most one slice of labels (and of the labels' oracle
    states) is in flight, and sample mode never holds more than one chunk of
    points.  CSV columns are exactly t1,t2,t3,label,island_id; PLY vertices
    are colored by label per ``PALETTE``; a sampled PLY body is spooled to a
    temporary file beside ``path`` until its vertex count is known.
    Ordering is deterministic either way, and an empty region produces a
    valid header-only file.
    """
    if (resolution is None) == (n_samples is None):
        raise ContractViolation("exactly one of resolution or n_samples must be given")
    if fmt not in ("csv", "ply"):
        raise ContractViolation(f"format must be 'csv' or 'ply', got {fmt!r}")
    if constraint not in CONSTRAINTS:
        raise ContractViolation(f"unknown constraint {constraint!r}; choose from {CONSTRAINTS}")
    mode = models.resolve_mode(spec, physical_mode)
    if resolution is not None:
        report, pts, island_ids = _islands_full(spec, constraint, resolution, mode, eps_psd)
        batches, n_points = _slices(pts, island_ids), len(pts)
        summary_extra = {"resolution": resolution, "island_count": report.island_count}
    else:
        cfg = SamplerConfig(seed=seed, n_samples=n_samples, physical_mode=mode)
        batches, n_points = _sampled_batches(spec, cfg, constraint, eps_psd), None
        summary_extra = {"n_samples": n_samples, "seed": seed}
    try:
        with open(path, "w", encoding="ascii") as fh:
            if fmt == "csv" or n_points is not None:
                fh.write(_header(fmt, n_points))
                n_points = _write_rows(fh, spec, batches, fmt, mode, eps_psd)
            else:
                # Sampled points are counted only as they are written, and the PLY
                # header needs the count: the body is spooled on the file's own disk
                # (a memory-backed temp dir would unbound memory again).
                spool_dir = os.path.dirname(os.path.abspath(path))
                with tempfile.TemporaryFile("w+", encoding="ascii", dir=spool_dir) as body:
                    n_points = _write_rows(body, spec, batches, fmt, mode, eps_psd)
                    fh.write(_header(fmt, n_points))
                    body.seek(0)
                    shutil.copyfileobj(body, fh)
    except OSError as exc:
        raise OSError(f"failed writing point cloud to {path}: {exc}") from exc
    return {
        "model": spec.model_id,
        "constraint": constraint,
        "physical_mode": mode,
        "format": fmt,
        "path": str(path),
        "points": n_points,
        **summary_extra,
    }
