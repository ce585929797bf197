"""Voxel-grid enumeration of the disjoint components of a constrained region.

Voxel centers are classified by (physical AND constraint), one t1 plane at
a time; occupied voxels are grouped by ``scipy.ndimage.label`` under its
default 6-connectivity (face adjacency).  Odd resolutions keep the grid
sign-symmetric, with the middle voxel layer centered on each coordinate
plane; strict constraints of the form |t1 t2 t3| > c leave that layer
empty, so sign octants can never merge.  26-connectivity could bridge
octants diagonally and is deliberately not offered.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import models
from .errors import ContractViolation
from .linalg import DEFAULT_EPS_PSD
from .sampling import SamplerConfig, constraint_mask, sample_physical

# Vertex colors for PLY export, one per classification label.
PALETTE = {
    "unphysical": (128, 128, 128),
    "undetermined": (204, 204, 204),
    "bound_entangled": (214, 39, 40),
    "free_entangled": (31, 119, 180),
}

MIN_RESOLUTION = 33


@dataclass(frozen=True)
class Island:
    id: int
    voxel_count: int
    volume_fraction: float
    centroid: tuple
    octant_signature: tuple
    bbox: tuple  # ((t1min,t1max), (t2min,t2max), (t3min,t3max))

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "voxel_count": self.voxel_count,
            "volume_fraction": self.volume_fraction,
            "centroid": list(self.centroid),
            "octant_signature": list(self.octant_signature),
            "bbox": [list(iv) for iv in self.bbox],
        }


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

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "constraint": self.constraint,
            "resolution": self.resolution,
            "bounding_box": [list(iv) for iv in self.bounding_box],
            "physical_mode": self.physical_mode,
            "island_count": self.island_count,
            "islands": [isl.as_dict() for isl in self.islands],
            "physical_voxels": self.physical_voxels,
            "occupied_voxels": self.occupied_voxels,
            "voxel_volume": self.voxel_volume,
        }


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


def _grid_points(spec, resolution):
    ax = grid_axis(resolution, spec.box_half)
    t1, t2, t3 = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.column_stack([t1.ravel(), t2.ravel(), t3.ravel()])


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
    # One t1 plane per call bounds the oracle's state stack at res^2 matrices.
    pts_all = _grid_points(spec, resolution)
    planes = np.split(pts_all, resolution)
    cmask = np.concatenate([constraint_mask(spec, p, constraint, eps_psd) for p in planes])
    pmask = np.concatenate([models.physical_mask(spec, p, mode, eps_psd) for p in planes])
    occupied = (cmask & pmask).reshape(resolution, resolution, resolution)
    n_physical = int(np.count_nonzero(pmask))
    labels, count = label_components(occupied)
    pts = pts_all[occupied.ravel()]
    half = spec.box_half
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
        islands.append(
            Island(
                id=rank,
                voxel_count=int(len(members)),
                volume_fraction=len(members) / n_physical if n_physical else 0.0,
                centroid=tuple(float(c) for c in centroid),
                octant_signature=tuple(int(np.sign(c)) for c in centroid),
                bbox=tuple(
                    (float(mpts[:, k].min()), float(mpts[:, k].max())) for k in range(3)
                ),
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
    (for example M5) and yields an empty report.
    """
    mode = models.resolve_mode(spec, physical_mode)
    report, _, _ = _islands_full(spec, constraint, resolution, mode, eps_psd)
    return report


def _point_labels(spec, pts, mode, eps_psd):
    """Classification label per point, via the vectorized mask fast paths."""
    phys = models.physical_mask(spec, pts, mode, eps_psd)
    ppt = models.ppt_mask(spec, pts, eps_psd)
    add = models.additive_mask(spec, pts)
    mult = models.multiplicative_mask(spec, pts)
    return np.where(
        ~phys,
        "unphysical",
        np.where(~ppt, "free_entangled", np.where(add | mult, "bound_entangled", "undetermined")),
    )


def _write_csv(path, pts, labels, island_ids):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t1,t2,t3,label,island_id\n")
        for (t1, t2, t3), lab, iid in zip(pts, labels, island_ids):
            fh.write(f"{t1:.17g},{t2:.17g},{t3:.17g},{lab},{iid}\n")


def _write_ply(path, pts, labels):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(pts)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for (t1, t2, t3), lab in zip(pts, labels):
            r, g, b = PALETTE[str(lab)]
            fh.write(f"{t1:.9g} {t2:.9g} {t3:.9g} {r} {g} {b}\n")


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
    points with island_id = -1.  CSV columns are exactly
    t1,t2,t3,label,island_id; PLY vertices are colored by label per
    ``PALETTE``.  Ordering is deterministic either way, and an empty
    region produces a valid header-only file.
    """
    if (resolution is None) == (n_samples is None):
        raise ContractViolation("exactly one of resolution or n_samples must be given")
    if fmt not in ("csv", "ply"):
        raise ContractViolation(f"format must be 'csv' or 'ply', got {fmt!r}")
    mode = models.resolve_mode(spec, physical_mode)
    if resolution is not None:
        report, pts, island_ids = _islands_full(spec, constraint, resolution, mode, eps_psd)
        labels = _point_labels(spec, pts, mode, eps_psd) if len(pts) else np.zeros(0, dtype=object)
        summary_extra = {"resolution": resolution, "island_count": report.island_count}
    else:
        # Label each chunk as it is drawn: the oracle never sees more than chunk_size points.
        cfg = SamplerConfig(seed=seed, n_samples=n_samples, physical_mode=mode)
        pts, labels = [np.zeros((0, 3))], [np.zeros(0, dtype=object)]
        for chunk in sample_physical(spec, cfg, eps_psd):
            chunk = chunk[constraint_mask(spec, chunk, constraint, eps_psd)]
            if len(chunk):
                pts.append(chunk)
                labels.append(_point_labels(spec, chunk, mode, eps_psd))
        pts, labels = np.vstack(pts), np.concatenate(labels)
        island_ids = np.full(len(pts), -1, dtype=np.int64)
        summary_extra = {"n_samples": n_samples, "seed": seed}
    try:
        if fmt == "csv":
            _write_csv(path, pts, labels, island_ids)
        else:
            _write_ply(path, pts, labels)
    except OSError as exc:
        raise OSError(f"failed writing point cloud to {path}: {exc}") from exc
    return {
        "model": spec.model_id,
        "constraint": constraint,
        "physical_mode": mode,
        "format": fmt,
        "path": str(path),
        "points": int(len(pts)),
        **summary_extra,
    }
