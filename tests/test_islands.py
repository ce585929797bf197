import itertools
import tracemalloc

import numpy as np
import pytest

from entarch import islands, models, sampling
from entarch.errors import ConfigurationError, ContractViolation
from entarch.linalg import DEFAULT_EPS_PSD

M1 = models.get_model("M1")
M2 = models.get_model("M2")
M3 = models.get_model("M3")
M5 = models.get_model("M5")


class TestLabelComponents:
    @pytest.mark.parametrize(
        "voxels, expected",
        [
            ([(0, 0, 0), (1, 0, 0)], [0, 0]),  # shared face
            ([(0, 0, 0), (0, 1, 1)], [0, 1]),  # shared edge only
            ([(0, 0, 0), (1, 1, 1)], [0, 1]),  # shared corner only
            # a U whose arms join in the second t1 plane keeps the id of its first
            # voxel; the lone voxel scanned between the arms comes second
            (
                [(0, 0, 0), (0, 0, 2), (0, 2, 0), (1, 0, 0), (1, 0, 1), (1, 0, 2)],
                [0, 0, 1, 0, 0, 0],
            ),
        ],
        ids=["face", "edge", "corner", "scan_order"],
    )
    def test_hand_built_grid(self, voxels, expected):
        # voxels are listed in C order, the order of the returned labels
        occ = np.zeros((3, 3, 3), dtype=bool)
        occ[tuple(np.array(voxels).T)] = True
        labels, count = islands.label_components(occ)
        assert labels.tolist() == expected
        assert count == max(expected) + 1

    def test_empty_grid(self):
        labels, count = islands.label_components(np.zeros((5, 5, 5), dtype=bool))
        assert count == 0 and len(labels) == 0


class TestEnumerateIslands:
    def test_resolution_validation(self):
        with pytest.raises(ContractViolation):
            islands.enumerate_islands(M1, resolution=120)
        with pytest.raises(ContractViolation):
            islands.enumerate_islands(M1, resolution=31)

    def test_grid_too_large_for_memory_refused_before_allocation(self, tmp_path):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="physical memory"):
                islands.enumerate_islands(M1, resolution=100001)
            with pytest.raises(ConfigurationError, match="physical memory"):
                islands.export_point_cloud(M1, tmp_path / "x.csv", resolution=100001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert not (tmp_path / "x.csv").exists()

    def test_grid_of_voxel_centers_is_never_built(self):
        islands.enumerate_islands(M1, "multiplicative", 81)  # warm-up: caches and imports
        tracemalloc.start()
        try:
            islands.enumerate_islands(M1, "multiplicative", 81)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (res^3, 3) float array of centers alone would be 24 B per voxel
        assert peak < 16 * 81**3

    def test_full_occupancy_peak_is_within_refusal_figure(self, monkeypatch):
        def everywhere(spec, ts, *rest):
            return np.ones(len(ts), dtype=bool)

        monkeypatch.setattr(islands, "constraint_mask", everywhere)
        monkeypatch.setattr(models, "physical_mask", everywhere)
        islands.enumerate_islands(M1, "multiplicative", 41)
        tracemalloc.start()
        try:
            report = islands.enumerate_islands(M1, "multiplicative", 41)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.occupied_voxels == 41**3
        assert peak <= islands.GRID_BYTES_PER_VOXEL * 41**3

    @pytest.mark.parametrize("spec", [M1, M2])
    def test_eight_islands_with_distinct_octants(self, spec):
        rep = islands.enumerate_islands(spec, "multiplicative", 81)
        assert rep.island_count == 8
        signatures = {isl.octant_signature for isl in rep.islands}
        assert len(signatures) == 8
        for sig in signatures:
            assert all(s in (-1, 1) for s in sig)

    def test_octant_signature_from_voxel_extent(self):
        # a sign is 0 on an axis whose coordinate plane the island reaches,
        # not the sign of a centroid that is zero up to rounding
        m5 = islands.enumerate_islands(M5, "additive", 33)
        assert [isl.octant_signature for isl in m5.islands] == [(0, 0, 0)]
        m2 = islands.enumerate_islands(M2, "non_ppt", 33)
        assert [isl.octant_signature for isl in m2.islands] == [
            (-1, 0, -1), (-1, 0, 1), (1, 0, -1), (1, 0, 1)
        ]
        m1 = islands.enumerate_islands(M1, "multiplicative", 33)
        signatures = {isl.octant_signature for isl in m1.islands}
        assert signatures == set(itertools.product((1, -1), repeat=3))

    def test_oracle_grid_is_classified_one_plane_at_a_time(self, monkeypatch):
        sizes = []
        mask = models.physical_mask

        def spy(spec, ts, *rest):
            sizes.append(len(ts))
            return mask(spec, ts, *rest)

        monkeypatch.setattr(models, "physical_mask", spy)
        islands.enumerate_islands(M5, "multiplicative", 33)
        # the eigen-oracle's state stack never holds more than one t1 plane
        assert sizes and max(sizes) <= 33**2

    def test_m5_empty_archipelago(self):
        rep = islands.enumerate_islands(M5, "multiplicative", 81)
        assert rep.island_count == 0
        assert rep.occupied_voxels == 0
        assert rep.islands == ()
        assert rep.physical_voxels > 0

    def test_sign_flip_equivariance(self):
        rep = islands.enumerate_islands(M1, "multiplicative", 81)
        counts = sorted(isl.voxel_count for isl in rep.islands)
        # grid is sign-symmetric for odd resolutions: all eight islands are
        # mirror images with exactly equal voxel counts
        assert len(set(counts)) == 1
        # and the occupied voxel set maps onto itself under every axis flip
        ax = islands.grid_axis(81, M1.box_half)
        t1, t2, t3 = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.column_stack([t1.ravel(), t2.ravel(), t3.ravel()])
        occ = (
            models.physical_mask(M1, pts) & models.multiplicative_mask(M1, pts)
        ).reshape(81, 81, 81)
        for axis in range(3):
            assert np.array_equal(occ, np.flip(occ, axis=axis))

    def test_volume_fractions_sum_to_grid_probability(self):
        rep = islands.enumerate_islands(M1, "multiplicative", 81)
        total = sum(isl.volume_fraction for isl in rep.islands)
        assert total == pytest.approx(rep.occupied_voxels / rep.physical_voxels)

    def test_islands_sorted_descending(self):
        rep = islands.enumerate_islands(M3, "multiplicative", 81)
        counts = [isl.voxel_count for isl in rep.islands]
        assert counts == sorted(counts, reverse=True)
        assert [isl.id for isl in rep.islands] == list(range(1, len(counts) + 1))

    def test_total_fraction_matches_sampling_estimate(self):
        # grid-integrated volume fraction vs Monte Carlo, allowing the
        # binomial error plus a voxel-shell bound for surface voxels
        from entarch import sampling

        rep = islands.enumerate_islands(M1, "multiplicative", 81)
        total = sum(isl.volume_fraction for isl in rep.islands)
        cfg = sampling.SamplerConfig(seed=42, n_samples=1_000_000)
        est = sampling.estimate_probability(M1, "multiplicative", cfg)
        ax = islands.grid_axis(81, M1.box_half)
        t1, t2, t3 = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.column_stack([t1.ravel(), t2.ravel(), t3.ravel()])
        occ = (
            models.physical_mask(M1, pts) & models.multiplicative_mask(M1, pts)
        ).reshape(81, 81, 81)
        padded = np.pad(occ, 1, constant_values=False)
        interior = padded[1:-1, 1:-1, 1:-1].copy()
        for axis in range(3):
            interior &= np.roll(padded, 1, axis=axis)[1:-1, 1:-1, 1:-1]
            interior &= np.roll(padded, -1, axis=axis)[1:-1, 1:-1, 1:-1]
        surface = int(occ.sum() - interior.sum())
        shell_bound = surface * rep.voxel_volume / models.physical_volume(M1)
        assert abs(total - est.probability) <= 3 * (est.std_error + shell_bound)

    def test_m3_multiplicative_voxels_are_free_entangled(self):
        rep = islands.enumerate_islands(M3, "multiplicative", 41)
        assert rep.island_count > 0
        ax = islands.grid_axis(41, M3.box_half)
        t1, t2, t3 = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.column_stack([t1.ravel(), t2.ravel(), t3.ravel()])
        occ = models.physical_mask(M3, pts) & models.multiplicative_mask(M3, pts)
        assert not np.any(models.ppt_mask(M3, pts[occ]))


class TestExport:
    def test_csv_grid_export(self, tmp_path):
        path = tmp_path / "m1.csv"
        summary = islands.export_point_cloud(M1, path, "multiplicative", resolution=81)
        lines = path.read_text().splitlines()
        assert lines[0] == "t1,t2,t3,label,island_id"
        assert summary["points"] == len(lines) - 1
        assert summary["island_count"] == 8
        for line in lines[1:]:
            t1, t2, t3, label, iid = line.split(",")
            t = (float(t1), float(t2), float(t3))
            assert abs(t[1]) <= 0.5 and abs(t[0]) + abs(t[2]) <= 0.5
            assert label == "bound_entangled"
            assert 1 <= int(iid) <= 8

    def test_csv_sampled_export_additive_minus_mult(self, tmp_path):
        path = tmp_path / "m3.csv"
        summary = islands.export_point_cloud(
            M3, path, "additive_minus_mult", n_samples=20_000, seed=5
        )
        lines = path.read_text().splitlines()
        assert summary["points"] == len(lines) - 1 > 0
        for line in lines[1:]:
            *_, label, iid = line.split(",")
            assert label == "free_entangled"  # additive region is non-PPT here
            assert iid == "-1"

    def test_empty_region_header_only(self, tmp_path):
        path = tmp_path / "m5.csv"
        summary = islands.export_point_cloud(M5, path, "multiplicative", n_samples=5_000)
        assert summary["points"] == 0
        assert path.read_text() == "t1,t2,t3,label,island_id\n"

    def test_ply_format(self, tmp_path):
        path = tmp_path / "m1.ply"
        summary = islands.export_point_cloud(
            M1, path, "multiplicative", resolution=41, fmt="ply"
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert lines[2] == f"element vertex {summary['points']}"
        assert lines[-1].endswith("214 39 40")  # bound_entangled color

    def test_sampled_ply_matches_sampled_csv(self, tmp_path):
        # sample mode counts its vertices only while writing, so its body is spooled
        kwargs = dict(constraint="non_ppt", n_samples=100_000, seed=5)  # two chunks
        csv = islands.export_point_cloud(M3, tmp_path / "m3.csv", **kwargs)
        ply = islands.export_point_cloud(M3, tmp_path / "m3.ply", fmt="ply", **kwargs)
        rows = [line.split(",") for line in (tmp_path / "m3.csv").read_text().splitlines()[1:]]
        lines = (tmp_path / "m3.ply").read_text().splitlines()
        assert ply["points"] == csv["points"] == len(rows) > islands.EXPORT_SLICE
        assert lines[2] == f"element vertex {len(rows)}" and lines[9] == "end_header"
        assert lines[10:] == [
            "{:.9g} {:.9g} {:.9g} {} {} {}".format(
                float(t1), float(t2), float(t3), *islands.PALETTE[label]
            )
            for t1, t2, t3, label, _ in rows
        ]
        assert not set(tmp_path.iterdir()) - {tmp_path / "m3.csv", tmp_path / "m3.ply"}

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        islands.export_point_cloud(M1, p1, "multiplicative", n_samples=10_000, seed=2)
        islands.export_point_cloud(M1, p2, "multiplicative", n_samples=10_000, seed=2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_argument_validation(self, tmp_path):
        with pytest.raises(ContractViolation):
            islands.export_point_cloud(M1, tmp_path / "x.csv")
        with pytest.raises(ContractViolation):
            islands.export_point_cloud(
                M1, tmp_path / "x.csv", resolution=41, n_samples=10
            )
        with pytest.raises(ContractViolation):
            islands.export_point_cloud(
                M1, tmp_path / "x.csv", resolution=41, fmt="stl"
            )

    def test_labels_use_requested_mode(self, tmp_path, monkeypatch):
        modes = []
        mask = models.physical_mask

        def spy(spec, ts, mode=None, *rest):
            modes.append(mode)
            return mask(spec, ts, mode, *rest)

        monkeypatch.setattr(models, "physical_mask", spy)
        islands.export_point_cloud(
            M1, tmp_path / "x.csv", resolution=33, physical_mode=models.MODE_PSD_ORACLE
        )
        # the occupancy grid (one call per t1 plane) and the point labels both
        # use the requested mode
        assert None not in modes
        assert modes.count(models.MODE_PSD_ORACLE) == 33 + 1

    def test_sampled_labels_are_bounded_by_chunk_size(self, tmp_path, monkeypatch):
        sizes = []
        mask = models.physical_mask

        def spy(spec, ts, *rest):
            sizes.append(len(ts))
            return mask(spec, ts, *rest)

        monkeypatch.setattr(models, "physical_mask", spy)
        # about 1e5 accepted points, more than one 65536-point chunk
        summary = islands.export_point_cloud(M2, tmp_path / "x.csv", "non_ppt", n_samples=200_000)
        assert summary["points"] > sampling.SamplerConfig().chunk_size
        assert max(sizes) <= sampling.SamplerConfig().chunk_size

    def test_sampled_export_memory_is_bounded_by_one_chunk(self, tmp_path):
        def peak(n_samples, fmt):
            tracemalloc.start()
            try:
                islands.export_point_cloud(
                    M2, tmp_path / f"x.{fmt}", "multiplicative", n_samples=n_samples, fmt=fmt
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk_bytes = sampling.SamplerConfig().chunk_size * 3 * 8  # one chunk of draws
        for fmt in ("csv", "ply"):
            # about 1.8e5 points at 2e6 draws: 4.3 MB of coordinates if stacked
            assert peak(2_000_000, fmt) <= peak(200_000, fmt) + chunk_bytes

    def test_grid_labels_are_bounded_by_slice_size(self, tmp_path, monkeypatch):
        sizes = []
        mask = models.physical_mask

        def spy(spec, ts, *rest):
            sizes.append(len(ts))
            return mask(spec, ts, *rest)

        monkeypatch.setattr(models, "physical_mask", spy)
        summary = islands.export_point_cloud(M3, tmp_path / "x.csv", "multiplicative", resolution=81)
        assert summary["points"] > islands.EXPORT_SLICE
        assert max(sizes) <= islands.EXPORT_SLICE

    @pytest.mark.parametrize("fmt", ["csv", "ply"])
    def test_sliced_export_matches_whole_array_reference(self, tmp_path, fmt):
        path = tmp_path / f"m3.{fmt}"
        islands.export_point_cloud(M3, path, "multiplicative", resolution=81, fmt=fmt)
        mode = models.resolve_mode(M3, None)
        _, pts, ids = islands._islands_full(M3, "multiplicative", 81, mode, DEFAULT_EPS_PSD)
        # more points than one sampling chunk, so any slice size up to it cuts the file
        assert len(pts) > sampling.SamplerConfig().chunk_size
        phys = models.physical_mask(M3, pts, mode)
        ppt = models.ppt_mask(M3, pts)
        constrained = models.additive_mask(M3, pts) | models.multiplicative_mask(M3, pts)
        labels = np.where(
            ~phys,
            "unphysical",
            np.where(~ppt, "free_entangled", np.where(constrained, "bound_entangled", "undetermined")),
        )
        assert "free_entangled" in labels
        if fmt == "csv":
            expected = "t1,t2,t3,label,island_id\n" + "".join(
                f"{t1:.17g},{t2:.17g},{t3:.17g},{lab},{iid}\n"
                for (t1, t2, t3), lab, iid in zip(pts, labels, ids)
            )
        else:
            expected = (
                f"ply\nformat ascii 1.0\nelement vertex {len(pts)}\n"
                "property float x\nproperty float y\nproperty float z\n"
                "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"
            ) + "".join(
                "{:.9g} {:.9g} {:.9g} {} {} {}\n".format(t1, t2, t3, *islands.PALETTE[str(lab)])
                for (t1, t2, t3), lab in zip(pts, labels)
            )
        assert path.read_text() == expected

    def test_io_error_has_path_context(self, tmp_path):
        bad = tmp_path / "missing" / "x.csv"
        with pytest.raises(OSError, match="missing"):
            islands.export_point_cloud(M1, bad, "multiplicative", resolution=41)


def test_palette_colors_every_label():
    assert set(islands.PALETTE) == set(models.LABELS)
