import numpy as np
import pytest

from entarch import bounds, models, sampling

M1 = models.get_model("M1")
M2 = models.get_model("M2")
M3 = models.get_model("M3")
M5 = models.get_model("M5")


class TestMaximize:
    def test_m3_product_over_octahedron(self):
        # PPT-and-physical for the two-qubit family is the octahedron
        # |t1|+|t2|+|t3| <= 1, where the product maximum is 1/27 at the
        # (+-1/3, +-1/3, +-1/3) points with an even number of minus signs.
        res = bounds.maximize(M3, "abs_product", "ppt_and_physical", restarts=16, seed=0)
        assert abs(res.best_value - 1 / 27) <= 1e-6
        assert np.allclose(np.abs(res.best_point), 1 / 3, atol=1e-4)

    def test_m1_product_over_physical(self):
        # max |t1 t3| on the diamond is 1/16 (at |t1| = |t3| = 1/4), times
        # |t2| <= 1/2 gives 1/32.
        res = bounds.maximize(M1, "abs_product", "physical", restarts=16, seed=0)
        assert abs(res.best_value - 1 / 32) <= 1e-6

    def test_m2_cube_product(self):
        res = bounds.maximize(
            M2, "abs_product", "physical", restarts=8, seed=0, physical_mode="paper_cube"
        )
        assert abs(res.best_value - 1 / 64) <= 1e-6

    def test_m3_l1_over_physical(self):
        res = bounds.maximize(M3, "l1_norm", "physical", restarts=16, seed=0)
        assert abs(res.best_value - 3.0) <= 1e-6

    def test_best_point_feasible_by_oracle(self):
        for spec, fset in ((M1, "physical"), (M3, "ppt_and_physical"), (M5, "physical")):
            res = bounds.maximize(spec, "abs_product", fset, restarts=8, seed=1)
            assert res.feasible
            verdict = models.classify(spec, res.best_point, physical_mode="psd_oracle")
            assert verdict.physical
            if fset == "ppt_and_physical":
                assert verdict.ppt
            assert res.best_value == pytest.approx(
                abs(np.prod(res.best_point)), abs=0
            )

    def test_beats_random_search(self):
        res = bounds.maximize(M3, "abs_product", "physical", restarts=16, seed=2)
        cfg = sampling.SamplerConfig(seed=3, n_samples=300_000)
        best_random = 0.0
        for chunk in sampling.sample_physical(M3, cfg):
            best_random = max(best_random, float(np.abs(chunk.prod(axis=1)).max()))
        assert res.best_value >= best_random

    def test_restart_monotonicity(self):
        values = [
            bounds.maximize(M1, "abs_product", "physical", restarts=k, seed=4).best_value
            for k in (8, 12, 16, 24)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bounds.maximize(M1, "volume", "physical")
        with pytest.raises(ValueError):
            bounds.maximize(M1, "abs_product", "everything")
        with pytest.raises(ValueError):
            bounds.maximize(M1, "abs_product", "physical", restarts=4)

    def test_no_feasible_start(self, monkeypatch):
        from entarch.errors import SearchFailure

        monkeypatch.setattr(
            models,
            "physical_mask",
            lambda spec, ts, mode=None, eps_psd=0: np.zeros(
                len(np.atleast_2d(ts)), dtype=bool
            ),
        )
        with pytest.raises(SearchFailure):
            bounds.maximize(M1, "abs_product", "physical", restarts=8, seed=0)


class TestThresholdConsistency:
    def test_m1_nonempty(self):
        rep = bounds.threshold_consistency(M1, restarts=8, seed=0, n_scan=100_000)
        assert rep["consistent"]
        assert not rep["expected_empty"]
        assert rep["max_abs_product"] > rep["threshold_sqrt"]
        assert rep["scan_hits"] > 0

    def test_m2_cube_nonempty(self):
        rep = bounds.threshold_consistency(M2, restarts=8, seed=0, n_scan=100_000)
        assert rep["consistent"]
        assert rep["max_abs_product"] == pytest.approx(1 / 64, abs=1e-6)
        assert rep["threshold_sqrt"] == pytest.approx((2 / 27) ** 2, abs=1e-17)

    def test_m5_empty(self):
        rep = bounds.threshold_consistency(M5, restarts=8, seed=0, n_scan=200_000)
        assert rep["expected_empty"]
        assert rep["consistent"]
        assert rep["scan_hits"] == 0
        assert rep["max_abs_product"] <= rep["threshold_sqrt"] + 1e-9

    @pytest.mark.parametrize("model_id", sorted(models.MODELS))
    def test_expectation_follows_region_supremum(self, model_id):
        spec = models.get_model(model_id)
        rep = bounds.threshold_consistency(spec, restarts=8, seed=0, n_scan=20_000)
        # restarts=8, seed=0 are maximize's defaults, so this is maximize(spec, "abs_product")
        region = spec.regions[spec.default_mode]
        assert rep["max_abs_product"] == pytest.approx(region.abs_product_sup, abs=1e-6)
        assert rep["expected_empty"] is (model_id == "M5")
