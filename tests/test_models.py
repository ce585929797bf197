import dataclasses
import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entarch import linalg, models, sampling
from entarch.generators import gell_mann, pauli
from entarch.errors import UnsupportedMode

M1 = models.get_model("M1")
M2 = models.get_model("M2")
M3 = models.get_model("M3")
M4 = models.get_model("M4")
M5 = models.get_model("M5")

finite_t = st.tuples(
    st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)
)


class TestBuildState:
    def test_m1_origin_is_maximally_mixed(self):
        assert np.allclose(models.build_state(M1, (0, 0, 0)), np.eye(8) / 8, atol=0)

    def test_m3_bell_vertex_is_pure(self):
        vals = linalg.hermitian_eigenvalues(models.build_state(M3, (1, 1, -1))).values
        assert np.allclose(vals, [0, 0, 0, 1], atol=1e-14)

    def test_m2_unit_trace(self):
        rho = models.build_state(M2, (0.1, -0.2, 0.05))
        assert abs(np.trace(rho).real - 1.0) <= 1e-14

    @given(finite_t, finite_t)
    @settings(max_examples=40, deadline=None)
    def test_affine_in_t(self, t, s):
        a = models.build_state(M3, t)
        b = models.build_state(M3, s)
        zero = models.build_state(M3, (0, 0, 0))
        both = models.build_state(M3, tuple(x + y for x, y in zip(t, s)))
        assert np.max(np.abs(a + b - zero - both)) <= 1e-14

    def test_hermitian_every_model(self):
        for spec in models.MODELS.values():
            rho = models.build_state(spec, (0.11, -0.07, 0.2))
            assert np.max(np.abs(rho - rho.conj().T)) == 0.0
            assert abs(np.trace(rho).real - 1.0) <= 1e-14


class TestPhysicalPredicates:
    def test_m1_boundary_and_interior(self):
        assert models.is_physical_analytic(M1, (0.2, 0.5, 0.3))
        assert not models.is_physical_analytic(M1, (0.21, 0.5, 0.3))

    def test_m3_vertex_outside(self):
        assert not models.is_physical_analytic(M3, (1, 1, 1))
        assert models.is_physical_analytic(M3, (1, 1, -1))

    def test_m2_cube_vs_prism(self):
        pt = (0.25, 0.25, 0.25)
        assert models.is_physical_analytic(M2, pt, models.MODE_PAPER_CUBE)
        assert not models.is_physical_analytic(M2, pt, models.MODE_ANALYTIC)
        # prism block eigenvalue 1/16 - (|t1|+|t3|)/4 goes negative there
        assert linalg.min_eigenvalue(models.build_state(M2, pt)) < -1e-3

    def test_m5_analytic_unsupported(self):
        with pytest.raises(UnsupportedMode):
            models.is_physical_analytic(M5, (0.1, 0.1, 0.1))

    def test_m1_sign_flip_invariance(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(-0.6, 0.6, (2000, 3))
        base = models.physical_mask(M1, pts)
        for axis in range(3):
            flip = pts.copy()
            flip[:, axis] *= -1.0
            assert np.array_equal(base, models.physical_mask(M1, flip))
        # same for the eigen-oracle on mirrored pairs
        flip_all = -pts
        assert np.array_equal(
            models.physical_mask(M1, pts, models.MODE_PSD_ORACLE),
            models.physical_mask(M1, flip_all, models.MODE_PSD_ORACLE),
        )

    @pytest.mark.parametrize("spec,half", [(M1, 0.6), (M3, 1.2), (M4, 0.54)])
    def test_analytic_matches_oracle(self, spec, half):
        rng = np.random.default_rng(32)
        pts = rng.uniform(-half, half, (20_000, 3))
        keep = np.abs(models.physical_margin(spec, pts)) > 1e-9
        assert np.array_equal(
            models.physical_mask(spec, pts[keep], models.MODE_ANALYTIC),
            models.physical_mask(spec, pts[keep], models.MODE_PSD_ORACLE),
        )


@lru_cache(maxsize=None)
def _box_sample(model_id):
    """2e5 seeded points uniform on the model's box and their eigen-oracle verdicts."""
    spec = models.get_model(model_id)
    rng = np.random.default_rng(40)
    pts = rng.uniform(-spec.box_half, spec.box_half, (200_000, 3))
    oracle = np.concatenate(
        [
            models.physical_mask(spec, chunk, models.MODE_PSD_ORACLE)
            for chunk in np.array_split(pts, 10)  # bounds the 16x16 M2 stacks
        ]
    )
    return pts, oracle


def _l1_witness(region):
    """A point of the region where (|t1|+|t2|+|t3|)^2 reaches its supremum."""
    a = region.size
    return {
        models.Prism: (a, a, 0.0),
        models.Cube: (a, a, a),
        models.Tetrahedron: (a, a, -a),
        models.Ball: (a / np.sqrt(3.0),) * 3,
    }[type(region)]


class TestRegions:
    @pytest.mark.parametrize(
        "model_id,mode",
        [(mid, mode) for mid, spec in sorted(models.MODELS.items()) for mode in spec.modes],
    )
    def test_region_record_matches_reference_set(self, model_id, mode):
        spec = models.get_model(model_id)
        region = spec.regions[mode]
        pts, oracle = _box_sample(model_id)

        cube = mode == models.MODE_PAPER_CUBE  # the documented domain, not the PSD set

        def inside(ts):
            if cube:
                return np.max(np.abs(ts), axis=1) <= 0.25
            return models.physical_mask(spec, ts, models.MODE_PSD_ORACLE)

        ref = inside(pts) if cube else oracle
        box_volume = (2.0 * spec.box_half) ** 3
        p = ref.mean()
        sigma = box_volume * np.sqrt(p * (1.0 - p) / len(pts))
        assert abs(models.physical_volume(spec, mode) - box_volume * p) <= 5.0 * sigma

        margin = models.physical_margin(spec, pts, mode)
        keep = np.abs(margin) > 1e-9
        assert np.array_equal(margin[keep] >= 0.0, ref[keep])

        l1sq = np.sum(np.abs(pts[ref]), axis=1) ** 2
        assert l1sq.max() <= region.l1sq_sup
        witness = np.array(_l1_witness(region))
        assert inside(witness[None, :])[0]
        assert np.sum(np.abs(witness)) ** 2 == pytest.approx(region.l1sq_sup, rel=1e-12)


    @pytest.mark.parametrize("model_id", ["M1", "M2"])
    def test_prism_margin_sign_is_the_face_comparison(self, model_id):
        # Points up to two ulps either side of the face |t1| + |t3| = a.
        spec = models.get_model(model_id)
        a = spec.box_half
        t1 = np.random.default_rng(41).uniform(0.0, a, 20_000)
        t3 = a - t1
        for step in (-np.inf, np.inf):
            for t3k in (t3, np.nextafter(t3, step), np.nextafter(np.nextafter(t3, step), step)):
                ts = np.column_stack([t1, np.zeros_like(t1), t3k])
                inside = np.abs(ts[:, 0]) + np.abs(ts[:, 2]) <= a
                margin = models.physical_margin(spec, ts, models.MODE_ANALYTIC)
                assert np.array_equal(margin >= 0.0, inside)
                assert np.array_equal(models.physical_mask(spec, ts, models.MODE_ANALYTIC), inside)


class TestPpt:
    def test_m2_physical_states_are_ppt(self):
        rng = np.random.default_rng(33)
        pts = rng.uniform(-0.25, 0.25, (200, 3))
        pts = pts[models.physical_mask(M2, pts, models.MODE_ANALYTIC)]
        for t in pts[:50]:
            assert models.is_ppt(M2, t)

    def test_m3_bell_state_not_ppt(self):
        assert not models.is_ppt(M3, (1, 1, -1))

    def test_m1_deep_point_ppt(self):
        assert models.is_ppt(M1, (0.24, 0.49, 0.24))

    def test_m2_partial_transpose_is_identity_bit_exact(self):
        rng = np.random.default_rng(34)
        for t in rng.uniform(-0.25, 0.25, (100, 3)):
            rho = models.build_state(M2, t)
            assert np.array_equal(linalg.partial_transpose_b(rho, 4, 4), rho)

    def test_m1_m5_partial_transpose_is_identity(self):
        rng = np.random.default_rng(35)
        for spec in (M1, M5):
            for t in rng.uniform(-0.4, 0.4, (20, 3)):
                rho = models.build_state(spec, t)
                assert np.array_equal(
                    linalg.partial_transpose_b(rho, spec.dim_a, spec.dim_b), rho
                )

    @pytest.mark.parametrize("spec,half", [(M1, 0.6), (M3, 1.2), (M4, 0.54), (M5, 0.5)])
    def test_fast_path_matches_pt_oracle(self, spec, half):
        rng = np.random.default_rng(36)
        pts = rng.uniform(-half, half, (400, 3))
        fast = models.ppt_mask(spec, pts)
        for t, expected in zip(pts, fast):
            # skip the thin band where tolerance conventions could differ
            rho = models.build_state(spec, t)
            pt = linalg.partial_transpose_b(rho, spec.dim_a, spec.dim_b)
            lo = linalg.hermitian_eigenvalues(pt).values[0]
            if abs(lo) < 1e-9:
                continue
            assert models.is_ppt(spec, t) == expected

    def test_ppt_fractions(self):
        rng = np.random.default_rng(37)
        # all physical M1 points are PPT
        pts = rng.uniform(-0.5, 0.5, (50_000, 3))
        phys = pts[models.physical_mask(M1, pts)]
        assert np.all(models.ppt_mask(M1, phys))
        # about half of the physical M3 points are PPT
        pts = rng.uniform(-1, 1, (150_000, 3))
        phys = pts[models.physical_mask(M3, pts)]
        frac = models.ppt_mask(M3, phys).mean()
        assert abs(frac - 0.5) < 0.01


class TestConstraints:
    def test_multiplicative_examples(self):
        assert models.satisfies_multiplicative(M1, (0.24, 0.49, 0.24))
        assert not models.satisfies_multiplicative(M3, (1 / 3, 1 / 3, 1 / 3))
        assert not models.satisfies_additive(M2, (0.2, 0.2, 0.2))

    def test_m3_multiplicative_inside_non_ppt(self):
        # PPT two-qubit states are separable, so any PPT point satisfying the
        # multiplicative constraint would be a contradiction.
        rng = np.random.default_rng(38)
        pts = rng.uniform(-1, 1, (1_000_000, 3))
        phys = pts[models.physical_mask(M3, pts)]
        hit = models.multiplicative_mask(M3, phys) & models.ppt_mask(M3, phys)
        assert int(hit.sum()) == 0


class TestClassify:
    def test_origin_undetermined(self):
        c = models.classify(M1, (0, 0, 0))
        assert c.physical and c.ppt and not c.additive and not c.multiplicative
        assert c.label == "undetermined"

    def test_bell_state_free_entangled(self):
        c = models.classify(M3, (1, 1, -1))
        assert c.physical and not c.ppt
        assert c.label == "free_entangled"

    def test_m1_bound_entangled_point(self):
        assert models.classify(M1, (0.24, 0.49, 0.24)).label == "bound_entangled"

    def test_unphysical_point(self):
        c = models.classify(M1, (0.4, 0.0, 0.4))
        assert c.label == "unphysical"
        assert c.min_eigenvalue < 0

    @given(finite_t)
    @settings(max_examples=60, deadline=None)
    def test_label_invariants(self, t):
        c = models.classify(M3, t)
        assert (c.label == "unphysical") == (not c.physical)
        assert (c.label == "free_entangled") == (c.physical and not c.ppt)
        assert (c.label == "bound_entangled") == (
            c.physical and c.ppt and (c.multiplicative or c.additive)
        )
        assert (c.label == "undetermined") == (
            c.physical and c.ppt and not c.multiplicative and not c.additive
        )

    def test_verdict_label_vocabulary(self):
        # (physical, ppt, constrained) in product order: F,F,F ... T,T,T
        verdicts = np.array(list(itertools.product([False, True], repeat=3)))
        labels = models.verdict_label(*verdicts.T).tolist()
        assert labels == ["unphysical"] * 4 + ["free_entangled"] * 2 + [
            "undetermined",
            "bound_entangled",
        ]
        assert set(labels) == set(models.LABELS)
        assert [str(models.verdict_label(*map(bool, v))) for v in verdicts] == labels
        assert type(models.classify(M1, (0, 0, 0)).label) is str


class TestExtremalStates:
    def test_variant_counts_and_traces(self):
        records = models.extremal_states()
        qubit = [r for r in records if r["side"] == "qubit"]
        ququart = [r for r in records if r["side"] == "ququart"]
        assert len(qubit) == 8 and len(ququart) == 4
        for r in records:
            assert abs(r["trace"] - 1.0) <= 1e-14

    def test_qubit_variants_pure(self):
        for r in models.extremal_states():
            if r["side"] != "qubit":
                continue
            vals = np.array(r["eigenvalues"])
            assert np.max(np.abs(vals - np.array([0.0, 1.0]))) <= 1e-12

    def test_ququart_variants_are_states(self):
        for r in models.extremal_states():
            if r["side"] != "ququart":
                continue
            assert r["min_eigenvalue"] >= -1e-12

    def test_sign_order(self):
        # qubit sign triples, then ququart pairs, each in itertools.product order of (1, -1)
        order = [(r["side"], r["signs"]) for r in models.extremal_states()]
        assert order == [
            ("qubit", (1, 1, 1)), ("qubit", (1, 1, -1)), ("qubit", (1, -1, 1)),
            ("qubit", (1, -1, -1)), ("qubit", (-1, 1, 1)), ("qubit", (-1, 1, -1)),
            ("qubit", (-1, -1, 1)), ("qubit", (-1, -1, -1)),
            ("ququart", (1, 1)), ("ququart", (1, -1)), ("ququart", (-1, 1)), ("ququart", (-1, -1)),
        ]


def test_catalog_shape():
    cat = models.catalog()
    assert [c["id"] for c in cat] == ["M1", "M2", "M3", "M4", "M5"]
    by_id = {c["id"]: c for c in cat}
    assert by_id["M1"]["multiplicative_threshold_fraction"] == "4/19683"
    assert by_id["M2"]["multiplicative_threshold_fraction"] == "16/531441"
    assert by_id["M3"]["multiplicative_threshold_fraction"] == "1/729"
    assert by_id["M4"]["multiplicative_threshold_fraction"] == "4096/387420489"
    assert by_id["M5"]["multiplicative_threshold_fraction"] == "4096/14348907"
    assert by_id["M2"]["default_physical_mode"] == "paper_cube"


BLOCK_BAND = 1e-9


class TestBlockOracle:
    """The eigen-oracle solves each family's exact coupling blocks, not the d x d state."""

    @pytest.mark.parametrize("model_id", sorted(models.MODELS))
    def test_blocks_split_every_coupling_exactly(self, model_id):
        spec = models.MODELS[model_id]
        k = spec.coupling_matrices
        blocks = [idx for indices, _ in spec.coupling_blocks for idx in indices]
        order = np.concatenate(blocks)
        assert sorted(order.tolist()) == list(range(spec.dim))
        inside = np.zeros((spec.dim, spec.dim), dtype=bool)
        for idx in blocks:
            inside[np.ix_(idx, idx)] = True
        assert np.all(k[:, ~inside] == 0)
        # in block order each coupling is block-diagonal, bit for bit
        permuted = k[:, order[:, None], order[None, :]]
        expected = np.zeros_like(permuted)
        start = 0
        for idx in blocks:
            end = start + len(idx)
            expected[:, start:end, start:end] = k[:, idx[:, None], idx[None, :]]
            start = end
        assert np.array_equal(permuted, expected)
        for indices, couplings in spec.coupling_blocks:
            assert np.array_equal(couplings, k[:, indices[:, :, None], indices[:, None, :]])

    @pytest.mark.parametrize("model_id", sorted(models.MODELS))
    def test_matches_full_state_oracle(self, model_id):
        spec = models.MODELS[model_id]
        rng = np.random.default_rng(20201)
        pts = (2.0 * rng.random((20000, 3)) - 1.0) * 1.1 * spec.box_half
        full = linalg.eigvalsh_stack(models.build_states(spec, pts))[:, 0]
        assert np.max(np.abs(models._least_eigenvalues(spec, pts) - full)) <= 1e-14
        mask = models.physical_mask(spec, pts, models.MODE_PSD_ORACLE)
        eps = linalg.DEFAULT_EPS_PSD
        away = np.abs(full + eps) > BLOCK_BAND
        assert 0 < np.count_nonzero(mask) < len(pts)
        assert np.array_equal(mask[away], (full >= -eps)[away])

    def test_variant_spec_derives_its_own_couplings(self):
        # a variant of M1 keeps the model id but reads the middle generator as l14
        variant = dataclasses.replace(M1, term_indices=((1, 1), (2, 14), (3, 3)))
        M1.coupling_matrices, M1.coupling_blocks  # fill the catalog model's caches first
        expected = np.array([np.kron(pauli(1), gell_mann(4, 1)),
                             np.kron(pauli(2), gell_mann(4, 14)),
                             np.kron(pauli(3), gell_mann(4, 3))])
        k = variant.coupling_matrices
        assert k[1].tobytes() == expected[1].tobytes()
        assert k.tobytes() == expected.tobytes()
        assert variant.pt_signs.tolist() == [1.0, -1.0, 1.0]
        for indices, couplings in variant.coupling_blocks:
            block = expected[:, indices[:, :, None], indices[:, None, :]]
            assert couplings.tobytes() == block.tobytes()
        assert np.array_equal(models.build_state(variant, (0.0, 0.4, 0.0)),
                              np.eye(8) / 8 + 0.1 * expected[1])
        # the catalog model keeps its own
        assert np.array_equal(M1.coupling_matrices[1], np.kron(pauli(2), gell_mann(4, 13)))

    def test_no_matrix_larger_than_3x3(self, monkeypatch):
        sizes = []
        eig = linalg.eigvalsh_stack

        def spy(stack):
            sizes.append(stack.shape[-1])
            return eig(stack)

        monkeypatch.setattr(models, "eigvalsh_stack", spy)
        monkeypatch.setattr(linalg, "eigvalsh_stack", spy)
        rng = np.random.default_rng(7)
        for spec in models.MODELS.values():
            pts = (2.0 * rng.random((500, 3)) - 1.0) * spec.box_half
            models.physical_mask(spec, pts, models.MODE_PSD_ORACLE)
            models.ppt_mask(spec, pts)
        assert sizes and max(sizes) <= 3

    @pytest.mark.parametrize(
        "model_id, constraint, n_physical, hits",
        [
            ("M1", "multiplicative", 33158, 2800),
            ("M2", "multiplicative", 33158, 0),
            ("M3", "multiplicative", 21791, 8427),
            ("M3", "non_ppt", 21791, 10807),
            ("M5", "multiplicative", 34515, 0),
            ("M5", "non_ppt", 34515, 0),
        ],
    )
    def test_seeded_counts_unchanged(self, model_id, constraint, n_physical, hits):
        # the literals were recorded with the full-state oracle
        cfg = sampling.SamplerConfig(seed=2020, n_samples=2**16, physical_mode=models.MODE_PSD_ORACLE)
        counts = sampling.count_constraint(models.MODELS[model_id], constraint, cfg)
        assert counts == (2**16, n_physical, hits)
