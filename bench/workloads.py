"""The four benchmark workloads: seeded inputs, library calls and correctness checks.

A workload is a pass of calls into the public entarch API, made one after
another by a single closed-loop client with the library's default arguments
(``workers=1``, as the CLI uses).  ``make_pass(index)`` generates the pass's
inputs from the workload seed and the pass index only, so a seed always gives
the same inputs.  Each call carries a check of its own result; a call that
raises or fails its check counts towards ``error_rate``.

Reference values are written out here rather than read from the library, so
a check cannot pass because the library changed the value it is checked
against.  ``wrong_reference`` shifts every reference, which the self-test
uses to prove that the checks can fail.
"""

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import entarch as ea

# Closed forms and paper values the estimates are checked against.
P1 = 0.08655423366978987  # M1 multiplicative, p1_simplified
_L = math.log(27.0 / 16.0)
P2 = (473.0 - 512.0 * _L * (1.0 + _L)) / 729.0  # M2 multiplicative on the cube, p2_closed
MULT_34 = 0.3911855600402  # M3/M4 multiplicative, paper decimal
SIGMAS = 5.0

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class Call:
    """One closed-loop request: ``run`` is timed, ``check`` is not."""

    kind: str  # estimate, grid, export, classify, maximize, eigen or verify
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    pass_s: float  # nominal seconds per pass on the seed code; sizes a run
    warmup: list
    make_pass: Callable[[int], list]
    accepted_kinds: tuple  # calls whose physical points feed accepted_per_s
    points_kinds: tuple  # calls whose evaluated points feed voxels_per_s


def call_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a call's position."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _within(value, ref, se) -> bool:
    return abs(value - ref) <= SIGMAS * se


def _binomial_se(q, n) -> float:
    return math.sqrt(q * (1.0 - q) / n)


# -- mc_analytic -------------------------------------------------------------

def mc_analytic(seed: int, smoke: bool, wrong_reference: bool, scratch: str) -> Workload:
    """Monte Carlo estimates at the CLI default of 1e6 draws, analytic masks only."""
    shift = 0.05 if wrong_reference else 0.0
    n = 16384 if smoke else 1_000_000
    n_lds = 2**14 if smoke else 2**20
    cases = [
        ("M1", "multiplicative", "pseudo", n, P1),
        ("M2", "multiplicative", "pseudo", n, P2),
        ("M3", "multiplicative", "pseudo", n, MULT_34),
        ("M3", "additive", "pseudo", n, 0.5),
        ("M3", "non_ppt", "pseudo", n, 0.5),
        ("M3", "additive_minus_mult", "pseudo", n, 0.5 - MULT_34),
        ("M4", "multiplicative", "pseudo", n, MULT_34),
        ("M3", "non_ppt", "low_discrepancy", n_lds, 0.5),
    ]

    def estimate_call(k, model, constraint, stream, draws, ref, pass_index):
        cfg = ea.SamplerConfig(seed=call_seed(seed, pass_index, k), n_samples=draws, stream=stream)

        def check(est):
            return est.n_samples == draws and _within(est.probability, ref + shift, est.std_error)

        return Call(
            "estimate",
            f"{model}.{constraint}.{stream}",
            lambda: ea.estimate_probability(ea.get_model(model), constraint, cfg),
            check,
        )

    def make_pass(p):
        return [estimate_call(k, *case, p) for k, case in enumerate(cases)]

    warm = [
        Call(
            "estimate",
            f"warmup.{m}.{c}.{s}",
            lambda m=m, c=c, s=s: ea.estimate_probability(
                ea.get_model(m), c, ea.SamplerConfig(seed=seed, n_samples=4096, stream=s)
            ),
            lambda est: est.n_samples == 4096,
        )
        for m, c, s, _, _ in cases
    ]
    return Workload(1.0, warm, make_pass, ("estimate",), ("estimate",))


# -- oracle_psd --------------------------------------------------------------

def oracle_psd(seed: int, smoke: bool, wrong_reference: bool, scratch: str) -> Workload:
    """The PSD eigen-oracle on chunked sample batches and one whole-grid batch."""
    shift = 0.05 if wrong_reference else 0.0
    big = 4096 if smoke else 65536
    small = 2048 if smoke else 32768
    res = 33 if smoke else 51
    # (model, draws, mode, probability reference, acceptance reference)
    cases = [
        ("M5", big, None, 0.0, None),
        ("M1", big, "psd_oracle", P1, 0.5),
        ("M2", small, "psd_oracle", None, 0.5),
        ("M3", big, "psd_oracle", MULT_34, 1.0 / 3.0),
    ]

    def estimate_call(k, model, draws, mode, p_ref, acc_ref, pass_index):
        cfg = ea.SamplerConfig(
            seed=call_seed(seed, pass_index, k), n_samples=draws, physical_mode=mode
        )

        def check(est):
            ok = est.n_samples == draws and est.n_physical > 0
            if p_ref == 0.0:  # the M5 entangled region is empty: no hits at all
                ok = ok and est.probability == shift
            elif p_ref is not None:
                ok = ok and _within(est.probability, p_ref + shift, est.std_error)
            if acc_ref is not None:
                acc = acc_ref + shift
                ok = ok and _within(est.n_physical / draws, acc, _binomial_se(acc, draws))
            return ok

        return Call(
            "estimate",
            f"{model}.{mode or 'default'}",
            lambda: ea.estimate_probability(ea.get_model(model), "multiplicative", cfg),
            check,
        )

    def islands_check(report):
        expected = 1 if wrong_reference else 0
        return report.island_count == expected and report.occupied_voxels == expected

    def make_pass(p):
        calls = [estimate_call(k, *case, p) for k, case in enumerate(cases)]
        calls.append(
            Call(
                "grid",
                f"M5.islands.{res}",
                lambda: ea.enumerate_islands(ea.get_model("M5"), "multiplicative", res),
                islands_check,
            )
        )
        return calls

    warm = [
        Call(
            "estimate",
            f"warmup.{m}",
            lambda m=m, mode=mode: ea.estimate_probability(
                ea.get_model(m), "multiplicative",
                ea.SamplerConfig(seed=seed, n_samples=1024, physical_mode=mode),
            ),
            lambda est: est.n_samples == 1024,
        )
        for m, _, mode, _, _ in cases
    ]
    return Workload(2.9, warm, make_pass, ("estimate",), ("grid",))


# -- grid_islands ------------------------------------------------------------

def _load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(report) -> str:
    text = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# M1 and M2 have one island per sign octant; the M3 and M4 tetrahedra have
# two islands in each of the four octants they reach.
_ALL_OCTANTS = Counter((a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1))
_TETRA_OCTANTS = Counter(
    {(-1, -1, -1): 2, (-1, 1, 1): 2, (1, -1, 1): 2, (1, 1, -1): 2}
)
SIGNATURES = {"M1": _ALL_OCTANTS, "M2": _ALL_OCTANTS, "M3": _TETRA_OCTANTS, "M4": _TETRA_OCTANTS}


def grid_islands(seed: int, smoke: bool, wrong_reference: bool, scratch: str) -> Workload:
    """Island enumeration on analytic grids plus CSV and PLY export of M1."""
    digests = _load_digests()
    if wrong_reference:
        digests = {k: "0" * 64 for k in digests}
    res = 33 if smoke else 81
    export_res = res

    def islands_call(model, res):
        def check(report):
            signatures = Counter(tuple(isl.octant_signature) for isl in report.islands)
            return (
                report.island_count == 8
                and signatures == SIGNATURES[model]
                and report_digest(report) == digests[f"islands/{model}/{res}"]
            )

        return Call(
            "grid",
            f"{model}.islands.{res}",
            lambda: ea.enumerate_islands(ea.get_model(model), "multiplicative", res),
            check,
        )

    def export_call(fmt):
        path = os.path.join(scratch, f"M1_{export_res}.{fmt}")

        def check(summary):
            return summary["island_count"] == 8 and file_digest(path) == digests[
                f"export/M1/{export_res}/{fmt}"
            ]

        return Call(
            "export",
            f"M1.export.{export_res}.{fmt}",
            lambda: ea.export_point_cloud(ea.get_model("M1"), path, resolution=export_res, fmt=fmt),
            check,
        )

    calls = [islands_call(m, res) for m in ("M1", "M2", "M3", "M4")]
    calls += [export_call("csv"), export_call("ply")]

    def make_pass(p):
        # The grids are fixed by the paper; the seed only orders the pass.
        order = np.random.default_rng(call_seed(seed, p)).permutation(len(calls))
        return [calls[i] for i in order]

    warm_path = os.path.join(scratch, "warmup.csv")
    warm = [
        Call(
            "grid", "warmup.islands",
            lambda: ea.enumerate_islands(ea.get_model("M1"), "multiplicative", 33),
            lambda report: report.island_count == 8,
        ),
        Call(
            "export", "warmup.export",
            lambda: ea.export_point_cloud(ea.get_model("M1"), warm_path, resolution=33),
            lambda summary: summary["island_count"] == 8,
        ),
    ]
    return Workload(2.9, warm, make_pass, ("grid",), ("grid", "export"))


# -- pointwise ---------------------------------------------------------------

BAND = 1e-9


def _expected_labels(spec, pts):
    """Labels from the public vectorized masks, and a mask of points in the band.

    The band holds points within 1e-9 of any decision boundary, where the
    per-point Jacobi verdict and the mask fast paths may legitimately differ.
    """
    phys = ea.models.physical_mask(spec, pts)
    ppt = ea.models.ppt_mask(spec, pts)
    add = ea.models.additive_mask(spec, pts)
    mult = ea.models.multiplicative_mask(spec, pts)
    labels = np.where(
        ~phys, "unphysical",
        np.where(~ppt, "free_entangled", np.where(add | mult, "bound_entangled", "undetermined")),
    )
    rho = ea.models.build_states(spec, pts)
    da, db = spec.dim_a, spec.dim_b
    pt = rho.reshape(-1, da, db, da, db).transpose(0, 1, 4, 3, 2).reshape(rho.shape)
    min_eig = ea.linalg.eigvalsh_stack(rho)[:, 0]
    min_pt_eig = ea.linalg.eigvalsh_stack(pt)[:, 0]
    if spec.model_id == "M5":
        phys_margin = min_eig
    else:
        phys_margin = ea.models.physical_margin(spec, pts)
    l1sq = np.sum(np.abs(pts), axis=1) ** 2
    prodsq = np.prod(pts, axis=1) ** 2
    band = (
        (np.abs(phys_margin) <= BAND)
        | (np.abs(min_pt_eig) <= BAND)
        | (np.abs(l1sq - spec.additive_threshold) <= BAND)
        | (np.abs(prodsq - spec.multiplicative_threshold) <= BAND)
    )
    return labels, band


def _hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def pointwise(seed: int, smoke: bool, wrong_reference: bool, scratch: str) -> Workload:
    """Single-point calls: classify, bounds, dense Jacobi and the identity checks."""
    shift = 1e-3 if wrong_reference else 0.0
    per_model = 2 if smoke else 64
    per_dim = 1 if smoke else 8
    restarts = 8  # one start per sign octant, the fewest maximize accepts
    m5_bound = math.sqrt(ea.get_model("M5").multiplicative_threshold) + 1e-9
    # (model, feasible set, restarts, (target within 1e-6) or (upper bound))
    maxima = [
        ("M1", "physical", restarts, 1.0 / 32.0, None),
        ("M2", "physical", restarts, 1.0 / 64.0, None),
        ("M3", "physical", restarts, 1.0, None),
        ("M4", "physical", restarts, (4.0 / 9.0) ** 3, None),
        ("M5", "physical", restarts, None, m5_bound),
        ("M3", "ppt_and_physical", restarts, 1.0 / 27.0, None),
    ]
    if smoke:
        maxima = [maxima[0], maxima[4], maxima[5]]

    def classify_call(spec, t, expected, in_band):
        if wrong_reference:
            expected = "no_such_label"
        return Call(
            "classify",
            f"{spec.model_id}.classify",
            lambda: ea.classify(spec, t),
            lambda c: in_band or c.label == expected,
        )

    def verify_check(checks):
        p1 = next(c["value"] for c in checks if c["name"] == "qubit_ququart_simplified_value")
        return all(c["passed"] for c in checks) and abs(p1 - P1 - shift) <= 1e-11

    def eigen_call(m, ref):
        scale = float(np.max(np.abs(m)))
        return Call(
            "eigen",
            f"jacobi.{m.shape[0]}",
            lambda: ea.hermitian_eigenvalues(m),
            lambda r: float(np.max(np.abs(r.values - ref))) <= 1e-10 * scale - shift,
        )

    def maximize_call(model, fset, rs, target, upper):
        def check(r):
            if upper is not None:
                return r.feasible and r.best_value <= upper - shift
            return r.feasible and abs(r.best_value - target - shift) <= 1e-6

        return Call(
            "maximize",
            f"{model}.maximize.{fset}",
            lambda: ea.maximize(ea.get_model(model), "abs_product", fset, restarts=rs),
            check,
        )

    def make_pass(p):
        rng = np.random.default_rng(call_seed(seed, p))
        calls = []
        for mid in sorted(ea.MODELS):
            spec = ea.get_model(mid)
            pts = (2.0 * rng.random((per_model, 3)) - 1.0) * spec.box_half
            labels, band = _expected_labels(spec, pts)
            calls += [classify_call(spec, t, str(lab), b) for t, lab, b in zip(pts, labels, band)]
        for dim in (4, 9, 16):
            mats = [_hermitian(rng, dim) for _ in range(per_dim)]
            refs = ea.linalg.eigvalsh_stack(np.array(mats))
            calls += [eigen_call(m, ref) for m, ref in zip(mats, refs)]
        # The search keeps its default seed: its restart points set how much
        # work it does, so a seeded schedule would make the pass length vary.
        calls += [maximize_call(*case) for case in maxima]
        calls.append(Call("verify", "verify_all", ea.verify_all, verify_check))
        # Interleave the cheap calls with the searches, so each kind is timed
        # across the whole pass rather than in one burst.
        return [calls[i] for i in rng.permutation(len(calls))]

    rng = np.random.default_rng(seed)
    warm = [
        Call("classify", f"warmup.{mid}", lambda mid=mid: ea.classify(ea.get_model(mid), (0.01, 0.02, 0.03)),
             lambda c: c.label == "undetermined")
        for mid in sorted(ea.MODELS)
    ]
    warm += [
        Call("eigen", f"warmup.jacobi.{dim}", lambda m=_hermitian(rng, dim): ea.hermitian_eigenvalues(m),
             lambda r: r.iterations > 0)
        for dim in (4, 9, 16)
    ]
    warm.append(Call("verify", "warmup.verify_all", ea.verify_all, lambda checks: len(checks) > 0))
    return Workload(1.8, warm, make_pass, ("classify",), ("classify",))


WORKLOADS = {
    "mc_analytic": mc_analytic,
    "oracle_psd": oracle_psd,
    "grid_islands": grid_islands,
    "pointwise": pointwise,
}
