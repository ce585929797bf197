"""The JSON payload of each result record, pinned byte for byte.

The CLI prints ``as_dict()`` of these records as its result and the
benchmark hashes island reports the same way; the literals were recorded
from the hand-written ``as_dict`` bodies that ``dataclasses.asdict`` replaced.
"""

import dataclasses
import json

import pytest

from entarch import bounds, islands, models, sampling, special

get = models.get_model

RECORDS = {
    "Classification": (
        lambda: models.classify(get("M1"), (0.2, 0.45, 0.25)),
        '{"additive": false, "label": "bound_entangled", '
        '"min_eigenvalue": 0.01249999999999999, "min_pt_eigenvalue": 0.01249999999999999, '
        '"multiplicative": true, "physical": true, "ppt": true}'
    ),
    "FormulaReport": (
        lambda: special.p2_closed(),
        '{"identity_checks": {"uniform_product_tail_form": 8.326672684688674e-17}, '
        '"name": "two_ququart_closed", "parts": {"cross_form": 0.08904962548229423, '
        '"log_ratio": 0.5232481437645479, '
        '"uniform_product_tail_constant": 0.3511659807956104}, "value": 0.08904962548229414}'
    ),
    "Island": (
        lambda: islands.enumerate_islands(get("M1"), "multiplicative", 33).islands[0],
        '{"bbox": [[-0.3939393939393939, -0.09090909090909088], [-0.48484848484848486, '
        '-0.2727272727272727], [-0.3939393939393939, -0.09090909090909088]], '
        '"centroid": [-0.2253588516746408, -0.4114832535885162, -0.22535885167464154], '
        '"id": 1, "octant_signature": [-1, -1, -1], "volume_fraction": 0.0105643591882124, '
        '"voxel_count": 190}'
    ),
    "IslandReport": (
        # the one island reaches every coordinate plane, so its octant signature is (0, 0, 0)
        lambda: islands.enumerate_islands(get("M5"), "additive", 33),
        '{"bounding_box": [[-0.4444444444444444, 0.4444444444444444], [-0.4444444444444444, '
        '0.4444444444444444], [-0.4444444444444444, 0.4444444444444444]], '
        '"constraint": "additive", "island_count": 1, '
        '"islands": [{"bbox": [[-0.43097643097643096, 0.430976430976431], '
        '[-0.43097643097643096, 0.430976430976431], [-0.43097643097643096, '
        '0.430976430976431]], "centroid": [1.2818249629904036e-17, 2.7850717819359647e-18, '
        '-1.4963273859469623e-18], "id": 1, "octant_signature": [0, 0, 0], '
        '"volume_fraction": 0.68084654962075, "voxel_count": 12836}], "model": "M5", '
        '"occupied_voxels": 12836, "physical_mode": "psd_oracle", "physical_voxels": 18853, '
        '"resolution": 33, "voxel_volume": 1.95434221440638e-05}'
    ),
    "OptResult": (
        lambda: bounds.maximize(get("M1"), "abs_product", restarts=8),
        '{"best_point": [-0.25, -0.5, -0.25], "best_value": 0.03125, "feasible": true, '
        '"feasible_set": "physical", "model": "M1", "objective": "abs_product", '
        '"restarts": 8}'
    ),
    "VolumeEstimate": (
        lambda: sampling.estimate_probability(
            get("M3"), "additive", sampling.SamplerConfig(seed=3, n_samples=5000)
        ),
        '{"chunk_size": 65536, "constraint": "additive", "method": "mc", "model": "M3", '
        '"n_physical": 1744, "n_samples": 5000, "physical_mode": "analytic", '
        '"probability": 0.5068807339449541, "seed": 3, "std_error": 0.011971694816430133, '
        '"stream": "pseudo"}'
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_json_is_pinned(name):
    make, text = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert json.dumps(record.as_dict(), sort_keys=True) == text
    assert list(record.as_dict()) == [f.name for f in dataclasses.fields(record)]
