"""The bit-identity listing of ``tools/bitident.py`` runs in-process and names each output once."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bitident_names_are_unique():
    spec = importlib.util.spec_from_file_location("bitident", ROOT / "tools" / "bitident.py")
    bitident = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitident)
    listing = bitident.digests()
    names = [name for name, _ in listing]
    assert len(names) == len(set(names))
    assert all(" " not in name for name in names)
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, digest in listing)
    groups = {name.split("/")[0].split(":")[0] for name in names}
    assert {"cli", "islands", "export", "record", "verify_all", "extremal_states", "maximize",
            "estimate", "couplings", "generator_basis"} <= groups
