"""The benchmark's layer map names functions that exist.

``bench/layers.json`` lists, per module, the functions the benchmark's
tracer wraps; a name that no longer resolves makes every traced run fail.
This test reads the map (and changes nothing under ``bench/``) so that a
refactor that drops or renames one of them fails here first.
"""

import importlib
import json
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.json"


def test_every_layer_function_exists():
    layers = json.loads(LAYERS.read_text(encoding="utf-8"))
    missing = []
    for layer, groups in layers.items():
        module = importlib.import_module(f"morphlie.{layer}")
        for names in groups.values():
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or attr not in vars(owner) or not callable(getattr(owner, attr)):
                    missing.append(f"morphlie.{layer}.{name}")
    assert not missing, missing
