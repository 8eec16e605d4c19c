"""The benchmark's traced functions still exist where it looks for them.

bench/layers.py wraps each name in TRACED by module attribute; a name that
moved would leave its per-layer metric silently at zero.  The file is only
read here, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for mod_name, names in layers.TRACED.items():
        module = importlib.import_module(f"joinrings.{mod_name}")
        for name in names:
            if (mod_name, name) == ("groupring", "mul"):
                target = module.GroupRingElem.__dict__.get("__mul__")
            else:
                target = vars(module).get(name)
            assert callable(target), f"joinrings.{mod_name}.{name}"
