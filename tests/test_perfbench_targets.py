"""The benchmark's traced pass wraps translab functions by name; a rename
in translab must fail here rather than in the benchmark."""

import importlib
import importlib.util
from pathlib import Path


def _layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # a path is a module attribute, or Cls.meth in the class __dict__,
    # exactly as the tracer looks them up
    for modname, path, _span, _hook in _layers().TARGETS:
        module = importlib.import_module(modname)
        if "." in path:
            clsname, attr = path.split(".")
            assert attr in vars(getattr(module, clsname)), f"{modname}.{path}"
        else:
            assert callable(getattr(module, path, None)), f"{modname}.{path}"
