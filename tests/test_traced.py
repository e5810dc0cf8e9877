"""The traced benchmark entry point wraps names of the package by their
(module, attribute) path; a rename inside the package must fail here rather
than break ``bench/run.py --trace 1`` at run time."""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    traced = load_traced()
    assert traced.WRAPPED
    for name, targets in traced.WRAPPED.items():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            if "." in path:
                # install() replaces the attribute in the class's own dict
                cls_name, attr = path.split(".")
                assert attr in vars(getattr(owner, cls_name)), (name, path)
            else:
                assert callable(getattr(owner, path, None)), (name, path)
