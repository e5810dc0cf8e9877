"""Byte-identical CLI output: the golden corpus of tests/golden/."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regen)


def test_every_request_prints_what_the_corpus_holds(tmp_path):
    expected = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))
    results = regen.run_corpus(tmp_path)
    assert list(results) == list(expected)
    changed = [name for name in expected if results[name] != expected[name]]
    assert not changed, (
        f"{len(changed)} requests changed, first {changed[0]}: "
        f"{results[changed[0]]} instead of {expected[changed[0]]}"
    )


def test_the_corpus_is_small():
    files = [path for path in GOLDEN.rglob("*")
             if path.is_file() and "__pycache__" not in path.parts]
    assert sum(path.stat().st_size for path in files) < 1_000_000
    expected = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))
    assert len(expected) >= 150
