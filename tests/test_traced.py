"""The traced benchmark entry point wraps names of the package by their
(module, attribute) path; a rename inside the package must fail here rather
than break ``bench/run.py --trace 1`` at run time."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "bench" / "traced.py"
SRC = ROOT / "src"


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


def test_traced_run_of_a_decide_request(tmp_path):
    # install() reads modules the CLI registers for lazy loading
    (tmp_path / "phi.json").write_text(json.dumps(
        {"ring": "Fp:5", "n": 3, "images": ["x1 + x2*x3", "x2", "x3"]}
    ))
    spans = tmp_path / "spans.jsonl"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans), "r1", "--",
         "decide", "--phi", "phi.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["payload"]["answer"] == "StablyCotame"
    record = json.loads(spans.read_text().splitlines()[0])
    assert record["exit"] == 0
    assert record["agg"]["classify.decide"][0] == 1


def test_traced_run_of_a_witness_request(tmp_path):
    # the builder runs once, on decide's verdict, and its word is the report's
    (tmp_path / "phi.json").write_text(json.dumps(
        {"ring": "Fp:5", "n": 3, "images": ["x1 + x2*x3", "x2", "x3"]}
    ))
    spans = tmp_path / "spans.jsonl"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans), "r1", "--",
         "witness", "--phi", "phi.json", "--target", "x2^2*x3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    assert payload["route"] == "M-phi-case-a" and payload["verified"] is True
    record = json.loads(spans.read_text().splitlines()[0])
    assert record["agg"]["classify.decide"][0] == 1
    assert record["agg"]["witness.build"][0] == 1
    assert record["counters"]["word_letters"] == payload["word_length"]
