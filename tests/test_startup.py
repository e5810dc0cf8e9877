"""Start-up contract: each CLI command executes only the modules it uses.

Every case runs the command in a fresh interpreter and lists the ``cotame``
modules whose code was executed.  A module that is registered for lazy
loading but not yet run has no ``__builtins__`` in its namespace; the
namespace is read with ``object.__getattribute__``, which does not trigger
the load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cotame
from cotame.endo import elementary
from cotame.poly import parse_poly
from cotame.rings import ring_from_spec
from cotame.witness import build_witness

SRC = Path(cotame.__file__).resolve().parent.parent

EXECUTED = """
import json, sys
{setup}
executed = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "cotame"
    and "__builtins__" in object.__getattribute__(module, "__dict__")
)
sys.stderr.write(json.dumps(executed))
"""

RUN_CLI = "import cotame.cli\ncotame.cli.run(sys.argv[1:])"

BASE = ["cotame", "cotame.cli", "cotame.errors", "cotame.poly", "cotame.rings"]
VERIFIER = sorted(BASE + ["cotame.endo"])
DECIDER = sorted(VERIFIER + ["cotame.classify"])
EVERYTHING = sorted(DECIDER + ["cotame.witness"])


def executed_modules(setup, argv=(), cwd=None):
    proc = subprocess.run(
        [sys.executable, "-c", EXECUTED.format(setup=setup), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC),
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return proc.stdout, json.loads(proc.stderr)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A map over F_5, a word for x2*x3 and a map over Z/6."""
    tmp = tmp_path_factory.mktemp("startup")
    images = ["x1 + x2*x3", "x2", "x3"]
    (tmp / "phi.json").write_text(
        json.dumps({"ring": "Fp:5", "n": 3, "images": images})
    )
    (tmp / "phi6.json").write_text(
        json.dumps({"ring": "Zn:6", "n": 2, "images": ["x1 + 3*x2^2", "x2"]})
    )
    F5 = ring_from_spec("Fp:5")
    phi = elementary(parse_poly("x2*x3", F5, 3))
    word = build_witness(phi, parse_poly("x2*x3", F5, 3))
    (tmp / "word.json").write_text(json.dumps(word.to_json()))
    return tmp


CASES = [
    (["parse", "--ring", "Fp:5", "--n", "3", "--poly", "x1 + x2"], BASE),
    (["verify", "--phi", "phi.json", "--target", "x2*x3", "--word", "word.json"],
     VERIFIER),
    (["reduce", "--phi", "phi6.json", "--ideal", "3"], VERIFIER),
    (["compose", "--phi", "phi.json", "--psi", "phi.json"], VERIFIER),
    (["invert", "--phi", "phi.json"], VERIFIER),
    (["decide", "--phi", "phi.json"], DECIDER),
    (["classify", "--phi", "phi.json"], DECIDER),
    (["ngg-check", "--phi", "phi.json"], DECIDER),
    (["witness", "--phi", "phi.json", "--target", "x2*x3"], EVERYTHING),
    (["theta", "--ring", "Fp:7", "--N", "1"], EVERYTHING),
]


@pytest.mark.parametrize("argv, expected", CASES, ids=[a[0] for a, _ in CASES])
def test_command_executes_only_its_modules(files, argv, expected):
    out, executed = executed_modules(RUN_CLI, argv, cwd=files)
    assert json.loads(out)["status"] == "ok"
    assert executed == expected


def test_package_import_executes_no_submodule():
    _, executed = executed_modules("import cotame")
    assert executed == ["cotame"]


def test_package_names_resolve_on_access():
    _, executed = executed_modules("import cotame\ncotame.theta_map")
    assert executed == [m for m in EVERYTHING if m != "cotame.cli"]
    for name in cotame.__all__:
        assert getattr(cotame, name) is not None
    assert set(cotame.__all__) <= set(dir(cotame))
    assert cotame.decide is cotame.classify.decide
    assert cotame.verify_witness is cotame.witness.verify_witness
    with pytest.raises(AttributeError):
        cotame.no_such_name
