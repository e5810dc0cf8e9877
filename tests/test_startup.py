"""Start-up contract: each CLI command executes only the modules it uses.

Every case runs the command in a fresh interpreter and lists the ``cotame``
modules whose code was executed.  A module that is registered for lazy
loading but not yet run has no ``__builtins__`` in its namespace; the
namespace is read with ``object.__getattribute__``, which does not trigger
the load.  It also lists the other modules the command added to
``sys.modules``: no command imports ``dataclasses``, and only a request
over ``Q`` imports ``fractions``.  Only a request over ``GF:`` executes
``cotame.gf``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cotame
from cotame.maps import elementary
from cotame.poly import parse_poly
from cotame.rings import ring_from_spec
from cotame.witness import build_witness

SRC = Path(cotame.__file__).resolve().parent.parent

EXECUTED = """
import json, sys
before = set(sys.modules)
{setup}
executed = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "cotame"
    and "__builtins__" in object.__getattribute__(module, "__dict__")
)
added = sorted(
    name for name in set(sys.modules) - before if name.split(".")[0] != "cotame"
)
sys.stderr.write(json.dumps([executed, added]))
"""

RUN_CLI = "import cotame.cli\ncotame.cli.run(sys.argv[1:])"

BASE = ["cotame", "cotame.cli", "cotame.errors", "cotame.poly", "cotame.rings"]
MAPS = sorted(BASE + ["cotame.maps"])
VERIFIER = sorted(MAPS + ["cotame.endo", "cotame.linalg"])
DECIDER = sorted(MAPS + ["cotame.classify"])
DELTA = sorted(DECIDER + ["cotame.delta"])
BUILDER = sorted(DECIDER + ["cotame.endo", "cotame.linalg", "cotame.witness"])


def with_gf(modules):
    return sorted(modules + ["cotame.gf"])


def executed_modules(setup, argv=(), cwd=None):
    proc = subprocess.run(
        [sys.executable, "-c", EXECUTED.format(setup=setup), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC),
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    executed, added = json.loads(proc.stderr)
    assert "dataclasses" not in added
    return proc.stdout, executed, added


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A map over F_5, a word for x2*x3, and maps over Z/6, Q, F_3 (decided
    by the difference operators), GF(2^5) (the span-gf2e map, Unknown) and
    GF(9) (the quintic, decided by the span scan)."""
    tmp = tmp_path_factory.mktemp("startup")
    maps = {
        "phi": ("Fp:5", ["x1 + x2*x3", "x2", "x3"]),
        "phi6": ("Zn:6", ["x1 + 3*x2^2", "x2"]),
        "phiq": ("Q", ["x1 + 1/2*x2^2", "x2"]),
        "delta": ("Fp:3", ["x1 + x2^2*x3^2", "x2", "x3"]),
        "span": ("GF:2^5", ["x1 + x2^31*x3 + x2*x3^31", "x2", "x3"]),
        "quintic": ("GF:3^2", ["x1 + x2^5", "x2", "x3"]),
    }
    for name, (ring, images) in maps.items():
        (tmp / f"{name}.json").write_text(
            json.dumps({"ring": ring, "n": len(images), "images": images})
        )
    F5 = ring_from_spec("Fp:5")
    phi = elementary(parse_poly("x2*x3", F5, 3))
    word = build_witness(phi, parse_poly("x2*x3", F5, 3))
    (tmp / "word.json").write_text(json.dumps(word.to_json()))
    return tmp


def case(argv, expected, case_id=None, status="ok"):
    return pytest.param(argv, expected, status, id=case_id or argv[0])


CASES = [
    case(["parse", "--ring", "Fp:5", "--n", "3", "--poly", "x1 + x2"], BASE),
    case(["verify", "--phi", "phi.json", "--target", "x2*x3", "--word",
          "word.json"], VERIFIER),
    case(["reduce", "--phi", "phi6.json", "--ideal", "3"], MAPS),
    case(["compose", "--phi", "phi.json", "--psi", "phi.json"], MAPS),
    case(["invert", "--phi", "phi.json"], VERIFIER),
    case(["decide", "--phi", "phi.json"], DECIDER),
    case(["classify", "--phi", "phi.json"], DECIDER),
    case(["ngg-check", "--phi", "phi.json"], DECIDER),
    case(["witness", "--phi", "phi.json", "--target", "x2*x3"], BUILDER),
    # a J-full witness runs the span scan, never the difference operators
    case(["witness", "--phi", "quintic.json", "--target", "x2*x3"],
         with_gf(BUILDER), "witness-J-full"),
    # a delta-route witness loads delta through decide
    case(["witness", "--phi", "delta.json", "--target", "x2*x3"],
         sorted(BUILDER + ["cotame.delta"]), "witness-delta"),
    case(["theta", "--ring", "Fp:7", "--N", "1"], VERIFIER),
    case(["theta", "--ring", "Fp:7", "--N", "1", "--analyze"],
         sorted(VERIFIER + ["cotame.classify"]), "theta-analyze"),
    # decide and classify reach the difference-operator search on both maps:
    # it certifies the F_3 map, and the GF(2^5) map ends Unknown.  The search
    # solves no linear system, so none of them runs linalg.  ngg-check never
    # decides.  None of them runs witness.
    case(["decide", "--phi", "delta.json"], DELTA, "decide-delta"),
    case(["decide", "--phi", "span.json"], with_gf(DELTA), "decide-span",
         "unknown-verdict"),
    case(["classify", "--phi", "delta.json"], DELTA, "classify-delta"),
    case(["classify", "--phi", "span.json"], with_gf(DELTA), "classify-span",
         "unknown-verdict"),
    case(["ngg-check", "--phi", "delta.json"], DECIDER, "ngg-check-delta"),
    case(["ngg-check", "--phi", "span.json"], with_gf(DECIDER),
         "ngg-check-span"),
    # a verdict with no route ends the witness request before it loads the
    # builder or the inverse
    case(["witness", "--phi", "span.json", "--target", "x2*x3"],
         with_gf(DELTA), "witness-span", "unknown-verdict"),
    case(["witness", "--phi", "phi6.json", "--target", "x2^2"], DECIDER,
         "witness-Zn", "unknown-verdict"),
    case(["parse", "--ring", "Q", "--n", "2", "--poly", "1/2*x1"], BASE,
         "parse-Q"),
    case(["parse", "--ring", "Z", "--n", "2", "--poly", "2*x1"], BASE,
         "parse-Z"),
    case(["parse", "--ring", "GF:3^2", "--n", "2", "--poly", "[0,1]*x1"],
         with_gf(BASE), "parse-GF"),
    case(["decide", "--phi", "phiq.json"], DECIDER, "decide-Q"),
]


@pytest.mark.parametrize("argv, expected, status", CASES)
def test_command_executes_only_its_modules(files, argv, expected, status):
    out, executed, added = executed_modules(RUN_CLI, argv, cwd=files)
    assert json.loads(out)["status"] == status
    assert executed == expected
    if "--ring" in argv:
        ring = argv[argv.index("--ring") + 1]
    else:
        ring = json.loads((files / argv[2]).read_text())["ring"]
    assert ("fractions" in added) == (ring == "Q")
    assert ("cotame.gf" in executed) == ring.startswith("GF:")


def test_package_import_executes_no_submodule():
    _, executed, added = executed_modules("import cotame")
    assert executed == ["cotame"]
    assert "fractions" not in added


def test_package_names_resolve_on_access():
    _, executed, _ = executed_modules("import cotame\ncotame.build_witness")
    assert executed == [m for m in BUILDER if m != "cotame.cli"]
    for name in cotame.__all__:
        assert getattr(cotame, name) is not None
    assert set(cotame.__all__) <= set(dir(cotame))
    assert cotame.decide is cotame.classify.decide
    assert cotame.verify_witness is cotame.endo.verify_witness
    with pytest.raises(AttributeError):
        cotame.no_such_name
