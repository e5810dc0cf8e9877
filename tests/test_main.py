"""The console script, ``python -m cotame``, in a fresh interpreter.

``cli.main()`` runs the command through ``cli.run`` and then freezes the
heap before it exits, so the collections at interpreter shutdown have
nothing to scan.  What must not change with that: the exit codes, the
stdout and the ``-o`` file (byte for byte what ``cli.run`` prints and
writes in-process) and the atexit handlers.  ``cli.run`` itself leaves the
collector alone.
"""

import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cotame
from cotame import cli

SRC = Path(cotame.__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

ATEXIT = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"frozen at exit: {gc.get_freeze_count() > 0}"))
from cotame.cli import main
main()
"""


def python(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          timeout=60, env=ENV)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """The README map over F_5 and a Z/6 map with no route."""
    tmp = tmp_path_factory.mktemp("console")
    for name, ring, images in (("phi", "Fp:5", ["x1 + x2*x3", "x2", "x3"]),
                               ("phi6", "Zn:6", ["x1 + 3*x2^2", "x2"])):
        (tmp / f"{name}.json").write_text(
            json.dumps({"ring": ring, "n": len(images), "images": images}))
    return tmp


REQUESTS = [
    pytest.param(["decide", "--phi", "phi.json"], 0, id="decide"),
    pytest.param(["witness", "--phi", "phi.json", "--target", "x2^2*x3",
                  "-o", "word.json"], 0, id="witness-o"),
    pytest.param(["theta", "--ring", "Fp:7", "--N", "1", "-o", "theta.json"], 0,
                 id="theta-o"),
    pytest.param(["compose", "--phi", "phi.json", "--psi", "phi.json",
                  "--format", "text", "-o", "composed.json"], 0, id="compose-text"),
    pytest.param(["witness", "--phi", "phi.json", "--target", "x9"], 1,
                 id="error"),
    pytest.param(["witness", "--phi", "phi6.json", "--target", "x2^2"], 2,
                 id="unknown-verdict"),
]


@pytest.mark.parametrize("argv, code", REQUESTS)
def test_the_console_prints_and_writes_what_run_does(folder, tmp_path, monkeypatch,
                                                     capsys, argv, code):
    child, here = tmp_path / "child", tmp_path / "here"
    shutil.copytree(folder, child)
    shutil.copytree(folder, here)
    proc = python(["-m", "cotame", *argv], child)
    assert (proc.returncode, proc.stderr) == (code, b"")
    monkeypatch.chdir(here)
    assert cli.run(argv) == code
    out = capsys.readouterr().out
    assert proc.stdout == out.encode("utf-8")
    if code == 1:
        assert json.loads(out)["status"] == "error"
    if "-o" in argv:
        name = argv[argv.index("-o") + 1]
        assert (child / name).read_bytes() == (here / name).read_bytes()


def test_a_usage_error_exits_2_without_json(folder):
    proc = python(["-m", "cotame", "decide", "--phi", "phi.json", "--no-such"],
                  folder)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert b"usage: cotame" in proc.stderr


def test_atexit_handlers_run_after_the_freeze(folder):
    proc = python(["-c", ATEXIT, "decide", "--phi", "phi.json"], folder)
    assert proc.returncode == 0
    assert proc.stderr == b"frozen at exit: True"
    assert json.loads(proc.stdout)["payload"]["answer"] == "StablyCotame"


def test_run_leaves_the_collector_alone(folder, monkeypatch, capsys):
    monkeypatch.chdir(folder)
    before = gc.get_freeze_count()
    assert cli.run(["witness", "--phi", "phi.json", "--target", "x2*x3"]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()


def test_main_freezes_once_after_the_command(monkeypatch):
    events = []
    monkeypatch.setattr(cli, "run", lambda argv: events.append(argv) or 2)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["cotame", "decide", "--phi", "phi.json"])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 2
    assert events == [["decide", "--phi", "phi.json"], "freeze"]
