"""The golden corpus: every request of requests.json, run through the CLI.

Each request is one argv list for ``cotame``.  The requests run in order, in
one process, in a fresh directory holding a copy of ``inputs/``, so a
``verify`` reads the word that an earlier ``witness -o`` wrote.  For each
request the corpus keeps the exit code, the stdout and the file that ``-o``
names, if the request wrote it.  A text of at most SMALL bytes is kept in
full, as its lines; a larger one as its sha256 digest and its length.

``tests/test_golden.py`` compares a fresh run with expected.json byte for
byte.  After a deliberate change of output, rewrite expected.json with

    PYTHONPATH=src python tests/golden/regen.py

and state in the change what moved: the diff of expected.json shows it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SMALL = 4096


def kept(text):
    """The text as its lines when small, else its digest and length."""
    data = text.encode("utf-8")
    if len(data) <= SMALL:
        return text.split("\n")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _output(argv):
    for flag in ("-o", "--output"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


def run_corpus(folder):
    """{request id: result} for every request, run in `folder`."""
    from cotame import cli

    requests = json.loads((HERE / "requests.json").read_text(encoding="utf-8"))
    for path in (HERE / "inputs").iterdir():
        shutil.copy(path, Path(folder) / path.name)
    results = {}
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        for name, argv in requests.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
            result = {"exit": code, "stdout": kept(out.getvalue())}
            written = _output(argv)
            if written is not None and os.path.exists(written):
                result["file"] = kept(Path(written).read_text(encoding="utf-8"))
            results[name] = result
    finally:
        os.chdir(cwd)
    return results


def main():
    with tempfile.TemporaryDirectory() as folder:
        results = run_corpus(folder)
    text = json.dumps(results, indent=1, ensure_ascii=True) + "\n"
    (HERE / "expected.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(results)} results to {HERE / 'expected.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
