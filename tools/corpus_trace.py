"""List the functions of src/cotame that no golden request executes.

    PYTHONPATH=src python tools/corpus_trace.py

Runs every request of tests/golden/requests.json in this process, in a
temporary directory, as tests/golden/regen.py does, with a ``sys.settrace``
hook that records each code object called.  Every function and method that
``def`` defines in src/cotame is then either called by some request or
printed, one per line as ``module.py:line qualified.name``.  Code that only
tests or other tools call shows up here: the report is a starting point for
removing code no answer reads, and it exits 0 whatever it lists.  It uses the
standard library only.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def defined_functions(path):
    """{(first line of its code object, name): qualified name} for each def
    in path; a decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first, child.name] = name
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def traced_calls(run):
    """run()'s value, and the (file, first line, name) of every code object
    called while it runs; the name tells a def from a lambda on its line."""
    called = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))
        return None  # no line events: calls alone

    sys.settrace(tracer)
    try:
        value = run()
    finally:
        sys.settrace(None)
    return value, {(str(Path(file).resolve()), line, name) for file, line, name in called}


def main():
    spec = importlib.util.spec_from_file_location(
        "golden_regen", ROOT / "tests" / "golden" / "regen.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    with tempfile.TemporaryDirectory() as folder:
        results, called = traced_calls(lambda: regen.run_corpus(folder))
    import cotame

    package = Path(cotame.__file__).resolve().parent
    unreached, total = [], 0
    for path in sorted(package.glob("*.py")):
        defined = defined_functions(path)
        total += len(defined)
        unreached += [f"{path.name}:{line} {qualname}"
                      for (line, name), qualname in sorted(defined.items())
                      if (str(path), line, name) not in called]
    print(f"{len(unreached)} of {total} functions in {package.name} are executed"
          f" by none of the {len(results)} golden requests:")
    print("\n".join(unreached))
    return 0


if __name__ == "__main__":
    sys.exit(main())
