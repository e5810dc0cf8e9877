"""Traced entry point: run one cotame CLI request with layer wrappers installed.

    python3 bench/traced.py SPANS_FILE REQUEST_ID -- CLI_ARGS...

The wrappers are installed from here, around the public functions of the
modules ``cli``, ``classify``, ``witness``, ``endo`` and ``poly``; nothing in
the package changes.  A function bound into another module by
``from .x import name`` is replaced in every module that binds it, so no call
bypasses its wrapper.

Each wrapped call is a span with a name, start, end, parent span and the
request id.  Spans stay in memory and are written to SPANS_FILE at exit as
JSON lines: one record per request with per-name aggregates and counters,
then one line per span.  The polynomial kernels (``__mul__``, ``__add__``,
``scale``, ``substitute``), ``degree_condition`` and ``AffineMap.__init__``
run up to millions of times per request, so their spans are folded into the
per-name aggregates (calls, outermost inclusive time, self time) instead of
being kept one by one.  Self time is a span's duration minus the time its
child spans cover.
"""

import json
import sys
import time

# span name -> the (module, attribute path) pairs it wraps
WRAPPED = {
    "cli.emit": [("cotame.cli", "emit_report")],
    "cli.load": [("cotame.endo", "Endomorphism.from_json"),
                 ("cotame.endo", "GeneratorWord.from_json")],
    "classify.decide": [("cotame.classify", "decide")],
    "classify.span_scan": [("cotame.classify", "span_good_scan")],
    "classify.degree_condition": [("cotame.classify", "degree_condition")],
    "classify.delta_search": [("cotame.witness", "delta_search")],
    "witness.build": [("cotame.witness", "build_witness_with_info")],
    "witness.extract": [("cotame.witness", "vandermonde_extract"),
                        ("cotame.witness", "shift_extract")],
    "witness.normalize": [("cotame.witness", "normalize_to_seed")],
    "witness.compile": [("cotame.witness", "compile_last_word"),
                        ("cotame.witness", "compile_tame_word")],
    "endo.evaluate": [("cotame.endo", "GeneratorWord.evaluate")],
    "endo.compose": [("cotame.endo", "compose")],
    "endo.affine_init": [("cotame.endo", "AffineMap.__init__")],
    "poly.mul": [("cotame.poly", "Polynomial.__mul__")],
    "poly.substitute": [("cotame.poly", "Polynomial.substitute")],
    "poly.scale": [("cotame.poly", "Polynomial.scale")],
    "poly.add": [("cotame.poly", "Polynomial.__add__")],
    "poly.parse": [("cotame.poly", "parse_poly")],
}

FOLDED = {"classify.degree_condition", "endo.affine_init", "poly.mul",
          "poly.substitute", "poly.scale", "poly.add"}


class Tracer:
    """Span stack, kept spans, per-name aggregates and work counters."""

    def __init__(self, request_id):
        self.request_id = request_id
        self.stack = []          # frames: [span id, time covered by children]
        self.spans = []          # (id, name, start, end, parent id)
        self.depth = {name: 0 for name in WRAPPED}
        # name -> [calls, outermost inclusive seconds, self seconds]
        self.agg = {name: [0, 0.0, 0.0] for name in WRAPPED}
        self.counters = {
            "span_examined": 0, "degree_pass": 0, "word_letters": 0,
            "evaluate_letters": 0, "mul_out_terms": 0, "mul_ops": 0,
        }
        self.next_id = 1

    def call(self, name, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1][0] if stack else 0
        folded = name in FOLDED
        span_id = parent if folded else self.next_id
        if not folded:
            self.next_id += 1
        frame = [span_id, 0.0]
        outermost = self.depth[name] == 0
        self.depth[name] += 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.depth[name] -= 1
            duration = end - start
            agg = self.agg[name]
            agg[0] += 1
            agg[2] += duration - frame[1]
            if outermost:
                agg[1] += duration
            if stack:
                stack[-1][1] += duration
            if not folded:
                self.spans.append((span_id, name, start, end, parent))

    def dump(self, fh, extra):
        record = {"request": self.request_id, "agg": self.agg,
                  "counters": self.counters}
        record.update(extra)
        fh.write(json.dumps(record) + "\n")
        for span_id, name, start, end, parent in self.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "request": self.request_id}) + "\n")


def _count(tracer, name, args, result):
    """Work counters read off arguments and results at the layer boundary."""
    c = tracer.counters
    if name == "poly.mul":
        c["mul_ops"] += len(args[0].terms) * len(args[1].terms)
        c["mul_out_terms"] += len(result.terms)
    elif name == "poly.scale":
        c["mul_ops"] += len(args[0].terms)
    elif name == "classify.degree_condition":
        c["degree_pass"] += bool(result)
    elif name == "classify.span_scan":
        c["span_examined"] += result.examined
    elif name == "witness.build":
        c["word_letters"] += len(result[0])
    elif name == "endo.evaluate":
        c["evaluate_letters"] += len(args[0])


COUNTED = {"poly.mul", "poly.scale", "classify.degree_condition",
           "classify.span_scan", "witness.build", "endo.evaluate"}


def _wrapper(tracer, name, fn):
    if name in COUNTED:
        def wrapped(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            _count(tracer, name, args, result)
            return result
    else:
        def wrapped(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    wrapped.__name__ = getattr(fn, "__name__", name)
    wrapped.__doc__ = getattr(fn, "__doc__", None)
    return wrapped


def install(tracer):
    """Replace each target in its class, or in every module that binds it."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "cotame" or key.startswith("cotame.")]
    for name, targets in WRAPPED.items():
        for module_name, path in targets:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr,
                            classmethod(_wrapper(tracer, name, raw.__func__)))
                else:
                    setattr(cls, attr, _wrapper(tracer, name, raw))
                continue
            original = getattr(owner, path)
            wrapped = _wrapper(tracer, name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def main(argv):
    spans_file, request_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_FILE REQUEST_ID -- CLI_ARGS...")
    t0 = time.perf_counter()
    import cotame.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(request_id)
    install(tracer)
    t1 = time.perf_counter()
    code = 1
    try:
        code = cotame.cli.run(cli_args)
    finally:
        run_s = time.perf_counter() - t1
        sys.stdout.flush()
        t2 = time.perf_counter()
        with open(spans_file, "w", encoding="utf-8") as fh:
            tracer.dump(fh, {"import_s": import_s, "run_s": run_s,
                             "exit": code})
            fh.flush()
            fh.write(json.dumps({"write_s": time.perf_counter() - t2}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
