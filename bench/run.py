#!/usr/bin/env python3
"""End-to-end benchmark of the cotame CLI, with an optional traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each request is its own
``python -m cotame`` subprocess, sent by one client in a closed loop: the
next request starts when the previous one has ended.  Every output is
checked against the hand-written answers in ``workloads.py``.

``--trace 0`` times the workload and prints the end-to-end metrics.
``--trace 1`` runs one untraced pass as the base of ``trace.overhead_ratio``,
then the same requests through ``traced.py`` and prints the per-layer
metrics.  The last line of stdout is the result object; the line before it
carries informational fields that gate nothing.  Results and spans are also
saved under ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
RUN_LIMIT_S = 170          # a run ends within this, whatever --seconds says
P90_MIN_SAMPLES = 100      # at least 10 samples beyond the 90th percentile
# The reference request: interpreter start and standard-library imports,
# nothing of cotame.  It is timed between requests, at least every half
# second, and a request is measured against the samples around it.
REF_CODE = "import argparse, dataclasses, fractions, itertools, json"
REF_EVERY_S = 0.5
REF_MARGIN_S = 2.0


class Aborted(Exception):
    pass


def mismatches(actual, expected, path="report"):
    """Where ``actual`` departs from the expected subset, as messages."""
    if hasattr(expected, "matches"):
        return [] if expected.matches(actual) else [f"{path}: {actual!r}"]
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: {actual!r} is not an object"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}.{key} missing")
            else:
                out.extend(mismatches(actual[key], value, f"{path}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {actual!r}, expected {expected!r}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out.extend(mismatches(a, e, f"{path}[{i}]"))
        return out
    return [] if actual == expected else [f"{path}: {actual!r}, expected {expected!r}"]


def tamper(word_text, rng):
    """Change one translation entry of one affine letter.

    Every ring prints zero as ``0``, so ``0`` becomes ``1`` and anything else
    becomes ``0``: the letter is a different affine map, hence the word
    composes to a different map and must be rejected.  The letter is one of
    those before the first phi letter: there the change only adds a constant
    to every partial product, so the rejection costs what the genuine verify
    costs.  A change inside a phi bracket stops the brackets from cancelling,
    and on the theta word such a verify ran for minutes.
    """
    data = json.loads(word_text)
    leading = []
    for letter in data["letters"]:
        if letter["kind"] != "affine":
            break
        leading.append(letter)
    if not leading:
        raise ValueError("the word does not start with an affine letter")
    letter = rng.choice(leading)
    j = rng.randrange(len(letter["b"]))
    letter["b"][j] = "1" if letter["b"][j] == "0" else "0"
    return json.dumps(data)


def reference_during(samples, t0, t1):
    """The reference time while a request ran from ``t0`` to ``t1``: the
    median of the samples taken from REF_MARGIN_S before it to REF_MARGIN_S
    after it, or of the three nearest its middle if fewer were."""
    near = [v for t, v in samples if t0 - REF_MARGIN_S <= t <= t1 + REF_MARGIN_S]
    if len(near) < 3:
        mid = (t0 + t1) / 2
        near = [v for _, v in sorted(samples, key=lambda tv: abs(tv[0] - mid))[:3]]
    return statistics.median(near)


class Runner:
    """Sends requests, checks answers and keeps the samples of one run."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.work = work
        self.seed = seed
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                            if p))
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.first_output = {}   # request key -> stdout of its first run
        self.pass_words = []     # (letters, bytes) of each word the pass wrote
        self.passes = 0
        self.timings = []        # (pass, command, start, end) of timed requests
        self.samples = []        # (mid time, seconds) of the reference request
        self.traced = None       # list of trace records while tracing

    # -- subprocesses ------------------------------------------------------------
    def spawn(self, cmd):
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise Aborted("run time limit reached")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env,
                                  capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise Aborted(f"timed out: {' '.join(cmd)}") from None
        return proc, t0, time.perf_counter()

    def cli(self, argv):
        """Run one request; returns (exit code, stdout, stderr, start, end)."""
        if self.traced is not None:
            spans = self.work / f"spans-{len(self.traced)}.jsonl"
            cmd = [sys.executable, str(HERE / "traced.py"), str(spans),
                   str(len(self.traced)), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "cotame", *argv]
        proc, t0, t1 = self.spawn(cmd)
        if self.traced is not None:
            try:
                self.traced.append(read_trace(spans, t1 - t0))
                spans.unlink()
            except (OSError, ValueError, IndexError, KeyError) as exc:
                raise Aborted(f"no spans from {' '.join(argv)}: {exc}") from None
        return proc.returncode, proc.stdout, proc.stderr, t0, t1

    def reference(self, force=False):
        """Time the reference request, unless one ran less than
        REF_EVERY_S ago."""
        if (not force and self.samples
                and time.perf_counter() - self.samples[-1][0] < REF_EVERY_S):
            return
        proc, t0, t1 = self.spawn([sys.executable, "-c", REF_CODE])
        if proc.returncode != 0:
            raise Aborted("the reference request failed: " + proc.stderr)
        self.samples.append(((t0 + t1) / 2, t1 - t0))

    # -- checks ------------------------------------------------------------------
    def fail(self, label, problems):
        self.failed += 1
        for problem in problems:
            print(f"FAIL {self.workload} {label}: {problem}", flush=True)

    def check(self, label, argv, exit_code, expect):
        """Run and check one request; returns (report, stdout, start, end)."""
        code, out, err, t0, t1 = self.cli(argv)
        self.attempted += 1
        problems = []
        if code != exit_code:
            problems.append(f"exit {code}, expected {exit_code}")
        if "Traceback" in err:
            problems.append("traceback: " + err.strip().splitlines()[-1])
        try:
            report = json.loads(out)
        except ValueError:
            report = None
            problems.append("stdout is not one JSON report")
        if report is not None:
            problems.extend(mismatches(report, expect))
        previous = self.first_output.setdefault(label, out)
        if previous != out:
            problems.append("output differs from the first run of this request")
        if problems:
            self.fail(label, problems)
        return report, out, t0, t1

    def timed(self, command, label, argv, exit_code, expect):
        """A checked request of a pass; its timing is kept."""
        report, out, t0, t1 = self.check(label, argv, exit_code, expect)
        self.timings.append((self.passes, command, t0, t1))
        self.reference()
        return report, out

    # -- requests ----------------------------------------------------------------
    def warmup(self, argv):
        self.check("warmup", argv, 0, {"status": "ok"})

    def setup(self, steps):
        t0 = time.perf_counter()
        for step in steps:
            report, _, _, _ = self.check("setup:" + " ".join(step.argv),
                                         step.argv, 0, step.expect)
            if step.map_file and report is not None:
                images = [report["payload"]["canonical"], *step.rest]
                text = json.dumps({"ring": step.ring, "n": step.n,
                                   "images": images})
                (self.work / step.map_file).write_text(text + "\n")
        return time.perf_counter() - t0

    def request(self, req):
        report, _ = self.timed(req.command, req.key, req.argv, req.exit,
                               req.expect)
        if req.word is None or report is None or req.exit != 0:
            return
        path = self.work / req.word
        text = path.read_text() if path.is_file() else ""
        try:
            word = json.loads(text)
            letters = len(word["letters"])
        except (ValueError, KeyError, TypeError):
            self.fail(req.key, [f"{req.word} is not a word file"])
            return
        self.pass_words.append((letters, len(text.encode())))
        previous = self.first_output.setdefault("word:" + req.key, text)
        problems = []
        if previous != text:
            problems.append("word file differs from the first run")
        # words live in n+1 variables (README); the report counts the letters
        if report["payload"].get("word_length") != letters or letters == 0:
            problems.append(f"word_length {report['payload'].get('word_length')}"
                            f" but {letters} letters")
        if word.get("ambient") != 4:
            problems.append(f"ambient {word.get('ambient')}, expected n+1 = 4")
        if problems:
            self.fail(req.key, problems)
        if req.verify:
            self.verify(req, letters, text)

    def verify(self, req, letters, text):
        """The word matches its target; a tampered copy is rejected."""
        self.timed("verify", "verify:" + req.key, req.verify, 0,
                   {"status": "ok", "payload": {"match": True,
                                                "word_length": letters}})
        tampered = self.work / ("tampered-" + req.word)
        # the same entry in every pass, so the rejection prints the same
        try:
            tampered.write_text(
                tamper(text, random.Random(f"{self.seed}:{req.key}")))
        except ValueError as exc:
            self.fail(req.key, [str(exc)])
            return
        argv = list(req.verify)
        argv[argv.index("--word") + 1] = tampered.name
        self.timed("verify", "verify-tampered:" + req.key, argv, 1,
                   {"status": "error", "payload": {"match": False}})

    def run_pass(self, requests):
        self.pass_words = []
        self.reference(force=True)
        for req in requests:
            self.request(req)
        self.reference(force=True)
        self.passes += 1

    # -- results -----------------------------------------------------------------
    def latencies(self):
        """(pass, command, seconds, reference units) of every timed request.

        Reference units are seconds over the time of the reference request
        around the request; a change to cotame moves the numerator only.
        """
        return [(p, command, t1 - t0,
                 (t1 - t0) / reference_during(self.samples, t0, t1))
                for p, command, t0, t1 in self.timings]

    def outputs_sha256(self):
        """Digest of the stdout of every decide and verify request."""
        digest = hashlib.sha256()
        for key in sorted(self.first_output):
            if key.startswith(("decide:", "verify")):
                digest.update(f"{key}\n{self.first_output[key]}".encode())
        return digest.hexdigest()


def read_trace(path, wall):
    """The request record of one traced child, with its spans."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    record, spans, tail = lines[0], lines[1:-1], lines[-1]
    record["wall_s"] = wall
    record["write_s"] = tail["write_s"]
    record["spans"] = spans
    return record


def src_nonblank_lines():
    return sum(
        sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted(SRC.rglob("*.py"))
    )


def median(values):
    return statistics.median(values)


def metric(value, unit):
    return {"value": value, "unit": unit}


def pass_walls(rows, passes, column):
    """Per pass, the summed latency of its requests."""
    return [sum(r[column] for r in rows if r[0] == p) for p in passes]


def end_to_end(runner, setup_times):
    """Set-up in seconds, memory in MB, latencies in reference units; and
    for the info line the same latencies in seconds."""
    rows = runner.latencies()
    passes = range(runner.passes)

    def cost(command=None):
        return [r[3] for r in rows if command in (None, r[1])]

    metrics = {
        "setup_s": metric(median(setup_times), "s"),
        "wall_ref": metric(median(pass_walls(rows, passes, 3)), "ref"),
        "request_p50_ref": metric(median(cost()), "ref"),
        "decide_p50_ref": metric(median(cost("decide")), "ref"),
        "witness_p50_ref": metric(median(cost("witness")), "ref"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    seconds = [r[2] for r in rows]
    info = {"wall_s": median(pass_walls(rows, passes, 2)),
            "request_p50_s": median(seconds),
            "ref_s": median(s for _, s in runner.samples),
            "ref_samples": len(runner.samples)}
    for command in ("decide", "witness", "verify"):
        if cost(command):
            info[f"{command}_p50_s"] = median(
                r[2] for r in rows if r[1] == command)
    if cost("verify"):
        info["verify_p50_ref"] = median(cost("verify"))
    if len(rows) >= P90_MIN_SAMPLES:
        info["request_p90_s"] = statistics.quantiles(seconds, n=10)[-1]
        info["request_p90_ref"] = statistics.quantiles(cost(), n=10)[-1]
    return metrics, info


def per_layer(records, passes, overhead):
    """Per-layer metrics per pass, from the traced children's records."""
    agg, counters = {}, {}
    outside = imports = 0.0
    for rec in records:
        for name, (calls, outer, self_s) in rec["agg"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += outer
            a[2] += self_s
        for name, value in rec["counters"].items():
            counters[name] = counters.get(name, 0) + value
        imports += rec["import_s"]
        outside += rec["wall_s"] - rec["import_s"] - rec["run_s"] - rec["write_s"]

    def calls(name):
        return agg[name][0] // passes

    def outer(name):
        return agg[name][1] / passes

    def self_time(name):
        return agg[name][2] / passes

    def count(name):
        return counters[name] // passes

    kernel_s = outer("poly.mul") + outer("poly.scale")
    degree_calls = calls("classify.degree_condition")
    values = {
        "cli.import_s": (imports / passes, "s"),
        "cli.load_s": (outer("cli.load"), "s"),
        "cli.emit_s": (outer("cli.emit"), "s"),
        "cli.outside_s": (outside / passes, "s"),
        "classify.decide_calls": (calls("classify.decide"), "count"),
        "classify.decide_s": (outer("classify.decide"), "s"),
        "classify.span_scan_calls": (calls("classify.span_scan"), "count"),
        "classify.span_scan_s": (outer("classify.span_scan"), "s"),
        "classify.span_examined": (count("span_examined"), "count"),
        "classify.degree_calls": (degree_calls, "count"),
        "classify.degree_pass_ratio": (
            count("degree_pass") / degree_calls if degree_calls else 0.0,
            "ratio"),
        "classify.delta_search_s": (outer("classify.delta_search"), "s"),
        "witness.build_s": (self_time("witness.build"), "s"),
        "witness.extract_s": (outer("witness.extract"), "s"),
        "witness.normalize_s": (outer("witness.normalize"), "s"),
        "witness.compile_s": (outer("witness.compile"), "s"),
        "witness.word_letters": (count("word_letters"), "count"),
        "endo.evaluate_s": (self_time("endo.evaluate"), "s"),
        "endo.evaluate_letters": (count("evaluate_letters"), "count"),
        "endo.compose_calls": (calls("endo.compose"), "count"),
        "endo.compose_s": (outer("endo.compose"), "s"),
        "endo.affine_maps": (calls("endo.affine_init"), "count"),
        "endo.affine_init_s": (outer("endo.affine_init"), "s"),
        "poly.mul_calls": (calls("poly.mul"), "count"),
        "poly.mul_s": (outer("poly.mul"), "s"),
        "poly.mul_out_terms": (count("mul_out_terms"), "count"),
        "poly.substitute_calls": (calls("poly.substitute"), "count"),
        "poly.substitute_s": (outer("poly.substitute"), "s"),
        "poly.scale_add_calls": (calls("poly.scale") + calls("poly.add"),
                                 "count"),
        "poly.scale_add_s": (outer("poly.scale") + outer("poly.add"), "s"),
        "poly.parse_s": (outer("poly.parse"), "s"),
        "rings.mul_ops": (count("mul_ops"), "count"),
        "rings.mul_ops_per_s": (
            count("mul_ops") / kernel_s if kernel_s else 0.0, "1/s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "src.nonblank_lines": (src_nonblank_lines(), "count"),
    }
    return {name: metric(v, unit) for name, (v, unit) in values.items()}


def pass_counts(records):
    """The exact work counts of one pass; they must repeat in every pass."""
    totals = {}
    for rec in records:
        for name, value in rec["counters"].items():
            totals[name] = totals.get(name, 0) + value
        for name, (calls, _, _) in rec["agg"].items():
            totals[name + ".calls"] = totals.get(name + ".calls", 0) + calls
    return totals


def run(args, work):
    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload.name, args.seed, work)
    info = {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}
    try:
        runner.warmup(workload.warmup)
        setup_times = [runner.setup(workload.setup)
                       for _ in range(SETUP_REPEATS)]
        started = time.perf_counter()
        runner.run_pass(workload.requests)
        info["word_letters"] = sum(letters for letters, _ in runner.pass_words)
        info["word_bytes"] = sum(size for _, size in runner.pass_words)
        if args.trace:
            runner.traced = []
            records = []
            started = time.perf_counter()
            while len(records) < 1 or time.perf_counter() - started < args.seconds:
                first = len(runner.traced)
                runner.run_pass(workload.requests)
                records.append(runner.traced[first:])
            counts = [pass_counts(r) for r in records]
            if any(c != counts[0] for c in counts):
                runner.fail("trace", ["work counts differ between passes"])
            # both walls in reference units: they were taken a while apart
            walls = pass_walls(runner.latencies(), range(runner.passes), 3)
            overhead = median(walls[1:]) / walls[0]
            metrics = per_layer(runner.traced, len(records), overhead)
            save_spans(args, runner.traced)
        else:
            while time.perf_counter() - started < args.seconds:
                runner.run_pass(workload.requests)
            metrics, seconds = end_to_end(runner, setup_times)
            info.update(seconds)
    except Aborted as exc:
        runner.fail("run", [str(exc)])
        return runner, info, None
    info.update({
        "setup_runs": setup_times,
        "passes": runner.passes,
        "requests": runner.attempted,
        "fail_ratio": runner.failed / runner.attempted,
        "outputs_sha256": runner.outputs_sha256(),
        "src_nonblank_lines": src_nonblank_lines(),
    })
    return runner, info, metrics


def save_spans(args, records):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            for span in rec["spans"]:
                fh.write(json.dumps(span) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cotame" / "cli.py").is_file():
        print(f"no cotame sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner, info, metrics = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if metrics is None:
        return 1
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"info": info, **result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
