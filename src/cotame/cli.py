"""Batch command-line front end with stable JSON output.

Exit codes: 0 success, 1 error, 2 unknown-verdict (a decision or witness
search that ended without an answer).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import sys

from .errors import CotameError, NoRouteFound, PolynomialSyntaxError
from .poly import bounded_variables, parse_poly
from .rings import is_prime, ring_from_spec


def _lazy(name):
    """Submodule `name` of the package, executed on first attribute access.

    The module is registered in sys.modules at once, so imports and
    lookups by name find it; only a command that uses it pays to compile
    and run it.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


maps = _lazy("maps")
endo = _lazy("endo")
classify = _lazy("classify")
witness = _lazy("witness")

OK, ERROR, UNKNOWN = 0, 1, 2
STATUS = {OK: "ok", ERROR: "error", UNKNOWN: "unknown-verdict"}


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_endo(path, ring_spec=None, n=None):
    data = _load_json(path)
    ring = ring_from_spec(ring_spec) if ring_spec else None
    if (
        ring is not None
        and isinstance(data, dict)
        and "ring" in data
        and ring_from_spec(data["ring"]) != ring
    ):
        raise ValueError(
            f"--ring {ring_spec} conflicts with ring {data['ring']!r} in {path}"
        )
    phi = maps.Endomorphism.from_json(data, ring=ring)
    if n is not None and phi.nvars != n:
        raise ValueError(f"--n {n} conflicts with {phi.nvars} images in {path}")
    return phi


def _resolve_inverse(phi, inverse_path):
    if inverse_path:
        inverse = _load_endo(inverse_path)
        if (inverse.ring, inverse.nvars) != (phi.ring, phi.nvars):
            raise ValueError(f"--phi-inverse has {inverse.nvars} variables over "
                             f"{inverse.ring!r}, but --phi has {phi.nvars} over "
                             f"{phi.ring!r}")
        message = "supplied inverse fails the composition check"
        return endo.check_inverse(phi, inverse, message)
    return endo.try_invert(phi)


def _k_size(args):
    return "auto" if args.ksize is None else args.ksize


def _dumps(value, artifact, text, indent=""):
    """json.dumps(value, indent=2) at the nesting `indent`, where each
    occurrence of the object `artifact` is already encoded as `text`.
    Keys are strings, as in every report."""
    if value is artifact:
        return text.replace("\n", "\n" + indent)
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{json.dumps(key)}: {_dumps(v, artifact, text, inner)}"
                 for key, v in value.items()]
        opening, closing = "{", "}"
    elif isinstance(value, list) and value:
        items = [_dumps(v, artifact, text, inner) for v in value]
        opening, closing = "[", "]"
    else:
        return json.dumps(value, indent=2).replace("\n", "\n" + indent)
    return (f"{opening}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{closing}")


def emit_report(result, fmt="json", artifact=None, text=None):
    """Render a command result; field order is fixed for byte-stable output.

    `text`, when given, is json.dumps(artifact, indent=2) for the object
    `artifact` inside `result`, and is reused instead of encoded again.
    """
    if fmt == "json":
        if text is None:
            return json.dumps(result, indent=2) + "\n"
        return _dumps(result, artifact, text) + "\n"
    lines = [f"status: {result['status']}", f"command: {result['command']}"]
    payload = result.get("payload") or {}
    for key, value in payload.items():
        lines.append(f"{key}: {value}")
    for note in result.get("diagnostics", ()):
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _finish(args, command, payload, diagnostics=None, code=OK, artifact=None):
    """Print the report; for artifact commands -o saves the artifact JSON."""
    result = {
        "status": STATUS[code],
        "command": command,
        "payload": payload,
        "diagnostics": list(diagnostics or ()),
    }
    text = None
    if getattr(args, "output", None):
        if artifact is not None:
            text = json.dumps(artifact, indent=2)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(emit_report(result, args.format) if text is None
                     else text + "\n")
        result = dict(result)
        result["written"] = args.output
    sys.stdout.write(emit_report(result, args.format, artifact, text))
    return code


def cmd_parse(args):
    if args.n < 0:
        raise ValueError(f"--n must be a non-negative integer, not {args.n}")
    ring = ring_from_spec(args.ring)
    f = parse_poly(args.poly, ring, bounded_variables(args.n, "--n"))
    payload = {
        "canonical": str(f),
        "total_degree": None if f.is_zero() else f.total_deg(),
        "degrees": [None if f.is_zero() else f.deg_xi(i) for i in range(1, args.n + 1)],
    }
    if ring.characteristic == 0 or ring.is_field:
        payload["separable_degrees"] = [
            None if f.is_zero() else f.sep_deg_xi(i) for i in range(1, args.n + 1)
        ]
    return _finish(args, "parse", payload)


def cmd_compose(args):
    phi = _load_endo(args.phi, args.ring)
    psi = _load_endo(args.psi, args.ring)
    value = maps.compose(phi, psi).to_json()
    return _finish(args, "compose", value, artifact=value)


def cmd_invert(args):
    phi = _load_endo(args.phi, args.ring)
    inverse = endo.invert_structured(phi).to_json()
    return _finish(args, "invert", inverse, artifact=inverse)


def _good_entry(phi, j, exps, coeff, gm_type):
    return {"image": j, **classify.good_entry(phi.ring, exps, coeff, gm_type.tag)}


def _verdict_code(verdict):
    return UNKNOWN if verdict.answer == "Unknown" else OK


def cmd_classify(args):
    phi = _load_endo(args.phi, args.ring, getattr(args, "n", None))
    verdict = classify.decide(phi, k_size=_k_size(args), budget=args.budget)
    evidence = verdict.evidence
    if "ideal" not in evidence:
        # good monomials exist in characteristic 0 or prime only
        payload = dict.fromkeys(
            ("good_monomials", "I_phi", "I_phi_full", "J_phi_certified", "ngg")
        )
        diagnostics = verdict.diagnostics
    else:
        ideal, ksz = evidence["ideal"], evidence["k_size"]
        # the verdict's scan when decide got that far, else a scan of its own
        scan = evidence.get("scan")
        if scan is None and ksz != "unavailable":
            scan = classify.span_good_scan(phi, ksz, budget=args.budget)
        if scan is not None:
            diagnostics = scan.diagnostics
        else:
            diagnostics = ["no base field available for the span scan"]
        payload = {
            "good_monomials": [_good_entry(phi, *good) for good in evidence["goods"]],
            "I_phi": ideal.to_json(),
            "I_phi_full": ideal.is_full(),
            "J_phi_certified": scan is not None and scan.certified_full(),
            "ngg": ideal.is_zero(),
        }
    payload["verdict"] = verdict.to_json()
    return _finish(args, "classify", payload, diagnostics=diagnostics,
                   code=_verdict_code(verdict))


def cmd_decide(args):
    phi = _load_endo(args.phi, args.ring, getattr(args, "n", None))
    verdict = classify.decide(phi, k_size=_k_size(args), budget=args.budget)
    return _finish(args, "decide", verdict.to_json(),
                   diagnostics=verdict.diagnostics, code=_verdict_code(verdict))


def cmd_witness(args):
    phi = _load_endo(args.phi, args.ring, getattr(args, "n", None))
    ksize = _k_size(args)
    classify.resolve_k_size(phi.ring, ksize)  # an invalid --ksize fails first
    target = parse_poly(args.target, phi.ring, phi.nvars)
    # then a supplied inverse; the builder loads only for a route
    inverse = _resolve_inverse(phi, args.phi_inverse) if args.phi_inverse else None
    try:
        verdict = classify.witness_verdict(phi, target, ksize, args.budget,
                                           args.max_degree)
    except NoRouteFound as exc:
        args.output = None  # no word: the -o path is left untouched
        return _finish(args, "witness", {"error": str(exc)}, code=UNKNOWN)
    if inverse is None:
        inverse = endo.try_invert(phi)
    word, seed_kind = witness.build_witness_with_info(verdict, target)
    verified = None
    if inverse is not None:
        verified = endo.verify_witness(word, phi, target, phi_inverse=inverse)
        if not verified:
            raise CotameError("compiled word failed verification")
    payload = {
        "route": verdict.route,
        "seed_kind": seed_kind,
        "word_length": len(word),
        "verified": verified,
        "word": word.to_json(),
    }
    diagnostics = []
    if inverse is None:
        diagnostics.append(
            "no inverse available: emitted without the final evaluation check"
        )
    return _finish(args, "witness", payload, diagnostics=diagnostics,
                   artifact=payload["word"])


def cmd_verify(args):
    phi = _load_endo(args.phi, args.ring)
    word = endo.GeneratorWord.from_json(phi.ring, _load_json(args.word))
    target = maps.elementary(parse_poly(args.target, phi.ring, phi.nvars))
    inverse = _resolve_inverse(phi, args.phi_inverse)
    mismatch = endo.first_mismatch(word, phi, target, inverse)
    if mismatch is None:
        return _finish(args, "verify", {"match": True, "word_length": len(word)})
    return _finish(args, "verify",
                   {"match": False, "first_mismatch_variable": mismatch},
                   code=ERROR)


def cmd_theta(args):
    ring = ring_from_spec(args.ring)
    theta, theta_prime = endo.theta_map(args.N, ring)
    payload = {
        "theta": theta.to_json(),
        "theta_prime": theta_prime.to_json(),
    }
    if args.analyze:
        verdict = classify.decide(theta, budget=args.budget)
        img = theta_prime.images[1]
        analysis = {
            "degrees_theta_prime_x2": [img.deg_xi(i) for i in (1, 2, 3)],
            "term_counts": [len(i.terms) for i in theta.images],
        }
        if is_prime(ring.characteristic):
            analysis["ngg"] = verdict.evidence["ideal"].is_zero()
        if args.N == 1:
            coeff = img.terms.get((2, 0, 4))
            analysis["x1^2*x3^4_coefficient"] = (
                ring.format_value(coeff) if coeff is not None else "0"
            )
        analysis["verdict"] = verdict.to_json()
        payload["analysis"] = analysis
    return _finish(args, "theta", payload, artifact=payload["theta"])


def _split_generators(text):
    """The --ideal entries: text split at its commas outside brackets, so a
    GF coefficient vector such as [1,0] stays one entry."""
    depths = itertools.accumulate((c == "[") - (c == "]") for c in text)
    cuts = [k for k, (c, d) in enumerate(zip(text, depths)) if c == "," and d < 1]
    return [text[a + 1:b] for a, b in zip([-1, *cuts], [*cuts, len(text)])]


def cmd_reduce(args):
    phi = _load_endo(args.phi, args.ring)
    gens = [phi.ring.parse_literal(t) for t in _split_generators(args.ideal)]
    ideal = maps.IdealHandle(phi.ring, gens)
    reduced = maps.reduce_mod(phi, ideal).to_json()
    return _finish(args, "reduce", reduced, artifact=reduced)


def cmd_ngg_check(args):
    phi = _load_endo(args.phi, args.ring)
    first = next(classify.image_good_monomials(phi), None)
    payload = {"ngg": first is None}
    if first is not None:
        payload["witness"] = _good_entry(phi, *first)
    return _finish(args, "ngg-check", payload)


COMMANDS = ("parse", "compose", "invert", "classify", "decide", "witness",
            "verify", "theta", "reduce", "ngg-check")


def build_parser(command=None):
    """The CLI parser; naming one of COMMANDS adds only that subparser."""
    parser = argparse.ArgumentParser(
        prog="cotame",
        description="Exact decision and certificate tools for stably co-tame"
        " polynomial automorphisms.",
    )
    only = command if command in COMMANDS else None
    # with one subparser, usage errors still list every command
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{" + ",".join(COMMANDS) + "}",
    )

    def add(name, help, func, ring_required=False):
        """The subparser for `name` with the common options, or None when
        another command was named."""
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=help)
        p.add_argument("--ring", required=ring_required,
                       help="ring spec: Q, Z, Zn:<n>, Fp:<p>, GF:<p>^<e>[:mod]")
        p.add_argument("--seed", type=int, default=0,
                       help="accepted for compatibility; no result depends on it")
        p.add_argument("--budget", type=int, default=200000)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("-o", "--output", help="write the report to this file")
        p.set_defaults(func=func)
        return p

    if p := add("parse", "parse a polynomial to canonical form", cmd_parse,
                ring_required=True):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--poly", required=True)

    if p := add("compose", "compose two maps given as JSON files", cmd_compose):
        p.add_argument("--phi", required=True)
        p.add_argument("--psi", required=True)

    if p := add("invert", "invert a structured map exactly", cmd_invert):
        p.add_argument("--phi", required=True)

    if p := add("classify", "good monomials, ideals and the verdict",
                cmd_classify):
        p.add_argument("--phi", required=True)
        p.add_argument("--n", type=int)
        p.add_argument("--ksize", type=int)

    if p := add("decide", "decide stable co-tameness where possible",
                cmd_decide):
        p.add_argument("--phi", required=True)
        p.add_argument("--n", type=int)
        p.add_argument("--ksize", type=int)

    if p := add("witness", "compile a generator word for a target",
                cmd_witness):
        p.add_argument("--phi", required=True)
        p.add_argument("--n", type=int)
        p.add_argument("--phi-inverse", dest="phi_inverse")
        p.add_argument("--target", required=True)
        p.add_argument("--ksize", type=int)
        p.add_argument("--max-degree", type=int, default=4)

    if p := add("verify", "re-check a word against a target exactly",
                cmd_verify):
        p.add_argument("--phi", required=True)
        p.add_argument("--phi-inverse", dest="phi_inverse")
        p.add_argument("--target", required=True)
        p.add_argument("--word", required=True)

    if p := add("theta", "the swap-conjugate family, exactly", cmd_theta,
                ring_required=True):
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--analyze", action="store_true")

    if p := add("reduce", "pass to a quotient of the coefficient ring",
                cmd_reduce):
        p.add_argument("--phi", required=True)
        p.add_argument("--ideal", required=True, help="comma-separated generators")

    if p := add("ngg-check", "does the map avoid good monomials?",
                cmd_ngg_check):
        p.add_argument("--phi", required=True)

    return parser


def run(argv):
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except PolynomialSyntaxError as exc:
        payload = {"error": str(exc), "position": exc.position}
    except (CotameError, ValueError, OSError, KeyError) as exc:
        payload = {"error": str(exc)}
    except Exception as exc:
        # a defect, or a lazily loaded module that fails: still one report
        payload = {"error": f"internal error: {type(exc).__name__}: {exc}"}
    result = {"status": STATUS[ERROR], "command": args.command,
              "payload": payload, "diagnostics": []}
    sys.stdout.write(emit_report(result, args.format))
    return ERROR


def main():
    """The console script: run the command, then exit with its code.

    The process ends here, so the heap is frozen first: the collections at
    interpreter shutdown then have nothing to scan, which takes ~10 ms off
    every request.  atexit handlers and the flush of stdio still run.
    """
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
