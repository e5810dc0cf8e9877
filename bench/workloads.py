"""Workloads of the CLI benchmark and the hand-written answers they must give.

Every expected answer below comes from the README, the paper summary or the
acceptance criteria of the project, never from running the code under test.
A comment next to each one says where it comes from.

A workload has
  * set-up steps: CLI calls that build its input files (timed as ``setup_s``);
  * a pass: a fixed multiset of requests, shuffled by the seed, that the
    timed loop repeats.

A request names the command, its argv (file names are relative to the run's
work directory), its expected exit code and the fields its JSON report must
carry.  A ``witness -o`` request may be followed by a ``verify`` of the word
it wrote and a ``verify`` of a tampered copy of that word, the negative
control.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

OK, UNKNOWN = 0, 2


@dataclass
class Terms:
    """An image polynomial given as its set of terms, since term order is the
    printer's choice and not part of the answer."""

    terms: frozenset

    def matches(self, text):
        return isinstance(text, str) and frozenset(text.split(" + ")) == self.terms


def terms(*ts):
    return Terms(frozenset(ts))


@dataclass
class Contains:
    """A list of diagnostic lines, one of which contains every given piece."""

    pieces: tuple

    def matches(self, lines):
        return isinstance(lines, list) and any(
            all(p in line for p in self.pieces) for line in lines
        )


@dataclass
class Request:
    key: str                 # stable label; equal keys must print equal output
    command: str
    argv: list
    exit: int
    expect: dict             # subset of the JSON report that must match
    word: str | None = None  # witness -o: the word file the request writes
    verify: list | None = None  # argv verifying that word, then a tampered copy


@dataclass
class Workload:
    name: str
    warmup: list             # one untimed request that fills __pycache__
    setup: list              # SetupStep list
    requests: list           # the pass, in order


@dataclass
class SetupStep:
    """A CLI call that builds an input file.

    ``parse`` canonicalizes the non-linear image of a map, which is then
    written as ``{"ring", "n", "images"}``; ``theta`` writes the theta map.
    """

    argv: list
    expect: dict
    map_file: str | None = None   # parse: the map file to write
    ring: str | None = None
    n: int | None = None
    rest: list = field(default_factory=list)  # the images after the first


# ---------------------------------------------------------------------------
# maps: ring spec, variable count, image of x1 (the other images are x2..xn)
# ---------------------------------------------------------------------------

MAPS = {
    # README example: adds x2*x3 to x1 over F_5.
    "f5": ("Fp:5", 3, "x1 + x2*x3"),
    # README scope: the quintic is certified over GF(9) ...
    "gf9": ("GF:3^2", 3, "x1 + x2^5"),
    # ... and honestly Unknown over F_3.
    "f3q": ("Fp:3", 3, "x1 + x2^5"),
    # Acceptance criterion 9: the degree condition fails, the
    # difference-operator (delta) route certifies.
    "f3d": ("Fp:3", 3, "x1 + x2^2*x3^2"),
    # x2^3 over F_3: every exponent is 0 or 1 mod 3 and no two are 1, so no
    # monomial is good and the map lies in the obstruction subgroup.
    "f3c": ("Fp:3", 3, "x1 + x2^3"),
    # Acceptance criterion 3: over Q the square is certified.
    "q": ("Q", 3, "x1 + x2^2"),
    # Z/6: composite characteristic; modulo 3 the map becomes the identity.
    "z6": ("Zn:6", 2, "x1 + 3*x2^2"),
    # The span workload: x1 += x2^(q-1)*x3 + x2*x3^(q-1) over GF(2^5) and
    # GF(2^6).  Its separable degree q-1 exceeds q-2 in x2 and x3, so no
    # span element passes the degree condition.
    "gf32": ("GF:2^5", 3, "x1 + x2^31*x3 + x2*x3^31"),
    "gf64": ("GF:2^6", 3, "x1 + x2^63*x3 + x2*x3^63"),
}


def _map_setup(name):
    ring, n, image = MAPS[name]
    degrees = {
        "f5": (2, [1, 1, 1]), "gf9": (5, [1, 5, 0]), "f3q": (5, [1, 5, 0]),
        "f3d": (4, [1, 2, 2]), "f3c": (3, [1, 3, 0]), "q": (2, [1, 2, 0]),
        "z6": (2, [1, 2]), "gf32": (32, [1, 31, 31]),
        "gf64": (64, [1, 63, 63]),
    }[name]
    return SetupStep(
        argv=["parse", "--ring", ring, "--n", str(n), "--poly", image],
        expect={"status": "ok",
                "payload": {"total_degree": degrees[0], "degrees": degrees[1]}},
        map_file=f"{name}.json",
        ring=ring,
        n=n,
        rest=[f"x{i}" for i in range(2, n + 1)],
    )


def _verdict(answer, route=None, reason=None):
    return {"answer": answer, "route": route, "reason": reason}


def _decide(name, answer, route=None, reason=None, seed=0, extra=None,
            argv=()):
    code = UNKNOWN if answer == "Unknown" else OK
    status = "unknown-verdict" if code == UNKNOWN else "ok"
    payload = _verdict(answer, route, reason)
    if extra:
        payload.update(extra)
    return Request(
        key=f"decide:{name}",
        command="decide",
        argv=["decide", "--phi", f"{name}.json", "--seed", str(seed), *argv],
        exit=code,
        expect={"status": status, "payload": payload},
    )


def _witness(name, target, word, seed, inverse=None, verified=True,
             then_verify=True):
    """witness -o; with then_verify, a verify of the word and of a tampered copy."""
    argv = ["witness", "--phi", f"{name}.json", "--target", target,
            "--seed", str(seed), "-o", word]
    verify = ["verify", "--phi", f"{name}.json", "--target", target,
              "--word", word, "--seed", str(seed)]
    if inverse:
        verify += ["--phi-inverse", inverse]
    return Request(
        key=f"witness:{name}:{target}",
        command="witness",
        argv=argv,
        exit=OK,
        expect={"status": "ok", "payload": {"verified": verified}},
        word=word,
        verify=verify if then_verify else None,
    )


# ---------------------------------------------------------------------------
# theta-f7
# ---------------------------------------------------------------------------

def theta_f7(seed):
    """theta N=1 over F_7: decide, witness without an inverse, verify.

    decide: the first image of theta is 6*x1^2*x3^4 + 2*x1^3*x3^2 + 6*x1^4
    + x3^2 + x2 (README: the witness monomial x1^2*x3^4).  It has several
    non-linear terms, so the direct route does not apply; all its separable
    degrees are at most 4 <= 7-2, and x3^2 (exponent 2 mod 7) is a good
    monomial with coefficient 1, so the span ideal is the unit ideal:
    StablyCotame by J-full (acceptance criterion 6).

    verify: theta is an involution, so the theta file is its own inverse.
    """
    rng = random.Random(seed)
    cli_seed = rng.randrange(1000)
    theta = SetupStep(
        argv=["theta", "--ring", "Fp:7", "--N", "1", "-o", "theta.json"],
        expect={"status": "ok"},
    )
    decide = Request(
        key="decide:theta",
        command="decide",
        argv=["decide", "--phi", "theta.json", "--seed", str(cli_seed)],
        exit=OK,
        expect={"status": "ok",
                "payload": _verdict("StablyCotame", route="J-full")},
    )

    # No inverse is derived for theta, so witness only compiles the word
    # (README: a bare tuple needs --phi-inverse) and reports verified: null.
    def witness(then_verify):
        return _witness("theta", "x2*x3", "word-theta.json", cli_seed,
                        inverse="theta.json", verified=None,
                        then_verify=then_verify)

    # several cheap requests per pass keep their medians steady; with more
    # witness than decide requests the median of all falls among witnesses
    requests = [decide] * 6 + [witness(False)] * 9
    rng.shuffle(requests)
    requests.append(witness(True))
    return Workload(
        name="theta-f7",
        warmup=["parse", "--ring", "Fp:7", "--n", "3", "--poly", "x2*x3"],
        setup=[theta],
        requests=requests,
    )


# ---------------------------------------------------------------------------
# span-gf2e
# ---------------------------------------------------------------------------

def span_gf2e(seed):
    """decide on the GF(2^e) span maps, and witness repeating the search.

    Both maps end Unknown (exit 2) after the delta search: the degree
    condition rules out every span element, and 2^3 = 8 profiles are within
    the difference-operator limit.  Over GF(2^5) the scan is exhaustive
    (32^3 = 32,768 vectors, within the default budget of 200,000).  Over
    GF(2^6) it stops at the budget, below 64^3 = 262,144 vectors; the budget
    is set to 60,000 so that the request takes seconds rather than a quarter
    of a minute, short enough for the reference samples around it to follow
    the machine's speed.  witness on the GF(2^5) map finds no route either
    and reports unknown-verdict.
    """
    rng = random.Random(seed)
    cli_seed = rng.randrange(1000)
    exhausted = {"diagnostics": Contains(("exhaust",))}
    budget = {"diagnostics": Contains(("60000", "262144"))}
    d32 = _decide("gf32", "Unknown", seed=cli_seed, extra=exhausted)
    d64 = _decide("gf64", "Unknown", seed=cli_seed, extra=budget,
                  argv=("--budget", "60000"))
    w32 = Request(
        key="witness:gf32",
        command="witness",
        argv=["witness", "--phi", "gf32.json", "--target", "x2*x3",
              "--seed", str(cli_seed)],
        exit=UNKNOWN,
        expect={"status": "unknown-verdict"},
    )
    # four GF(2^5) decides per pass put the decide median, and the median of
    # all requests, on the exhaustive scan; two witnesses give their median
    # two samples; the budget-bound GF(2^6) scan shows in wall_ref
    requests = [d32] * 4 + [d64] + [w32] * 2
    rng.shuffle(requests)
    return Workload(
        name="span-gf2e",
        warmup=["parse", "--ring", "GF:2^5", "--n", "3", "--poly", "x2*x3"],
        setup=[_map_setup("gf32"), _map_setup("gf64")],
        requests=requests,
    )


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

def _parse(ring, n, poly, total, degrees, canonical=None):
    payload = {"total_degree": total, "degrees": degrees}
    if canonical:
        payload["canonical"] = canonical
    return Request(
        key=f"parse:{ring}:{poly}",
        command="parse",
        argv=["parse", "--ring", ring, "--n", str(n), "--poly", poly],
        exit=OK,
        expect={"status": "ok", "payload": payload},
    )


def _classify(name, certified, answer, route, extra_argv=()):
    return Request(
        key=f"classify:{name}",
        command="classify",
        argv=["classify", "--phi", f"{name}.json", *extra_argv],
        exit=OK,
        expect={"status": "ok",
                "payload": {"J_phi_certified": certified, "ngg": False,
                            "verdict": {"answer": answer, "route": route}}},
    )


def _ngg(name, member, case=None):
    payload = {"ngg": member}
    if case:
        payload["witness"] = {"case": case}
    return Request(
        key=f"ngg-check:{name}",
        command="ngg-check",
        argv=["ngg-check", "--phi", f"{name}.json"],
        exit=OK,
        expect={"status": "ok", "payload": payload},
    )


def _reduce(ideal, ring, images):
    return Request(
        key=f"reduce:z6:{ideal}",
        command="reduce",
        argv=["reduce", "--phi", "z6.json", "--ideal", ideal],
        exit=OK,
        expect={"status": "ok", "payload": {"ring": ring, "images": images}},
    )


def cli_mix(seed):
    """A seeded order of a fixed menu of short requests; 119 per pass."""
    rng = random.Random(seed)
    s = rng.randrange(1000)
    menu = [
        # parse: degrees are read off the polynomial; the F_5 round trip is
        # the one in the CLI tests.
        (4, _parse("Fp:5", 3, "x1^2*x2 + 3", 3, [2, 1, 0],
                   canonical="x1^2*x2 + 3")),
        (3, _parse("GF:3^2", 3, "x2^5 + x3", 5, [0, 5, 1])),
        (3, _parse("Fp:3", 3, "x2^2*x3^2 + x1", 4, [1, 2, 2])),
        (3, _parse("Q", 3, "1/2*x1^2 - x2", 2, [2, 1, 0])),
        (2, _parse("Zn:6", 2, "3*x2^2 + x1", 2, [1, 2])),
        # decide
        # x2*x3 is a unit times a product of two variables: direct case (a).
        (5, _decide("f5", "StablyCotame", route="M-phi-case-a", seed=s)),
        # x2^5 over GF(9): separable degree 5 <= 9-2 and 5 = 2 mod 3 is good.
        (4, _decide("gf9", "StablyCotame", route="J-full", seed=s)),
        # README: the quintic stays Unknown over F_3.
        (3, _decide("f3q", "Unknown", seed=s)),
        # acceptance criterion 9.
        (3, _decide("f3d", "StablyCotame", route="delta-route", seed=s)),
        (2, _decide("f3c", "NotStablyCotame", reason="ngg-membership", seed=s)),
        # x2^2 over Q: a unit times a square with 2 a unit, direct case (b).
        (3, _decide("q", "StablyCotame", route="M-phi-case-b", seed=s)),
        # Z/6: modulo 3 the map is the identity, which has no good monomial.
        (3, _decide("z6", "NotStablyCotame", reason="reduction-to-ngg",
                    seed=s)),
        # classify: README invocation and the CLI tests' payload facts.
        (4, _classify("f5", True, "StablyCotame", "M-phi-case-a",
                      ("--n", "3", "--ksize", "5"))),
        (2, _classify("gf9", True, "StablyCotame", "J-full")),
        # criterion 9: the span scan does not certify, the delta route does.
        (2, _classify("f3d", False, "StablyCotame", "delta-route")),
        # ngg-check: x2*x3 has two exponents 1 mod 5 (case II); x2^2*x3^2 and
        # x2^5 have an exponent 2 mod 3 (case III); x2^3 has no good monomial.
        (3, _ngg("f5", False, "II")),
        (2, _ngg("f3d", False, "III")),
        (3, _ngg("gf9", False, "III")),
        (3, _ngg("f3c", True)),
        # reduce: CLI tests (mod 3) and 3 = 1 mod 2.
        (4, _reduce("3", "Zn:3", [terms("x1"), terms("x2")])),
        (4, _reduce("2", "Zn:2", [terms("x1", "x2^2"), terms("x2")])),
    ]
    # witness -o + verify + tampered verify; elementary maps are inverted
    # automatically, so witness reports verified: true.
    targets = [
        # acceptance criterion 5
        ("f5", "x2*x3"), ("f5", "x2^2"), ("f5", "x2^2*x3"), ("f5", "x3^3"),
        ("f5", "x2 + x3^2"),
        # criterion 10, and degree-3 and degree-4 targets over GF(9)
        ("gf9", "x2*x3"), ("gf9", "x2^2*x3"), ("gf9", "x2^2*x3^2"),
        ("gf9", "x2^2*x3^2 + x3^3"),
        # criterion 9
        ("f3d", "x2*x3"),
        # criterion 3
        ("q", "x2*x3"), ("q", "x2^3"), ("q", "x3^2 + 2*x2"),
    ]
    requests = [req for count, req in menu for _ in range(count)]
    # the F_5 words twice, so that the witness median falls among them
    # rather than between request kinds
    requests += [_witness(name, target, f"word-{i}.json", s)
                 for i, (name, target) in enumerate(targets)
                 for _ in range(2 if name == "f5" else 1)]
    rng.shuffle(requests)
    return Workload(
        name="cli-mix",
        warmup=["parse", "--ring", "Fp:5", "--n", "3", "--poly", "x2*x3"],
        setup=[_map_setup(name) for name in ("f5", "gf9", "f3q", "f3d", "f3c",
                                             "q", "z6")],
        requests=requests,
    )


WORKLOADS = {"theta-f7": theta_f7, "span-gf2e": span_gf2e, "cli-mix": cli_mix}
