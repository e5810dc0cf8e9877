import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotame.cli import COMMANDS, _dumps, build_parser, emit_report, run
from cotame.endo import MAX_WORD_SIZE
from cotame.poly import MAX_VARIABLES

OK, ERROR, UNKNOWN = 0, 1, 2


def write_phi(tmp_path, name, ring, n, images):
    path = tmp_path / name
    path.write_text(json.dumps({"ring": ring, "n": n, "images": images}))
    return str(path)


def run_cli(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_round_trip(capsys):
    code, out = run_cli(
        capsys, ["parse", "--ring", "Fp:5", "--n", "3", "--poly", "x1^2*x2 + 3"]
    )
    assert code == OK
    data = json.loads(out)
    assert data["payload"]["canonical"] == "x1^2*x2 + 3"


def test_parse_error_has_position(capsys):
    code, out = run_cli(
        capsys, ["parse", "--ring", "Q", "--n", "3", "--poly", "x4 + 1"]
    )
    assert code == ERROR
    data = json.loads(out)
    assert data["status"] == "error" and "position" in data["payload"]


def test_decide_exit_codes(tmp_path, capsys):
    phi_q = write_phi(tmp_path, "q.json", "Q", 3, ["x1 + x2^2", "x2", "x3"])
    code, out = run_cli(capsys, ["decide", "--ring", "Q", "--phi", phi_q])
    assert code == OK
    assert json.loads(out)["payload"]["answer"] == "StablyCotame"

    phi_2 = write_phi(tmp_path, "f2.json", "Fp:2", 3, ["x1 + x2^2", "x2", "x3"])
    code, out = run_cli(capsys, ["decide", "--ring", "Fp:2", "--phi", phi_2])
    assert code == OK
    assert json.loads(out)["payload"]["answer"] == "NotStablyCotame"
    assert json.loads(out)["payload"]["reason"] == "ngg-membership"

    phi_3 = write_phi(tmp_path, "f3.json", "Fp:3", 3, ["x1 + x2^5", "x2", "x3"])
    code, out = run_cli(capsys, ["decide", "--ring", "Fp:3", "--phi", phi_3])
    assert code == UNKNOWN
    assert json.loads(out)["status"] == "unknown-verdict"


def test_ring_mismatch_is_an_error(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Fp:5", 3, ["x1 + x2*x3", "x2", "x3"])
    code, out = run_cli(capsys, ["decide", "--ring", "Fp:7", "--phi", phi])
    assert code == ERROR


# (command, ring, images, witness target) on a span map, a direct-route map
# and a map that a reduction settles, so --ksize is checked before any route
KSIZE_CASES = [
    pytest.param(command, ring, images, target, id=command + suffix)
    for ring, images, target, suffix in [
        ("GF:2^5", ["x1 + x2^31*x3 + x2*x3^31", "x2", "x3"], "x2*x3", ""),
        ("Fp:5", ["x1 + x2*x3", "x2", "x3"], "x2*x3", "-F_5"),
        ("Zn:6", ["x1 + 3*x2^2", "x2"], "x2^2", "-Z/6"),
    ]
    for command in ("decide", "classify", "witness")
]


def ksize_argv(tmp_path, command, ring, images, target, ksize):
    phi = write_phi(tmp_path, "phi.json", ring, len(images), images)
    argv = [command, "--ring", ring, "--phi", phi, "--ksize", ksize]
    return argv + ["--target", target] if command == "witness" else argv


@pytest.mark.parametrize("command, ring, images, target", KSIZE_CASES)
@pytest.mark.parametrize("ksize", ["0", "1", "-3"])
def test_ksize_below_two_is_an_error(tmp_path, capsys, command, ksize, ring,
                                     images, target):
    # --ksize 0 is a field size like any other, not a request for "auto"
    argv = ksize_argv(tmp_path, command, ring, images, target, ksize)
    code, out = run_cli(capsys, argv)
    assert code == ERROR
    assert json.loads(out)["payload"] == {"error": "a field has at least 2 elements"}


def test_ksize_of_the_field_matches_auto(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "GF:2^5", 3,
                    ["x1 + x2^31*x3 + x2*x3^31", "x2", "x3"])
    argv = ["decide", "--ring", "GF:2^5", "--phi", phi]
    assert run_cli(capsys, argv) == run_cli(capsys, argv + ["--ksize", "32"])


def test_witness_verify_and_tamper(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Fp:5", 3, ["x1 + x2*x3", "x2", "x3"])
    word_file = str(tmp_path / "word.json")
    code, out = run_cli(
        capsys,
        [
            "witness",
            "--ring",
            "Fp:5",
            "--phi",
            phi,
            "--target",
            "x2^2*x3",
            "-o",
            word_file,
        ],
    )
    assert code == OK
    report = json.loads(out)
    assert report["payload"]["verified"] is True
    code, _ = run_cli(
        capsys,
        [
            "verify",
            "--ring",
            "Fp:5",
            "--phi",
            phi,
            "--target",
            "x2^2*x3",
            "--word",
            word_file,
        ],
    )
    assert code == OK
    data = json.loads(Path(word_file).read_text())
    del data["letters"][len(data["letters"]) // 2]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    code, out = run_cli(
        capsys,
        [
            "verify",
            "--ring",
            "Fp:5",
            "--phi",
            phi,
            "--target",
            "x2^2*x3",
            "--word",
            str(tampered),
        ],
    )
    assert code == ERROR
    payload = json.loads(out)["payload"]
    assert payload["match"] is False
    assert payload["first_mismatch_variable"] is not None


def test_verify_bounds_inner_tampered_theta_word(tmp_path, capsys):
    # One translation entry changed inside a phi bracket stops the brackets
    # of the theta N=1 word from cancelling, so its partial products grow
    # without bound; verify must end as a JSON error report, and soon.
    theta = str(tmp_path / "theta.json")
    code, _ = run_cli(capsys, ["theta", "--ring", "Fp:7", "--N", "1", "-o", theta])
    assert code == OK
    word_file = tmp_path / "word.json"
    code, _ = run_cli(
        capsys,
        ["witness", "--phi", theta, "--target", "x2*x3", "-o", str(word_file)],
    )
    assert code == OK
    verify = ["verify", "--phi", theta, "--phi-inverse", theta,
              "--target", "x2*x3", "--word", str(word_file)]
    code, out = run_cli(capsys, verify)
    assert code == OK and json.loads(out)["payload"]["match"] is True

    data = json.loads(word_file.read_text())
    letters = data["letters"]
    first_phi = next(i for i, l in enumerate(letters) if l["kind"] == "phi")
    inner = next(l for l in letters[first_phi:] if l["kind"] == "affine")
    inner["b"][0] = "1" if inner["b"][0] == "0" else "0"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    verify[verify.index("--word") + 1] = str(tampered)
    start = time.perf_counter()
    code, out = run_cli(capsys, verify)
    assert time.perf_counter() - start < 30
    assert code == ERROR
    report = json.loads(out)
    assert report["status"] == "error"
    assert "limit" in report["payload"]["error"]


def test_verify_rejects_a_tampered_inverse(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Fp:5", 3, ["x1 + x2*x3", "x2", "x3"])
    word_file = str(tmp_path / "word.json")
    code, _ = run_cli(
        capsys, ["witness", "--phi", phi, "--target", "x2^2", "-o", word_file]
    )
    assert code == OK
    verify = ["verify", "--phi", phi, "--target", "x2^2", "--word", word_file,
              "--phi-inverse"]
    good = write_phi(tmp_path, "inv.json", "Fp:5", 3, ["x1 + 4*x2*x3", "x2", "x3"])
    code, out = run_cli(capsys, verify + [good])
    assert code == OK and json.loads(out)["payload"]["match"] is True
    # a changed coefficient, a changed constant, and phi itself, which is
    # not an involution
    for name, images in (
        ("coeff.json", ["x1 + 3*x2*x3", "x2", "x3"]),
        ("const.json", ["x1 + 4*x2*x3", "x2 + 1", "x3"]),
        ("self.json", ["x1 + x2*x3", "x2", "x3"]),
    ):
        tampered = write_phi(tmp_path, name, "Fp:5", 3, images)
        code, out = run_cli(capsys, verify + [tampered])
        assert code == ERROR, name
        report = json.loads(out)
        assert report["status"] == "error"
        assert "composition check" in report["payload"]["error"]


def test_witness_unknown_region(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Fp:3", 3, ["x1 + x2^5", "x2", "x3"])
    code, out = run_cli(
        capsys,
        ["witness", "--ring", "Fp:3", "--phi", phi, "--target", "x2*x3"],
    )
    assert code == UNKNOWN


def test_classify_payload_fields(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Fp:5", 3, ["x1 + x2*x3", "x2", "x3"])
    code, out = run_cli(
        capsys, ["classify", "--ring", "Fp:5", "--n", "3", "--phi", phi]
    )
    assert code == OK
    payload = json.loads(out)["payload"]
    for key in ("good_monomials", "I_phi", "J_phi_certified", "ngg", "verdict"):
        assert key in payload
    assert payload["J_phi_certified"] is True
    assert payload["ngg"] is False
    assert payload["good_monomials"][0]["case"] == "II"


def test_determinism_same_seed(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Q", 3, ["x1 + x2^2", "x2", "x3"])
    outputs = []
    for _ in range(2):
        code, out = run_cli(
            capsys, ["decide", "--ring", "Q", "--phi", phi, "--seed", "7"]
        )
        assert code == OK
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_compose_and_invert_cli(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Q", 3, ["x1 + x2^2", "x2", "x3"])
    psi = write_phi(tmp_path, "psi.json", "Q", 3, ["x1", "x2 + x3^2", "x3"])
    out_file = str(tmp_path / "composed.json")
    code, _ = run_cli(
        capsys, ["compose", "--phi", phi, "--psi", psi, "-o", out_file]
    )
    assert code == OK
    from cotame.poly import parse_poly
    from cotame.rings import RationalField

    Q = RationalField()
    composed = json.loads(Path(out_file).read_text())
    assert parse_poly(composed["images"][1], Q, 3) == parse_poly("x2 + x3^2", Q, 3)
    code, out = run_cli(capsys, ["invert", "--phi", out_file])
    assert code == OK
    inv = json.loads(out)["payload"]
    assert parse_poly(inv["images"][0], Q, 3) == parse_poly(
        "x1 - (x2 - x3^2)^2", Q, 3
    )


def test_invert_has_no_hint(tmp_path, capsys):
    # the shape of the map picks the inverse: affine, else triangular
    phi = write_phi(tmp_path, "phi.json", "Fp:5", 3, ["x1 + x2*x3", "x2", "x3"])
    out, err, code = exit_outcome(
        capsys, run, ["invert", "--phi", phi, "--hint", "triangular"])
    assert (out, code) == ("", 2)
    assert err.startswith("usage: cotame") and "--hint" in err


def test_theta_analyze(capsys):
    code, out = run_cli(
        capsys, ["theta", "--ring", "Fp:7", "--N", "1", "--analyze"]
    )
    assert code == OK
    analysis = json.loads(out)["payload"]["analysis"]
    assert analysis["x1^2*x3^4_coefficient"] == "6"
    assert analysis["degrees_theta_prime_x2"] == [4, 1, 4]
    assert analysis["verdict"]["answer"] == "StablyCotame"


def test_theta_analyze_composite_characteristic(capsys):
    # the good-monomial subgroup test is left out where it is undefined, and
    # decide refutes the map through a quotient
    code, out = run_cli(
        capsys, ["theta", "--ring", "Zn:6", "--N", "1", "--analyze"]
    )
    assert code == OK
    analysis = json.loads(out)["payload"]["analysis"]
    assert "ngg" not in analysis
    assert analysis["verdict"]["answer"] == "NotStablyCotame"
    assert analysis["verdict"]["reason"] == "reduction-to-ngg"


@pytest.mark.parametrize(
    "ring, image, route",
    [("Fp:5", "x1 + x2*x3", "M-phi-case-a"), ("Q", "x1 + x2^2", "M-phi-case-b")],
)
def test_witness_reports_the_route_of_decide(tmp_path, capsys, ring, image, route):
    phi = write_phi(tmp_path, "phi.json", ring, 3, [image, "x2", "x3"])
    code, out = run_cli(capsys, ["decide", "--phi", phi])
    assert code == OK and json.loads(out)["payload"]["route"] == route
    code, out = run_cli(capsys, ["witness", "--phi", phi, "--target", "x2*x3"])
    assert code == OK
    payload = json.loads(out)["payload"]
    assert payload["route"] == route and payload["verified"] is True


def test_classify_scans_once(tmp_path, capsys, monkeypatch):
    import cotame.classify
    import cotame.cli

    calls = []
    scan = cotame.classify.span_good_scan

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(cotame.classify, "span_good_scan", counted)
    phi = write_phi(tmp_path, "phi.json", "GF:3^2", 3, ["x1 + x2^5", "x2", "x3"])
    code, out = run_cli(capsys, ["classify", "--phi", phi])
    assert code == OK
    payload = json.loads(out)["payload"]
    assert payload["J_phi_certified"] is True
    assert payload["verdict"]["route"] == "J-full"
    assert len(calls) == 1


@pytest.mark.parametrize("argv, ring, images, calls", [
    (["classify", "--n", "3", "--ksize", "5"], "Fp:5", ["x1 + x2*x3", "x2", "x3"], 4),
    (["classify"], "GF:2^5", ["x1 + x2^31*x3 + x2*x3^31", "x2", "x3"], 3),
    (["decide"], "Fp:5", ["x1 + x2*x3", "x2", "x3"], 3),
    (["theta", "--ring", "Fp:7", "--N", "1", "--analyze"], None, None, 4),
])
def test_good_monomials_are_listed_once(tmp_path, capsys, monkeypatch, argv, ring,
                                        images, calls):
    # decide lists each image's good monomials once, and classify and theta
    # --analyze read them off its verdict; the rest are span candidates
    import cotame.classify

    counted = []
    good_monomials = cotame.classify.good_monomials

    def counting(f):
        counted.append(f)
        return good_monomials(f)

    monkeypatch.setattr(cotame.classify, "good_monomials", counting)
    if ring is not None:
        argv = argv + ["--phi", write_phi(tmp_path, "phi.json", ring, 3, images)]
    code, _ = run_cli(capsys, argv)
    assert code in (OK, UNKNOWN)
    assert len(counted) == calls


def test_reduce_cli(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Zn:6", 2, ["x1 + 3*x2^2", "x2"])
    code, out = run_cli(
        capsys, ["reduce", "--ring", "Zn:6", "--phi", phi, "--ideal", "3"]
    )
    assert code == OK
    payload = json.loads(out)["payload"]
    assert payload["ring"] == "Zn:3" and payload["images"][0] == "x1"


def test_reduce_reads_gf_coefficient_vectors(tmp_path, capsys):
    # the commas inside [...] belong to one generator
    phi = write_phi(tmp_path, "phi.json", "GF:3^2", 3, ["x1 + x2*x3", "x2", "x3"])
    code, out = run_cli(capsys, ["reduce", "--phi", phi, "--ideal", "0,[0,0]"])
    assert code == OK
    assert json.loads(out)["payload"] == {
        "ring": "GF:3^2", "n": 3, "images": ["x2*x3 + x1", "x2", "x3"]}
    code, out = run_cli(capsys, ["reduce", "--phi", phi, "--ideal", "[1,0]"])
    assert code == ERROR
    assert json.loads(out)["payload"]["error"] == "a field has no proper nonzero ideals"


def test_ngg_check_cli(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Fp:2", 3, ["x1 + x2^2", "x2", "x3"])
    code, out = run_cli(capsys, ["ngg-check", "--ring", "Fp:2", "--phi", phi])
    assert code == OK and json.loads(out)["payload"]["ngg"] is True
    phi2 = write_phi(tmp_path, "phi2.json", "Fp:2", 3, ["x1 + x2*x3", "x2", "x3"])
    code, out = run_cli(capsys, ["ngg-check", "--ring", "Fp:2", "--phi", phi2])
    payload = json.loads(out)["payload"]
    assert payload["ngg"] is False and payload["witness"]["case"] == "II"


# one map per ring with a non-one coefficient, and an ideal to reduce by
ELEMENT_FREE_MAPS = {
    "Q": ("x1 + 1/2*x2*x3", "0"),
    "Z": ("x1 - x2*x3", "4,6"),
    "Zn:6": ("x1 + 5*x2*x3", "3"),
    "Fp:5": ("x1 + 3*x2*x3", "0"),
    "GF:3^2": ("x1 + [0,1]*x2*x3", "[0]"),
}


@pytest.mark.parametrize("ring", ELEMENT_FREE_MAPS)
def test_the_cli_path_builds_no_ring_element(tmp_path, capsys, ring):
    # every command reads, computes on and prints raw values of each ring
    image, ideal = ELEMENT_FREE_MAPS[ring]
    phi = write_phi(tmp_path, "phi.json", ring, 3, [image, "x2", "x3"])
    word = str(tmp_path / "word.json")
    target = ["--target", "x2^2*x3"]
    requests = [
        ["parse", "--ring", ring, "--n", "3", "--poly", image + " + 2"],
        ["decide", "--phi", phi],
        ["classify", "--phi", phi],
        ["witness", "--phi", phi, *target, "-o", word],
        ["verify", "--phi", phi, *target, "--word", word],
        ["reduce", "--phi", phi, "--ideal", ideal],
        ["ngg-check", "--phi", phi],
    ]
    codes = [run_cli(capsys, argv)[0] for argv in requests]
    # only ngg-check over Z/6 refuses, for its composite characteristic
    assert codes == [OK] * 6 + [ERROR if ring == "Zn:6" else OK]


def test_text_format(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Q", 3, ["x1 + x2^2", "x2", "x3"])
    code, out = run_cli(
        capsys, ["decide", "--ring", "Q", "--phi", phi, "--format", "text"]
    )
    assert code == OK
    assert "answer: StablyCotame" in out


GOOD_MAP = {"ring": "Fp:5", "n": 3, "images": ["x1 + x2*x3", "x2", "x3"]}

MALFORMED_MAPS = {
    "n-string": {"n": "3"},
    "n-float": {"n": 3.0},
    "n-zero": {"n": 0},
    "n-bool": {"n": True},
    "n-null": {"n": None},
    "images-string": {"images": "x1 + x2*x3"},
    "images-short": {"images": ["x1 + x2*x3", "x2"]},
    "image-int": {"images": ["x1 + x2*x3", 2, "x3"]},
    "ring-int": {"ring": 5},
    "ring-missing": {"ring": None},
}


@pytest.mark.parametrize("change", MALFORMED_MAPS.values(), ids=MALFORMED_MAPS)
def test_malformed_map_file_is_a_json_error(tmp_path, capsys, change):
    data = {k: v for k, v in {**GOOD_MAP, **change}.items() if v is not None}
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, ["decide", "--phi", str(path)])
    assert code == ERROR
    report = json.loads(out)
    assert report["status"] == "error" and report["payload"]["error"]


@pytest.mark.parametrize("data", [[], "phi", 5], ids=["list", "string", "int"])
@pytest.mark.parametrize("ring", [None, "Fp:5"], ids=["no-ring", "ring"])
def test_map_file_that_is_no_object_is_a_json_error(tmp_path, capsys, data, ring):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(data))
    ring_args = ["--ring", ring] if ring else []
    code, out = run_cli(capsys, ["decide", *ring_args, "--phi", str(path)])
    assert code == ERROR and json.loads(out)["status"] == "error"


@pytest.fixture(scope="module")
def witness_word(tmp_path_factory):
    """A map file and the word that witness writes for x2^2*x3 under it."""
    folder = tmp_path_factory.mktemp("word")
    phi = folder / "phi.json"
    phi.write_text(json.dumps(GOOD_MAP))
    word = folder / "word.json"
    argv = ["witness", "--phi", str(phi), "--target", "x2^2*x3", "-o", str(word)]
    assert run(argv) == OK
    return phi, word.read_text()


def verify_word(tmp_path, capsys, phi, data):
    word = tmp_path / "changed.json"
    word.write_text(json.dumps(data))
    return run_cli(
        capsys,
        ["verify", "--phi", str(phi), "--target", "x2^2*x3", "--word", str(word)],
    )


def first_affine(data):
    return next(l for l in data["letters"] if l["kind"] == "affine")


MALFORMED_WORDS = {
    "ambient-string": lambda d: d.update(ambient="4"),
    "ambient-negative": lambda d: d.update(ambient=-4),
    "letters-object": lambda d: d.update(letters={"kind": "phi", "exp": 1}),
    "letter-string": lambda d: d["letters"].append("phi"),
    "kind-unknown": lambda d: d["letters"].append({"kind": "psi", "exp": 1}),
    "exp-missing": lambda d: d["letters"].append({"kind": "phi"}),
    "exp-string": lambda d: d["letters"].append({"kind": "phi", "exp": "1"}),
    "exp-two": lambda d: d["letters"].append({"kind": "phi", "exp": 2}),
    "A-missing": lambda d: first_affine(d).pop("A"),
    "A-int": lambda d: first_affine(d).update(A=5),
    "A-short": lambda d: first_affine(d)["A"].pop(),
    "A-row-short": lambda d: first_affine(d)["A"][0].pop(),
    "A-rows-strings": lambda d: first_affine(d).update(
        A=["1000", "0100", "0010", "0001"]
    ),
    "b-long": lambda d: first_affine(d)["b"].append("0"),
    "b-string": lambda d: first_affine(d).update(b="0000"),
    "entry-list": lambda d: first_affine(d)["b"].__setitem__(0, [1]),
    "entry-float": lambda d: first_affine(d)["b"].__setitem__(0, 1.5),
    "entry-bool": lambda d: first_affine(d)["b"].__setitem__(0, True),
    "entry-object": lambda d: first_affine(d)["A"][0].__setitem__(0, {"v": 1}),
    "entry-superscript": lambda d: first_affine(d)["b"].__setitem__(0, "\u00b2"),
    "entry-5000-digits": lambda d: first_affine(d)["b"].__setitem__(0, "7" * 5000),
}

# the error of each malformed letter, also where an equal letter came first
LETTER_ERRORS = {
    **dict.fromkeys(["A-missing", "A-int", "A-short", "A-row-short", "A-rows-strings"],
                    "'A' must be a list of 4 lists of 4 entries"),
    **dict.fromkeys(["b-long", "b-string"], "'b' must be a list of 4 entries"),
    "entry-list": "matrix entry [1] must be a string or an integer",
    "entry-float": "matrix entry 1.5 must be a string or an integer",
    "entry-bool": "matrix entry True must be a string or an integer",
    "entry-object": "matrix entry {'v': 1} must be a string or an integer",
    # integer literals are ASCII digits, at most Python's 4,300 of them
    "entry-superscript": "bad integer literal '\u00b2'",
    "entry-5000-digits": "a literal of 5000 digits exceeds the 4300-digit limit",
}


def test_verify_accepts_the_unchanged_word(tmp_path, capsys, witness_word):
    phi, text = witness_word
    code, out = verify_word(tmp_path, capsys, phi, json.loads(text))
    assert code == OK and json.loads(out)["payload"]["match"] is True


@pytest.mark.parametrize("tamper", MALFORMED_WORDS.values(), ids=MALFORMED_WORDS)
def test_malformed_word_file_is_a_json_error(tmp_path, capsys, witness_word, tamper):
    phi, text = witness_word
    data = json.loads(text)
    tamper(data)
    code, out = verify_word(tmp_path, capsys, phi, data)
    assert code == ERROR
    report = json.loads(out)
    assert report["status"] == "error" and report["payload"]["error"]


@pytest.mark.parametrize("name", LETTER_ERRORS)
def test_malformed_letter_errors_are_unchanged(tmp_path, capsys, witness_word, name):
    phi, text = witness_word
    for repeated in (False, True):
        data = json.loads(text)
        letter = json.loads(json.dumps(first_affine(data)))
        MALFORMED_WORDS[name](data)
        if repeated:
            data["letters"].insert(0, letter)
        code, out = verify_word(tmp_path, capsys, phi, data)
        assert code == ERROR
        assert json.loads(out)["payload"]["error"] == LETTER_ERRORS[name]


def test_verify_refuses_a_singular_affine_letter(tmp_path, capsys, witness_word):
    phi, text = witness_word
    data = json.loads(text)
    letter = first_affine(data)
    letter["A"][1] = list(letter["A"][0])  # two equal rows: det A = 0
    code, out = verify_word(tmp_path, capsys, phi, data)
    assert code == ERROR
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["payload"]["error"] == "matrix determinant 0 is not a unit"


GUARDED_POLYS = {
    "deep-parentheses": "(" * 5000 + "x1" + ")" * 5000,
    "dense-power": "(x1+x2+1)^100000",
    "dense-product": "(x1+1)^300*(x2+1)^300*(x3+1)^300",
    "huge-exponent": "x1^2000000",
    "huge-coefficient": "((2*x1)^60000)^60000",
}


@pytest.mark.parametrize("poly", GUARDED_POLYS.values(), ids=GUARDED_POLYS)
def test_parser_guards_end_as_json_errors(capsys, poly):
    start = time.perf_counter()
    code, out = run_cli(capsys, ["parse", "--ring", "Q", "--n", "3", "--poly", poly])
    assert time.perf_counter() - start < 5
    assert code == ERROR
    report = json.loads(out)
    assert report["status"] == "error" and report["payload"]["error"]


def test_parser_guards_keep_ordinary_input(capsys):
    for poly, canonical in [
        ("x1 + x2^63*x3 + x2*x3^63", "x2^63*x3 + x2*x3^63 + x1"),
        ("(" * 100 + "x1" + ")" * 100, "x1"),
        ("(x2 + 1)^4", "x2^4 + 4*x2^3 + 6*x2^2 + 4*x2 + 1"),
    ]:
        argv = ["parse", "--ring", "Q", "--n", "3", "--poly", poly]
        code, out = run_cli(capsys, argv)
        assert code == OK
        assert json.loads(out)["payload"]["canonical"] == canonical


def test_ksize_over_a_ring_without_base_field_changes_nothing(tmp_path, capsys):
    # Z has no base field, so the degree-condition route is unavailable with
    # or without --ksize, and no word is promised that witness cannot build
    phi = write_phi(tmp_path, "phi.json", "Z", 3, ["x1 + x2^2 + x2*x3", "x2", "x3"])
    argv = ["decide", "--phi", phi]
    code, out = run_cli(capsys, argv)
    assert code == UNKNOWN
    assert run_cli(capsys, argv + ["--ksize", "5"]) == (code, out)
    code, out = run_cli(capsys, ["witness", "--phi", phi, "--target", "x2*x3",
                                 "--ksize", "5"])
    assert code == UNKNOWN and json.loads(out)["status"] == "unknown-verdict"


@pytest.mark.parametrize("command, ring, images, target", KSIZE_CASES)
def test_ksize_above_the_field_order_is_an_error(tmp_path, capsys, command, ring,
                                                 images, target):
    order = {"GF:2^5": 32, "Fp:5": 5, "Zn:6": 6}[ring]
    argv = ksize_argv(tmp_path, command, ring, images, target, str(order + 1))
    code, out = run_cli(capsys, argv)
    assert code == ERROR
    assert json.loads(out)["payload"] == {
        "error": f"--ksize {order + 1} exceeds the {order} elements of {ring}"
    }


@pytest.mark.parametrize("images", [["x1 + x2^2", "x2", "x3"],
                                    ["x1 + x2", "x2", "x3 + 1/2"]],
                         ids=["direct", "affine"])
@pytest.mark.parametrize("command", ["decide", "classify", "witness"])
def test_a_finite_ksize_over_q_is_an_error(tmp_path, capsys, command, images):
    argv = ksize_argv(tmp_path, command, "Q", images, "x2*x3", "4")
    code, out = run_cli(capsys, argv)
    assert code == ERROR
    assert json.loads(out)["payload"] == {
        "error": "--ksize 4: Q has no finite base field"
    }


def test_classify_over_q_scans_only_the_singles(tmp_path, capsys):
    # the affine map settles as ngg before the scan, so classify scans itself
    phi = write_phi(tmp_path, "phi.json", "Q", 3, ["x1 + x2", "x2", "x3 + 1/2"])
    start = time.perf_counter()
    code, out = run_cli(capsys, ["classify", "--phi", phi])
    assert time.perf_counter() - start < 2
    report = json.loads(out)
    assert code == OK and report["diagnostics"] == []
    assert report["payload"]["J_phi_certified"] is False
    assert report["payload"]["verdict"]["reason"] == "ngg-membership"


def test_classify_over_a_composite_characteristic(tmp_path, capsys):
    phi = write_phi(tmp_path, "phi.json", "Zn:6", 2, ["x1 + 3*x2^2", "x2"])
    code, out = run_cli(capsys, ["classify", "--phi", phi])
    assert code == OK
    report = json.loads(out)
    _, decided = run_cli(capsys, ["decide", "--phi", phi])
    decided = json.loads(decided)
    assert report["payload"]["verdict"] == decided["payload"]
    assert report["payload"]["verdict"]["reason"] == "reduction-to-ngg"
    assert report["diagnostics"] == decided["diagnostics"]
    for key in ("good_monomials", "I_phi", "I_phi_full", "J_phi_certified", "ngg"):
        assert report["payload"][key] is None
    # ngg-check asks for a good monomial, which Z/6 does not define
    code, out = run_cli(capsys, ["ngg-check", "--phi", phi])
    assert code == ERROR and "characteristic" in json.loads(out)["payload"]["error"]


GF64_MODULUS = "[1,1,0,1,1" + ",0" * 59 + ",1]"


@pytest.mark.parametrize("ring", ["Fp:1000000000000000003", "GF:2^64:" + GF64_MODULUS])
def test_parse_on_a_large_ring_spec_is_refused(capsys, ring):
    start = time.perf_counter()
    code, out = run_cli(capsys, ["parse", "--ring", ring, "--n", "2", "--poly", "x1"])
    assert time.perf_counter() - start < 2
    assert code == ERROR
    assert json.loads(out)["payload"] == {
        "error": f"ring {ring!r} has more than 16777216 elements"
    }


@pytest.mark.parametrize("ring, message", [
    ("Zn:\u00b2", "bad integer literal '\u00b2'"),
    ("Zn:" + "7" * 5000, "a literal of 5000 digits exceeds the 4300-digit limit"),
    ("GF:2^3:[1,1,0," + "1" * 5000 + "]",
     "a literal of 5000 digits exceeds the 4300-digit limit"),
], ids=["modulus-superscript", "modulus-5000-digits", "gf-modulus-5000-digits"])
def test_ring_spec_literal_errors_are_unchanged(capsys, ring, message):
    code, out = run_cli(capsys, ["parse", "--ring", ring, "--n", "2", "--poly", "x1"])
    assert code == ERROR
    assert json.loads(out)["payload"] == {"error": message}


@pytest.mark.parametrize("ring, images", [
    ("Fp:1000000007", ["x1 + x2^2*x3", "x2", "x3"]),
    ("Zn:1000000000000", ["x1 + x2^2", "x2"]),
])
def test_decide_on_a_large_ring_spec_is_refused(tmp_path, capsys, ring, images):
    phi = write_phi(tmp_path, "phi.json", ring, len(images), images)
    start = time.perf_counter()
    code, out = run_cli(capsys, ["decide", "--phi", phi])
    assert time.perf_counter() - start < 2
    assert code == ERROR
    assert "more than 16777216 elements" in json.loads(out)["payload"]["error"]


@pytest.mark.parametrize("ring, images, answer", [
    # the span sweep builds only the ring values its budget can reach
    ("Fp:16777213", ["x1 + x2^2*x3", "x2", "x3"], "StablyCotame"),
    # 2^24 - 1 = 3^2*5*7*13*17*241: its prime divisors by trial division
    ("Zn:16777215", ["x1 + x2^2", "x2"], "StablyCotame"),
    ("Zn:16777214", ["x1 + x2^2", "x2"], "NotStablyCotame"),
])
def test_decide_on_the_largest_ring_specs(tmp_path, capsys, ring, images, answer):
    phi = write_phi(tmp_path, "phi.json", ring, len(images), images)
    start = time.perf_counter()
    code, out = run_cli(capsys, ["decide", "--phi", phi])
    assert time.perf_counter() - start < 2
    assert code == OK and json.loads(out)["payload"]["answer"] == answer


def test_witness_on_the_largest_prime_field(tmp_path, capsys):
    # the interpolation scalars are the first few units, not all 2^24 - 3
    phi = write_phi(tmp_path, "phi.json", "Fp:16777213", 3,
                    ["x1 + x2^2*x3", "x2", "x3"])
    start = time.perf_counter()
    code, out = run_cli(capsys, ["witness", "--phi", phi, "--target", "x2*x3"])
    assert time.perf_counter() - start < 2
    assert code == OK and json.loads(out)["payload"]["verified"] is True


class _FailingModule:
    """Stands in for a lazily loaded module whose code fails on first use."""

    def __getattr__(self, name):
        if name.startswith("__"):  # introspection by pytest
            raise AttributeError(name)
        raise SyntaxError("invalid syntax")


def _raise_runtime_error(args):
    raise RuntimeError("boom")


@pytest.mark.parametrize("attr, value, argv, message", [
    ("cmd_parse", _raise_runtime_error,
     ["parse", "--ring", "Q", "--n", "1", "--poly", "x1"],
     "internal error: RuntimeError: boom"),
    ("classify", _FailingModule(), ["decide", "--phi", "PHI"],
     "internal error: SyntaxError: invalid syntax"),
], ids=["runtime-error", "failing-module"])
def test_unexpected_exception_is_one_json_report(tmp_path, capsys, monkeypatch,
                                                 attr, value, argv, message):
    import cotame.cli

    monkeypatch.setattr(cotame.cli, attr, value)
    phi = write_phi(tmp_path, "phi.json", "Fp:5", 3, ["x1 + x2*x3", "x2", "x3"])
    code = run([phi if a == "PHI" else a for a in argv])
    captured = capsys.readouterr()
    assert code == ERROR
    assert json.loads(captured.out) == {
        "status": "error",
        "command": argv[0],
        "payload": {"error": message},
        "diagnostics": [],
    }
    assert captured.err == "" and "Traceback" not in captured.out


@pytest.mark.parametrize("n", ["-2", "-1"])
def test_parse_refuses_a_negative_n(capsys, n):
    code, out = run_cli(capsys, ["parse", "--ring", "Fp:5", "--n", n, "--poly", "3"])
    assert code == ERROR
    assert json.loads(out) == {
        "status": "error",
        "command": "parse",
        "payload": {"error": f"--n must be a non-negative integer, not {n}"},
        "diagnostics": [],
    }


def dense_letter(m, p=7, seed=12):
    """An invertible affine letter in m variables over F_p, most entries
    nonzero: lower unitriangular times upper triangular with a unit diagonal."""
    rng = random.Random(seed)
    lower = [[rng.randrange(p) if j < i else int(i == j) for j in range(m)]
             for i in range(m)]
    upper = [[rng.randrange(1, p) if j == i else rng.randrange(p) if j > i else 0
              for j in range(m)] for i in range(m)]
    A = [[sum(lower[i][t] * upper[t][j] for t in range(m)) % p for j in range(m)]
         for i in range(m)]
    return {"kind": "affine", "A": A, "b": [1] * m}


def variable_count_argv(tmp_path, entry, count):
    """A request that reads `count` variables through one entry point."""
    if entry == "parse --n":
        return ["parse", "--ring", "Fp:7", "--n", str(count), "--poly", "x1"]
    n = count if entry == "map n" else MAX_VARIABLES
    phi = write_phi(tmp_path, "phi.json", "Fp:7", n, [f"x{i}" for i in range(1, n + 1)])
    if entry == "map n":
        return ["decide", "--phi", phi]
    word = tmp_path / "word.json"
    word.write_text(json.dumps({"ambient": count, "letters": [dense_letter(count)]}))
    return ["verify", "--phi", phi, "--target", "x2", "--word", str(word)]


# each entry point that reads a variable count: its name in the error, and
# the largest count it accepts
VARIABLE_BOUNDS = {"parse --n": ("--n", MAX_VARIABLES),
                   "map n": ("'n'", MAX_VARIABLES),
                   "word ambient": ("'ambient'", MAX_VARIABLES + 1)}


@pytest.mark.parametrize("entry", VARIABLE_BOUNDS)
def test_variable_counts_are_bounded(tmp_path, capsys, entry):
    name, limit = VARIABLE_BOUNDS[entry]
    code, out = run_cli(capsys, variable_count_argv(tmp_path, entry, limit))
    payload = json.loads(out)["payload"]
    # read and answered: the word is evaluated, and it is not the target's
    assert "error" not in payload, payload
    assert code == (ERROR if entry == "word ambient" else OK)
    argv = variable_count_argv(tmp_path, entry, limit + 1)
    start = time.perf_counter()
    code, out = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == ERROR
    assert json.loads(out)["payload"] == {
        "error": f"{name} is {limit + 1}, past the limit of {limit} variables"}


def unit_letter(m, shift=False, translate=None):
    """The identity letter in m variables, with shift x1 -> x1 + x2, or with
    translation x_(k+1) -> x_(k+1) + c for translate = (k, c)."""
    A = [[int(i == j) for j in range(m)] for i in range(m)]
    A[1][0] = int(shift)
    b = [0] * m
    if translate is not None:
        b[translate[0]] = translate[1]
    return {"kind": "affine", "A": A, "b": b}


def test_word_size_is_bounded(tmp_path, capsys):
    m = MAX_VARIABLES + 1
    phi = write_phi(tmp_path, "phi.json", "Fp:7", m - 1, [f"x{i}" for i in range(1, m)])
    word = tmp_path / "word.json"
    argv = ["verify", "--phi", phi, "--target", "x2", "--word", str(word)]
    # the shift x1 -> x1 + x2, pairs of translations by c and -c at x_k, each
    # a new letter (m^3 to build it, m * (m + nonzeros) to compose it), then
    # pairs phi o phi^-1 (m^2 each) up to the bound
    translations = [unit_letter(m, translate=(k, c * sign))
                    for k in range(m) for c in range(1, 4) for sign in (1, -1)]
    shift, translation, phi_pair = m**3 + m * (2 * m + 1), m**3 + 2 * m * m, 2 * m * m
    pairs, rest = divmod(MAX_WORD_SIZE - shift, 2 * translation)
    letters = ([unit_letter(m, shift=True)] + translations[:2 * pairs]
               + [{"kind": "phi", "exp": 1}, {"kind": "phi", "exp": -1}]
               * (rest // phi_pair))
    size = MAX_WORD_SIZE - rest % phi_pair
    word.write_text(json.dumps({"ambient": m, "letters": letters}))
    code, out = run_cli(capsys, argv)
    assert (code, json.loads(out)["payload"]) == (
        OK, {"match": True, "word_length": len(letters)})
    # one letter more, or one dense letter 160 times (~3 s to compose), are
    # refused before any letter is built
    dense = dense_letter(m)
    nonzero = sum(v != 0 for row in dense["A"] for v in row)
    past = [(letters + [translations[0]], size + 2 * m * m),
            ([dense] * 160, m**3 + 160 * m * (m + nonzero))]
    for letters, size in past:
        word.write_text(json.dumps({"ambient": m, "letters": letters}))
        start = time.perf_counter()
        code, out = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1
        assert size > MAX_WORD_SIZE and code == ERROR
        assert json.loads(out)["payload"] == {"error": (
            f"a word of {len(letters)} letters in {m} variables has size {size},"
            f" past the limit of {MAX_WORD_SIZE}")}


# elementary maps of the golden corpus and targets whose witness words the
# size bound must admit at any variable count: the 148-letter word of f5
# and the 370-letter word of gf9c, whose 83 distinct letters weigh most
@pytest.mark.parametrize("ring, f, target, n", [
    ("Fp:5", "x1 + x2*x3", "x2^2*x3^2", 16),
    ("Fp:5", "x1 + x2*x3", "x2^2*x3^2", MAX_VARIABLES),
    ("GF:3^2", "x1 + [1,1]*x2^2*x3 + x3^4", "x2*x3", MAX_VARIABLES)])
def test_witness_words_verify_at_many_variables(tmp_path, capsys, ring, f, target, n):
    phi = write_phi(tmp_path, "phi.json", ring, n, [f] + [f"x{i}" for i in range(2, n + 1)])
    word = str(tmp_path / "word.json")
    code, out = run_cli(capsys, ["witness", "--phi", phi, "--target", target, "-o", word])
    assert code == OK, out
    code, out = run_cli(capsys, ["verify", "--phi", phi, "--target", target, "--word", word])
    assert (code, json.loads(out)["payload"]["match"]) == (OK, True), out


def exit_outcome(capsys, parse, argv):
    """stdout, stderr and exit code of parse(argv), which exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err, exc.value.code


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("tail", [["--help"], [], ["--format", "xml"],
                                  ["--phi", "p.json", "--stray"]],
                         ids=["help", "missing-option", "bad-choice", "unrecognized"])
def test_one_subparser_prints_what_the_full_parser_prints(capsys, command, tail):
    argv = [command, *tail]
    single = exit_outcome(capsys, build_parser(command).parse_args, argv)
    assert single == exit_outcome(capsys, build_parser().parse_args, argv)
    assert single[2] in (0, 2)


@pytest.mark.parametrize("command", ["verify", "witness"])
@pytest.mark.parametrize("ring, images, error", [
    ("Fp:5", ["x1 + 4*x2", "x2"],
     "--phi-inverse has 2 variables over Fp:5, but --phi has 3 over Fp:5"),
    ("Fp:7", ["x1 + 6*x2*x3", "x2", "x3"],
     "--phi-inverse has 3 variables over Fp:7, but --phi has 3 over Fp:5"),
], ids=["arity", "ring"])
def test_phi_inverse_of_another_arity_or_ring_is_refused(tmp_path, capsys, command,
                                                         ring, images, error):
    phi = write_phi(tmp_path, "phi.json", "Fp:5", 3, ["x1 + x2*x3", "x2", "x3"])
    inverse = write_phi(tmp_path, "inv.json", ring, len(images), images)
    argv = [command, "--phi", phi, "--target", "x2^2", "--phi-inverse", inverse]
    if command == "verify":
        word = str(tmp_path / "word.json")
        witness = ["witness", "--phi", phi, "--target", "x2^2", "-o", word]
        assert run_cli(capsys, witness)[0] == OK
        argv += ["--word", word]
    assert run_cli(capsys, argv) == (ERROR, json.dumps({
        "status": "error",
        "command": command,
        "payload": {"error": error},
        "diagnostics": [],
    }, indent=2) + "\n")


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--format", "text"]])
def test_usage_without_a_command_lists_every_command(capsys, argv):
    out, err, code = exit_outcome(capsys, run, argv)
    assert "{" + ",".join(COMMANDS) + "}" in out + err
    assert code == (0 if argv == ["--help"] else 2)
    if argv == ["--help"]:
        assert all(f"    {name} " in out for name in COMMANDS)


NO_ROUTE = "no span, direct, or difference-operator route certified this map"
BAD_INVERSE = "supplied inverse fails the composition check"


# (map name, target, --phi-inverse or None, extra options, exit code, error):
# --ksize is checked first, then a supplied inverse, then n, x1 in the
# target and the degree cap, and only then the verdict
WITNESS_PRECEDENCE = [
    ("phi", "T", "bad", [], ERROR, BAD_INVERSE),
    ("phi", "x1*x2", "bad", [], ERROR, BAD_INVERSE),
    ("phi", "x2^5", "bad", [], ERROR, BAD_INVERSE),
    ("phi", "x1*x2", None, [], UNKNOWN, "target must lie in R[x_2..x_n]"),
    ("phi", "x1^9", None, [], UNKNOWN, "target must lie in R[x_2..x_n]"),
    ("phi", "x2^5", None, [], ERROR, "target degree 5 exceeds the word-size cap 4"),
    ("phi", "x2^3", None, ["--max-degree", "2"], ERROR,
     "target degree 3 exceeds the word-size cap 2"),
    ("one", "1", None, [], ERROR, "need n >= 2"),
    ("one", "x1", None, [], ERROR, "need n >= 2"),
    ("phi", "T", None, [], UNKNOWN, NO_ROUTE),
    ("phi", "T", "phi", [], UNKNOWN, NO_ROUTE),
    ("phi", "x1*x2", None, ["--ksize", "0"], ERROR,
     "a field has at least 2 elements"),
]


@pytest.mark.parametrize("ring, images, target", [
    ("GF:2^5", ["x1 + x2^31*x3 + x2*x3^31", "x2", "x3"], "x2*x3"),
    ("Zn:6", ["x1 + 3*x2^2", "x2"], "x2^2"),
], ids=["GF(2^5)", "Z/6"])
@pytest.mark.parametrize("name, target_text, inverse, extra, code, error",
                         WITNESS_PRECEDENCE)
def test_witness_errors_keep_their_precedence(tmp_path, capsys, ring, images,
                                              target, name, target_text,
                                              inverse, extra, code, error):
    n = len(images)
    shear = ["x1"] + [f"x{i}" for i in range(2, n)] + [f"x{n} + 1"]
    files = {
        "phi": write_phi(tmp_path, "phi.json", ring, n, images),
        "bad": write_phi(tmp_path, "bad.json", ring, n, shear),
        "one": write_phi(tmp_path, "one.json", ring, 1, ["x1 + 1"]),
    }
    argv = ["witness", "--phi", files[name],
            "--target", target if target_text == "T" else target_text, *extra]
    if inverse is not None:
        argv += ["--phi-inverse", files[inverse]]
    assert run_cli(capsys, argv) == (code, json.dumps({
        "status": "unknown-verdict" if code == UNKNOWN else "error",
        "command": "witness",
        "payload": {"error": error},
        "diagnostics": [],
    }, indent=2) + "\n")


@pytest.mark.parametrize("ring, images, target", [
    ("GF:2^5", ["x1 + x2^31*x3 + x2*x3^31", "x2", "x3"], "x2*x3"),
    ("Zn:6", ["x1 + 3*x2^2", "x2"], "x2^2"),
], ids=["GF(2^5)", "Z/6"])
@pytest.mark.parametrize("existing", [False, True])
def test_witness_without_a_word_writes_no_file(tmp_path, capsys, ring, images,
                                               target, existing):
    phi = write_phi(tmp_path, "phi.json", ring, len(images), images)
    word = tmp_path / "word.json"
    if existing:
        word.write_text("kept")
    code, out = run_cli(capsys, ["witness", "--phi", phi, "--target", target,
                                 "-o", str(word)])
    assert code == UNKNOWN
    assert json.loads(out) == {
        "status": "unknown-verdict",
        "command": "witness",
        "payload": {"error": NO_ROUTE},
        "diagnostics": [],
    }
    assert word.read_text() == "kept" if existing else not word.exists()


def test_witness_decides_once(tmp_path, capsys, monkeypatch):
    import cotame.classify

    theta = str(tmp_path / "theta.json")
    run_cli(capsys, ["theta", "--ring", "Fp:7", "--N", "1", "-o", theta])
    calls = []
    decide = cotame.classify.decide

    def counted(*args, **kwargs):
        calls.append(1)
        return decide(*args, **kwargs)

    monkeypatch.setattr(cotame.classify, "decide", counted)
    code, out = run_cli(capsys, ["witness", "--phi", theta, "--target", "x2*x3"])
    assert code == OK
    assert json.loads(out)["payload"]["route"] == "J-full"
    assert len(calls) == 1


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=6))


def json_values(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.dictionaries(st.text(max_size=4), inner,
                                                max_size=4)),
        max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_report_reuses_the_encoded_artifact(data):
    # the artifact may be empty, a scalar, nested anywhere or in several places
    artifact = data.draw(json_values(JSON_SCALARS), label="artifact")
    result = data.draw(json_values(st.one_of(JSON_SCALARS, st.just(artifact))),
                       label="result")
    memo = {}  # as _finish shares it between the -o file and the report
    assert _dumps(artifact, memo) == json.dumps(artifact, indent=2)
    assert (emit_report(result, "json", memo)
            == json.dumps(result, indent=2) + "\n")


def artifact_requests(tmp_path):
    phi = write_phi(tmp_path, "phi.json", "Fp:5", 3, ["x1 + x2*x3", "x2", "x3"])
    phi6 = write_phi(tmp_path, "phi6.json", "Zn:6", 2, ["x1 + 3*x2^2", "x2"])
    return {
        "compose": (["compose", "--phi", phi, "--psi", phi], ()),
        "invert": (["invert", "--phi", phi], ()),
        "reduce": (["reduce", "--phi", phi6, "--ideal", "3"], ()),
        "theta": (["theta", "--ring", "Fp:7", "--N", "1", "--analyze"],
                  ("theta",)),
        "witness": (["witness", "--phi", phi, "--target", "x2^2*x3"], ("word",)),
    }


@pytest.mark.parametrize("command", ["compose", "invert", "reduce", "theta",
                                     "witness"])
def test_an_artifact_report_is_what_json_dumps_prints(tmp_path, capsys, command):
    argv, path = artifact_requests(tmp_path)[command]
    out_file = str(tmp_path / "artifact.json")
    code, out = run_cli(capsys, argv + ["-o", out_file])
    assert code == OK
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    artifact = report["payload"]
    for key in path:
        artifact = artifact[key]
    with open(out_file, encoding="utf-8") as fh:
        assert fh.read() == json.dumps(artifact, indent=2) + "\n"
    assert report["written"] == out_file
    assert run_cli(capsys, argv)[1] == json.dumps(
        {key: v for key, v in report.items() if key != "written"}, indent=2) + "\n"
