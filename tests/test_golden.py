"""Byte-identical CLI output: the golden corpus of tests/golden/."""

import importlib.util
import json
from pathlib import Path

import pytest

from cotame.endo import AffineMap, GeneratorWord, try_invert
from cotame.maps import Endomorphism, compose, extend, identity

GOLDEN = Path(__file__).resolve().parent / "golden"

spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regen)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The folder of one run of the corpus, holding the words it wrote, and
    its results."""
    folder = tmp_path_factory.mktemp("golden")
    return folder, regen.run_corpus(folder)


def test_every_request_prints_what_the_corpus_holds(corpus):
    expected = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))
    _, results = corpus
    assert list(results) == list(expected)
    changed = [name for name in expected if results[name] != expected[name]]
    assert not changed, (
        f"{len(changed)} requests changed, first {changed[0]}: "
        f"{results[changed[0]]} instead of {expected[changed[0]]}"
    )


def test_the_corpus_is_small():
    files = [path for path in GOLDEN.rglob("*")
             if path.is_file() and "__pycache__" not in path.parts]
    assert sum(path.stat().st_size for path in files) < 1_000_000
    expected = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))
    assert len(expected) >= 150


def bracket_by_bracket(word, phi, phi_inverse):
    """The word's value with each phi ... phi^-1 composed as one map,
    innermost first, and every other letter composed into the product on its
    own: no memo, no fused units, no runs.  (Composing letter by letter
    takes minutes on the theta words.)"""
    phi_ext, inv_ext = (extend(m, word.ambient - m.nvars) for m in (phi, phi_inverse))
    stack = [identity(phi.ring, word.ambient)]
    for letter in word.letters:
        if isinstance(letter, AffineMap):
            stack[-1] = compose(stack[-1], letter.to_endo())
        elif letter == 1:
            stack.append(identity(phi.ring, word.ambient))
        elif len(stack) > 1:
            inner = stack.pop()
            stack[-1] = compose(stack[-1], compose(compose(phi_ext, inner), inv_ext))
        else:
            stack[-1] = compose(stack[-1], inv_ext)
    value = stack[0]
    for inner in stack[1:]:
        value = compose(compose(value, phi_ext), inner)
    return value


def test_every_witness_word_evaluates_to_its_value_bracket_by_bracket(corpus):
    folder, results = corpus
    requests = json.loads((GOLDEN / "requests.json").read_text(encoding="utf-8"))

    def read(argv, flag):
        return json.loads((folder / argv[argv.index(flag) + 1]).read_text())

    checked = 0
    for name, argv in requests.items():
        if argv[0] != "witness" or results[name]["exit"] != 0 or "-o" not in argv:
            continue
        phi = Endomorphism.from_json(read(argv, "--phi"))
        inverse = (Endomorphism.from_json(read(argv, "--phi-inverse"))
                   if "--phi-inverse" in argv else try_invert(phi))
        if inverse is None:  # verified: null, and verify refuses the word
            continue
        word = GeneratorWord.from_json(phi.ring, read(argv, "-o"))
        assert word.evaluate(phi, inverse) == bracket_by_bracket(word, phi, inverse), name
        checked += 1
    assert checked == 27
