"""The library's parser against the recursive-descent reference it replaced
(``tests/parseref.py``): on every text, both give the same table, or both
refuse it with the same error, message and position included.

The texts are random models of all four languages, single-token edits of
them, random token strings, and the benchmark's model files: 16,000 model
texts, 4,800 command-line terms and 246 files.
"""

import importlib
import random
import re
from pathlib import Path

import pytest

import parseref
from futsbench import syntax
from futsbench.errors import FutsError
from futsbench.syntax import LANGUAGES
from modelgen import model_text, random_model_terms

BENCH = Path(__file__).resolve().parents[1] / "bench"

# what an edit puts in: tokens, blanks, and characters that start no token,
# among them the stray symbols, a letter that is neither upper- nor
# lowercase ("ǅ") and numerals that are not letters ("²", "٣")
VOCABULARY = (
    "nil", "init", "X0", "X1", "X9", "P", "a", "b", "c", "(", ")", "{", "}", ":",
    "+", ".", ",", "<", ">", "|[", "]|", "[]", "=", "/", "1", "2", "0", "3/2",
    "1/0", "1.5", "0.0", "2.", "|", "[", "]", "-", "--", " ", "\t", "\n", "_",
    "ǅ", "é", "²", "٣", "\x0b",
)
# a text's pieces: blanks, words, two-character symbols or single characters
PIECES = re.compile(r"\s+|\w+|\|\[|\]\||\[\]|--|.", re.DOTALL)

# the fixed model every command-line term is parsed into, per language
TERM_MODELS = {
    "pepa": "X0 = (a, 1).X0\nX1 = (b, 2).nil\ninit X0\n",
    "iml": "X0 = a.X0\nX1 = 1/2 . nil\ninit X0\n",
    "tpc": "X0 = (1).a.X0\nX1 = b.nil\ninit X0\n",
    "mal": "X0 = a.{1/2: X0 [] 1/2: nil}\nX1 = 2.nil\ninit X0\n",
}


def mutate(rng, text):
    """``text`` with one piece deleted, replaced or inserted."""
    pieces = PIECES.findall(text)
    at = rng.randrange(len(pieces) + 1)
    edit = rng.randrange(3)
    if edit == 0 or at == len(pieces):
        pieces.insert(at, rng.choice(VOCABULARY))
    elif edit == 1:
        pieces[at] = rng.choice(VOCABULARY)
    else:
        del pieces[at]
    return "".join(pieces)


def token_string(rng, size):
    return "".join(rng.choice(VOCABULARY) + rng.choice(("", " ")) for _ in range(size))


def outcome(parse, text, lang):
    """What parsing ``text`` gives: the error's class and text, or the
    table's initial term, definitions and shapes in id order."""
    try:
        model = parse(text, lang)
    except FutsError as exc:
        return type(exc), str(exc)
    return model.init, model.defs, [model.shape(i) for i in range(len(model.registry))]


def term_outcome(parse, text, lang):
    """What parsing ``text`` as a command-line term into a fresh model gives."""
    model = syntax.parse_model(TERM_MODELS[lang], lang)
    try:
        term = parse(text, model)
    except FutsError as exc:
        return type(exc), str(exc)
    return term, [model.shape(i) for i in range(len(model.registry))]


def assert_agree(texts, lang):
    for text in texts:
        expected = outcome(parseref.parse_model, text, lang)
        assert outcome(syntax.parse_model, text, lang) == expected, text


def model_texts(lang, count, mutants):
    rng = random.Random(f"parseref-{lang}")
    texts = []
    for _ in range(count):
        text = model_text(*random_model_terms(rng, lang, depth=rng.randint(1, 4)))
        texts.append(text)
        texts.extend(mutate(rng, text) for _ in range(mutants))
        texts.append(token_string(rng, rng.randint(0, 12)))
        texts.append(f"X0 = {token_string(rng, rng.randint(1, 12))}\ninit X0\n")
    return texts


@pytest.mark.parametrize("lang", LANGUAGES)
def test_models_and_their_edits_parse_as_the_reference_does(lang):
    texts = model_texts(lang, 200, 17)
    assert len(texts) == 200 * 20
    assert_agree(texts, lang)


@pytest.mark.parametrize("lang", LANGUAGES)
def test_command_line_terms_parse_as_the_reference_does(lang):
    rng = random.Random(f"parseref-term-{lang}")
    for _ in range(400):
        _, init = random_model_terms(rng, lang, max_consts=2, depth=rng.randint(1, 4))
        for text in (
            syntax.term_key(init),
            mutate(rng, syntax.term_key(init)),
            token_string(rng, rng.randint(0, 10)),
        ):
            expected = term_outcome(parseref.parse_term, text, lang)
            assert term_outcome(syntax.parse_term, text, lang) == expected, text


def test_bench_model_files_parse_as_the_reference_does(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    files = [
        model
        for workload in workloads.WORKLOADS
        for seed in (1, 2, 3)
        for model in workloads.draw(workload, seed)
    ]
    assert len(files) == 3 * (1 + 1 + 80)
    for model in files:
        assert_agree([model.text], model.lang)
