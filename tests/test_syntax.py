"""Unit tests for parsing, printing, and static checks."""

import random
from fractions import Fraction

import pytest

from futsbench.errors import (
    DuplicateConstantError,
    ParseError,
    UndefinedConstantError,
    UnguardedRecursionError,
)
from futsbench.syntax import (
    ActPrefix,
    Choice,
    Const,
    Coop,
    Model,
    Nil,
    Par,
    ProbPrefix,
    RatedPrefix,
    RatePrefix,
    TimePrefix,
    alphabet,
    check_guarded,
    children,
    map_children,
    parse_model,
    parse_term,
    pretty,
    term_key,
)
from futsbench.syntax import _naked_constants  # white-box: guardedness oracle

from modelgen import random_model, random_term

# ---------------------------------------------------------------------------
# Parsing the four languages
# ---------------------------------------------------------------------------


def test_parse_pepa_term():
    t = parse_term("(a, 3/2).nil + (b, 0.5).X <a,b> nil", "pepa")
    assert t == Coop(
        frozenset({"a", "b"}),
        Choice(
            RatedPrefix("a", Fraction(3, 2), Nil()),
            RatedPrefix("b", Fraction(1, 2), Const("X")),
        ),
        Nil(),
    )


def test_parse_pepa_empty_sync_set():
    for text in ("nil <> nil", "nil < > nil"):
        assert parse_term(text, "pepa") == Coop(frozenset(), Nil(), Nil())


def test_parse_iml_term():
    t = parse_term("a.nil + 3/2 . X |[a]| 2.nil", "iml")
    assert t == Par(
        frozenset({"a"}),
        Choice(ActPrefix("a", Nil()), RatePrefix(Fraction(3, 2), Const("X"))),
        RatePrefix(Fraction(2), Nil()),
    )


def test_parse_tpc_term():
    t = parse_term("(3).a.nil |[]| b.nil", "tpc")
    assert t == Par(
        frozenset(),
        TimePrefix(3, ActPrefix("a", Nil())),
        ActPrefix("b", Nil()),
    )
    assert parse_term("nil |[ ]| nil", "tpc") == Par(frozenset(), Nil(), Nil())


def test_parse_mal_term():
    t = parse_term("a.{1/3: nil [] 2/3: X} + 1/2 . nil", "mal")
    assert t == Choice(
        ProbPrefix(
            "a", ((Fraction(1, 3), Nil()), (Fraction(2, 3), Const("X")))
        ),
        RatePrefix(Fraction(1, 2), Nil()),
    )


def test_prefix_binds_tightest_and_ops_are_left_associative():
    t = parse_term("a.nil + b.nil + c.nil", "iml")
    assert t == Choice(
        Choice(ActPrefix("a", Nil()), ActPrefix("b", Nil())), ActPrefix("c", Nil())
    )
    t = parse_term("nil |[a]| nil |[b]| nil", "iml")
    assert t == Par(frozenset({"b"}), Par(frozenset({"a"}), Nil(), Nil()), Nil())
    # the composition operator is looser than choice
    t = parse_term("a.nil + b.nil |[a]| c.nil", "iml")
    assert isinstance(t, Par) and isinstance(t.left, Choice)
    # a prefix continuation is the next prefix, not the whole choice
    t = parse_term("a.b.nil + c.nil", "iml")
    assert t == Choice(ActPrefix("a", ActPrefix("b", Nil())), ActPrefix("c", Nil()))


def test_parse_parenthesised_groups():
    t = parse_term("a.(b.nil + c.nil)", "iml")
    assert t == ActPrefix("a", Choice(ActPrefix("b", Nil()), ActPrefix("c", Nil())))


def test_decimal_rates_become_exact_fractions():
    t = parse_term("(a, 0.25).nil", "pepa")
    assert t.rate == Fraction(1, 4)
    t = parse_term("0.1.nil", "iml")
    assert t == RatePrefix(Fraction(1, 10), Nil())


# ---------------------------------------------------------------------------
# Syntax errors
# ---------------------------------------------------------------------------


def expect_parse_error(text, lang, fragment):
    with pytest.raises(ParseError) as err:
        parse_term(text, lang)
    assert fragment in str(err.value)
    return err.value


def test_error_positions():
    err = expect_parse_error("a.nil + + b.nil", "iml", "expected a process term")
    assert err.line == 1 and err.col == 9


def test_language_specific_rejections():
    expect_parse_error("a.nil", "pepa", "(action, rate)")
    expect_parse_error("nil |[a]| nil", "pepa", "trailing input")
    expect_parse_error("(a, 1).nil", "iml", "expected")
    expect_parse_error("a.nil", "mal", "distribution")
    expect_parse_error("3.nil", "tpc", "not part of this language")
    expect_parse_error("nil <a> nil", "iml", "trailing input")


def test_rate_and_delay_validation():
    expect_parse_error("(a, 0).nil", "pepa", "must be positive")
    expect_parse_error("(a, 1/0).nil", "pepa", "denominator")
    expect_parse_error("(0).nil", "tpc", "at least 1")
    expect_parse_error("(1/2).nil", "tpc", "positive integer")
    expect_parse_error("A.nil", "iml", "lowercase")
    expect_parse_error("(A, 1).nil", "pepa", "lowercase")
    expect_parse_error("nil |[A]| nil", "iml", "action names")


def test_probability_validation():
    err = expect_parse_error("a.{1/2: nil [] 1/3: nil}", "mal", "probabilities sum to 5/6")
    assert err.line == 1
    expect_parse_error("a.{3/2: nil}", "mal", "at most 1")
    expect_parse_error("a.{0: nil [] 1: nil}", "mal", "must be positive")
    # a single certain branch is fine
    t = parse_term("a.{1: nil}", "mal")
    assert t == ProbPrefix("a", ((Fraction(1), Nil()),))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

GOOD_IML = """
-- a two-state toggle
X = a.Y
Y = X |[ ]| nil
init X
"""


def test_parse_model_file():
    model = parse_model(GOOD_IML, "iml")
    assert list(model.defs) == ["X", "Y"]
    assert model.init == Const("X")
    check_guarded(model)  # the naked reference to X sits under a.<...>


def test_model_file_errors():
    with pytest.raises(ParseError, match="empty"):
        parse_model("-- nothing here\n\n", "iml")
    with pytest.raises(ParseError, match="missing 'init'"):
        parse_model("X = a.nil\n", "iml")
    with pytest.raises(ParseError, match="duplicate 'init'"):
        parse_model("init nil\ninit nil\n", "iml")
    with pytest.raises(DuplicateConstantError, match="line 1 and line 2"):
        parse_model("X = a.nil\nX = b.nil\ninit X\n", "iml")
    with pytest.raises(UndefinedConstantError, match="'Y'"):
        parse_model("X = a.Y\ninit X\n", "iml")
    with pytest.raises(ParseError, match="expected a definition"):
        parse_model("x = a.nil\ninit nil\n", "iml")


def test_unguarded_recursion_detection():
    bad = parse_model("X = X + a.nil\ninit X\n", "iml")
    with pytest.raises(UnguardedRecursionError, match="X -> X"):
        check_guarded(bad)
    mutual = parse_model("X = Y\nY = X |[]| nil\ninit X\n", "iml")
    with pytest.raises(UnguardedRecursionError, match="X -> Y -> X"):
        check_guarded(mutual)
    # recursion through a prefix is fine, even for delays
    ok = parse_model("X = (1).X\ninit X\n", "tpc")
    check_guarded(ok)


def test_alphabet_includes_sync_sets():
    model = parse_model("X = a.nil |[b]| nil\ninit X\n", "iml")
    assert alphabet(model) == ["a", "b"]
    model = parse_model("init a.{1: nil} |[c]| 2.nil\n", "mal")
    assert alphabet(model) == ["a", "c"]


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def test_term_key_examples():
    t = parse_term("a.nil + b.nil", "iml")
    assert term_key(t) == "(a.nil + b.nil)"
    t = parse_term("(a, 3/2).nil <b,a> nil", "pepa")
    assert term_key(t) == "((a, 3/2).nil <a,b> nil)"
    t = parse_term("a.{1/2: nil [] 1/2: X}", "mal")
    assert term_key(t) == "a.{1/2: nil [] 1/2: X}"
    t = parse_term("(2).nil |[]| nil", "tpc")
    assert term_key(t) == "((2).nil |[]| nil)"


def test_sync_set_order_is_normalised():
    t1 = parse_term("nil <a,b> nil", "pepa")
    t2 = parse_term("nil <b, a> nil", "pepa")
    assert t1 == t2
    assert term_key(t1) == term_key(t2)


# one term of each of the ten forms, with children where the form has them
EVERY_FORM = [
    Nil(),
    Const("X"),
    RatedPrefix("a", Fraction(3, 2), Const("X")),
    ActPrefix("a", Const("X")),
    RatePrefix(Fraction(2), Const("X")),
    TimePrefix(3, Const("X")),
    ProbPrefix("a", ((Fraction(1, 3), Const("X")), (Fraction(2, 3), Nil()))),
    Choice(Const("X"), Nil()),
    Coop(frozenset({"a", "b"}), Const("X"), Nil()),
    Par(frozenset({"a"}), Const("X"), Nil()),
]


@pytest.mark.parametrize("term", EVERY_FORM, ids=lambda t: type(t).__name__)
def test_map_children_rebuilds_each_form(term):
    assert map_children(term, lambda c: c) == term
    mapped = map_children(term, lambda c: Const("Z"))
    assert type(mapped) is type(term)
    assert children(mapped) == tuple(Const("Z") for _ in children(term))
    assert map_children(mapped, lambda c: c) == mapped


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_term_key_round_trips(lang):
    rng = random.Random(hash(lang) & 0xFFFF)
    for _ in range(250):
        t = random_term(rng, lang, n_consts=3, cur_index=3, depth=3)
        key = term_key(t)
        assert parse_term(key, lang) == t, key
        # keys are stable
        assert term_key(parse_term(key, lang)) == key


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_pretty_round_trips(lang):
    rng = random.Random(hash(lang) & 0xFFF)
    for _ in range(250):
        t = random_term(rng, lang, n_consts=3, cur_index=3, depth=3)
        assert parse_term(pretty(t), lang) == t, pretty(t)


def test_pretty_minimises_parentheses():
    t = parse_term("a.nil + b.nil + c.nil", "iml")
    assert pretty(t) == "a.nil + b.nil + c.nil"
    t = parse_term("a.(b.nil + c.nil)", "iml")
    assert pretty(t) == "a.(b.nil + c.nil)"
    t = parse_term("(a.nil + b.nil) |[a]| nil", "iml")
    assert pretty(t) == "a.nil + b.nil |[a]| nil"
    t = parse_term("nil |[a]| (nil |[b]| nil)", "iml")
    assert pretty(t) == "nil |[a]| (nil |[b]| nil)"


# ---------------------------------------------------------------------------
# Guardedness: cross-check against a bounded-unfolding oracle
# ---------------------------------------------------------------------------


def _substitute_naked(term, defs):
    """Replace every unprotected constant by its body, once."""
    if isinstance(term, Const):
        return defs[term.name]
    if isinstance(term, Choice):
        return Choice(_substitute_naked(term.left, defs), _substitute_naked(term.right, defs))
    if isinstance(term, Coop):
        return Coop(
            term.actions,
            _substitute_naked(term.left, defs),
            _substitute_naked(term.right, defs),
        )
    if isinstance(term, Par):
        return Par(
            term.actions,
            _substitute_naked(term.left, defs),
            _substitute_naked(term.right, defs),
        )
    return term


def _guarded_by_unfolding(model):
    """Oracle: a model is guarded iff repeatedly expanding unprotected

    constants reaches a term with none left within #definitions steps.
    """
    for body in list(model.defs.values()) + [model.init]:
        term = body
        for _ in range(len(model.defs) + 1):
            if not any(True for _ in _naked_constants(term)):
                break
            term = _substitute_naked(term, model.defs)
        else:
            return False
    return True


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_check_guarded_matches_unfolding_oracle(lang):
    rng = random.Random(4242)
    accepted = 0
    for _ in range(150):
        model = random_model(rng, lang)
        check_guarded(model)  # generated models are guarded by construction
        assert _guarded_by_unfolding(model)
        accepted += 1
    assert accepted == 150
    # and the oracle agrees on rejections
    bad = parse_model("X = Y + a.nil\nY = b.nil + X\ninit X\n", "iml")
    assert not _guarded_by_unfolding(bad)
    with pytest.raises(UnguardedRecursionError):
        check_guarded(bad)
