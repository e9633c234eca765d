"""Unit tests for parsing, printing, and static checks."""

import random
from fractions import Fraction

import pytest

from futsbench.errors import (
    DelayCycleError,
    DuplicateConstantError,
    ExplorationLimitError,
    ParseError,
    UndefinedConstantError,
    UnguardedRecursionError,
)
from futsbench.explore import explore
from futsbench.sem_futs import futs_step, relation_specs, tpc_max_delay
from futsbench.sem_oracle import (
    OracleTerms,
    action_distributions,
    delay_derivations,
    interactive_transitions,
    pepa_apparent_rate,
    pepa_transitions,
    timed_transitions,
)
from futsbench.syntax import (
    ActPrefix,
    Choice,
    Const,
    Coop,
    LANGUAGES,
    Model,
    Nil,
    Par,
    STEP_FORMS,
    ProbPrefix,
    RatedPrefix,
    RatePrefix,
    TimePrefix,
    alphabet,
    check_guarded,
    children,
    evaluate,
    map_children,
    parse_model,
    parse_term,
    pretty,
    term_key,
)

from modelgen import bodies, model_text, random_model, random_model_terms, random_term, tree


def parsed(text, lang):
    """``text`` parsed into a model that defines ``X`` and ``X0``-``X2``, as a node."""
    model = parse_model("X = nil\nX0 = nil\nX1 = nil\nX2 = nil\ninit nil\n", lang)
    return tree(model, parse_term(text, model))


# ---------------------------------------------------------------------------
# Parsing the four languages
# ---------------------------------------------------------------------------


def test_parse_pepa_term():
    t = parsed("(a, 3/2).nil + (b, 0.5).X <a,b> nil", "pepa")
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
        assert parsed(text, "pepa") == Coop(frozenset(), Nil(), Nil())


def test_parse_iml_term():
    t = parsed("a.nil + 3/2 . X |[a]| 2.nil", "iml")
    assert t == Par(
        frozenset({"a"}),
        Choice(ActPrefix("a", Nil()), RatePrefix(Fraction(3, 2), Const("X"))),
        RatePrefix(Fraction(2), Nil()),
    )


def test_parse_tpc_term():
    t = parsed("(3).a.nil |[]| b.nil", "tpc")
    assert t == Par(
        frozenset(),
        TimePrefix(3, ActPrefix("a", Nil())),
        ActPrefix("b", Nil()),
    )
    assert parsed("nil |[ ]| nil", "tpc") == Par(frozenset(), Nil(), Nil())


def test_parse_mal_term():
    t = parsed("a.{1/3: nil [] 2/3: X} + 1/2 . nil", "mal")
    assert t == Choice(
        ProbPrefix(
            "a", ((Fraction(1, 3), Nil()), (Fraction(2, 3), Const("X")))
        ),
        RatePrefix(Fraction(1, 2), Nil()),
    )


def test_prefix_binds_tightest_and_ops_are_left_associative():
    t = parsed("a.nil + b.nil + c.nil", "iml")
    assert t == Choice(
        Choice(ActPrefix("a", Nil()), ActPrefix("b", Nil())), ActPrefix("c", Nil())
    )
    t = parsed("nil |[a]| nil |[b]| nil", "iml")
    assert t == Par(frozenset({"b"}), Par(frozenset({"a"}), Nil(), Nil()), Nil())
    # the composition operator is looser than choice
    t = parsed("a.nil + b.nil |[a]| c.nil", "iml")
    assert isinstance(t, Par) and isinstance(t.left, Choice)
    # a prefix continuation is the next prefix, not the whole choice
    t = parsed("a.b.nil + c.nil", "iml")
    assert t == Choice(ActPrefix("a", ActPrefix("b", Nil())), ActPrefix("c", Nil()))


def test_parse_parenthesised_groups():
    t = parsed("a.(b.nil + c.nil)", "iml")
    assert t == ActPrefix("a", Choice(ActPrefix("b", Nil()), ActPrefix("c", Nil())))


def test_decimal_rates_become_exact_fractions():
    t = parsed("(a, 0.25).nil", "pepa")
    assert t.rate == Fraction(1, 4)
    t = parsed("0.1.nil", "iml")
    assert t == RatePrefix(Fraction(1, 10), Nil())


# ---------------------------------------------------------------------------
# Syntax errors
# ---------------------------------------------------------------------------


def expect_parse_error(text, lang, fragment):
    with pytest.raises(ParseError) as err:
        parsed(text, lang)
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
    t = parsed("a.{1: nil}", "mal")
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
    assert tree(model, model.init) == Const("X")
    assert model.shape(model.defs["Y"]) == Par(frozenset(), model.init, model.intern(Nil))
    check_guarded(model)  # the naked reference to X sits under a.<...>


# ---------------------------------------------------------------------------
# The term table
# ---------------------------------------------------------------------------


def test_interning_a_known_term_builds_no_node(monkeypatch):
    model = parse_model("init (a, 2).nil + (b, 1).nil\n", "pepa")
    nil = model.intern(Nil)
    prefix = model.intern(RatedPrefix, "a", 2, nil)
    shape = model.shape(prefix)
    size = len(model.registry)
    built = []
    init = RatedPrefix.__init__

    def counted(self, *fields):
        built.append(fields)
        init(self, *fields)

    monkeypatch.setattr(RatedPrefix, "__init__", counted)
    assert model.intern(RatedPrefix, "a", 2, nil) == prefix
    assert model.shape(prefix) is shape
    assert built == [] and len(model.registry) == size
    # a new term is built once, and stored under the next id
    assert model.intern(RatedPrefix, "c", 3, nil) == size
    assert built == [("c", 3, nil)] and model.shape(size) == RatedPrefix("c", 3, nil)


def test_the_form_is_part_of_a_terms_key():
    model = Model("iml")
    nil = model.intern(Nil)
    model.intern(Const, "X")  # id 1, so that Choice(1, nil) names two terms
    ids = [model.intern(form, 1, nil) for form in (RatePrefix, TimePrefix, Choice)]
    assert len(set(ids)) == 3
    assert [type(model.shape(i)) for i in ids] == [RatePrefix, TimePrefix, Choice]


def test_equal_rates_intern_to_one_term():
    model = Model("iml")
    nil = model.intern(Nil)
    two = model.intern(RatePrefix, 2, nil)
    assert model.intern(RatePrefix, Fraction(2), nil) == two
    assert model.intern(RatePrefix, Fraction(4, 2), nil) == two
    assert type(model.shape(two).rate) is int  # the first one interned is kept
    assert model.intern(RatePrefix, Fraction(1, 2), nil) != two


@pytest.mark.parametrize("lang", LANGUAGES)
def test_each_stored_term_interns_to_its_own_id(lang):
    # over the parsed terms and the targets that exploring adds, a stored
    # node's form and fields lead back to its id, and add nothing
    rng = random.Random(f"reintern-{lang}")
    for _ in range(40):
        model = random_model(rng, lang)
        try:
            explore(model, max_states=200)
        except ExplorationLimitError:
            pass
        size = len(model.registry)
        for term_id in range(size):
            shape = model.shape(term_id)
            assert model.intern(type(shape), *vars(shape).values()) == term_id
        assert len(model.registry) == size


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
    with pytest.raises(UnguardedRecursionError, match="X -> X"):
        parse_model("X = X + a.nil\ninit X\n", "iml")
    with pytest.raises(UnguardedRecursionError, match="X -> Y -> X"):
        parse_model("X = Y\nY = X |[]| nil\ninit X\n", "iml")
    # recursion through a prefix is fine, except through delays only in tpc
    parse_model("X = 1.X\ninit X\n", "iml")
    parse_model("Y = 1 . Y\ninit Y\n", "mal")
    parse_model("X = (1).a.X\ninit X\n", "tpc")
    with pytest.raises(DelayCycleError, match="X -> X"):
        parse_model("X = (1).X\ninit X\n", "tpc")
    # every constant is checked, whether or not init reaches it
    with pytest.raises(DelayCycleError, match="X -> X"):
        parse_model("X = (1).X\ninit a.nil\n", "tpc")
    with pytest.raises(UnguardedRecursionError, match="X -> X"):
        parse_model("X = X\ninit a.nil\n", "tpc")


def test_alphabet_includes_sync_sets():
    model = parse_model("X = a.nil |[b]| nil\ninit X\n", "iml")
    assert alphabet(model) == ["a", "b"]
    model = parse_model("init a.{1: nil} |[c]| 2.nil\n", "mal")
    assert alphabet(model) == ["a", "c"]


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def test_term_key_examples():
    t = parsed("a.nil + b.nil", "iml")
    assert term_key(t) == "(a.nil + b.nil)"
    t = parsed("(a, 3/2).nil <b,a> nil", "pepa")
    assert term_key(t) == "((a, 3/2).nil <a,b> nil)"
    t = parsed("a.{1/2: nil [] 1/2: X}", "mal")
    assert term_key(t) == "a.{1/2: nil [] 1/2: X}"
    t = parsed("(2).nil |[]| nil", "tpc")
    assert term_key(t) == "((2).nil |[]| nil)"


def test_sync_set_order_is_normalised():
    t1 = parsed("nil <a,b> nil", "pepa")
    t2 = parsed("nil <b, a> nil", "pepa")
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
        assert parsed(key, lang) == t, key
        # keys are stable
        assert term_key(parsed(key, lang)) == key


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_pretty_round_trips(lang):
    rng = random.Random(hash(lang) & 0xFFF)
    for _ in range(250):
        t = random_term(rng, lang, n_consts=3, cur_index=3, depth=3)
        assert parsed(pretty(t), lang) == t, pretty(t)


def test_pretty_minimises_parentheses():
    t = parsed("a.nil + b.nil + c.nil", "iml")
    assert pretty(t) == "a.nil + b.nil + c.nil"
    t = parsed("a.(b.nil + c.nil)", "iml")
    assert pretty(t) == "a.(b.nil + c.nil)"
    t = parsed("(a.nil + b.nil) |[a]| nil", "iml")
    assert pretty(t) == "a.nil + b.nil |[a]| nil"
    t = parsed("nil |[a]| (nil |[b]| nil)", "iml")
    assert pretty(t) == "nil |[a]| (nil |[b]| nil)"


DEEP = 3000


@pytest.mark.parametrize(
    "source, text, readable",
    [
        ("a." * DEEP + "nil", "a." * DEEP + "nil", "a." * DEEP + "nil"),
        (
            " + ".join(["a.nil"] * DEEP),
            "(" * (DEEP - 1) + "a.nil" + " + a.nil)" * (DEEP - 1),
            " + ".join(["a.nil"] * DEEP),
        ),
    ],
    ids=["prefix", "choice"],
)
def test_table_texts_of_deep_terms_render_without_recursion(source, text, readable):
    model = parse_model(f"init {source}\n", "iml")
    assert model.text(model.init) == text
    assert model.pretty(model.init) == readable


def test_table_pretty_brackets_a_subterm_by_its_slot():
    model = parse_model("X = nil\ninit a.(b.nil + X) + (nil |[a]| (X |[b]| nil))\n", "iml")
    term = tree(model, model.init)
    assert model.pretty(model.init) == pretty(term) == "a.(b.nil + X) + (nil |[a]| (X |[b]| nil))"
    assert model.text(model.init) == term_key(term)


# ---------------------------------------------------------------------------
# The children-first evaluator
# ---------------------------------------------------------------------------


def _size(shape, size_of):
    """A term's size, counting each operand of a choice or composition."""
    if isinstance(shape, STEP_FORMS):
        return 1 + size_of(shape.left) + size_of(shape.right)
    return 1


def _traced(model, rule):
    """``model``'s shape read and ``rule``, each recording what it is given."""
    reads, ruled = [], []

    def shape_of(term_id):
        reads.append(term_id)
        return model.shape(term_id)

    def traced_rule(shape, result_of):
        ruled.append(shape)
        return rule(shape, result_of)

    return shape_of, traced_rule, reads, ruled


def test_evaluate_puts_a_shared_subterm_through_the_rule_once_per_memo():
    shared = "(a.nil + b.nil) |[]| (a.nil + b.nil)"
    model = parse_model(f"init ({shared}) + ({shared})\n", "iml")
    shape_of, rule, _, ruled = _traced(model, _size)
    memo = {}
    assert evaluate(model.init, shape_of, model.defs, STEP_FORMS, memo, rule) == 15
    # the composition, the choice, a.nil and b.nil each go through the rule
    # once, however many parents share them, and then the root
    root = model.shape(model.init)
    assert ruled[-1] == root
    assert len(ruled[:-1]) == len(set(ruled[:-1])) == len(memo) == 4
    # with the same memo, only the root goes through the rule
    assert evaluate(model.init, shape_of, model.defs, STEP_FORMS, memo, rule) == 15
    assert ruled[5:] == [root]
    # a fresh memo walks every subterm again
    assert evaluate(model.init, shape_of, model.defs, STEP_FORMS, {}, rule) == 15
    assert len(ruled) == 11


def test_evaluate_returns_the_root_without_keeping_it():
    model = parse_model("init a.nil + b.nil\n", "iml")
    memo = {}
    assert evaluate(model.init, model.shape, model.defs, STEP_FORMS, memo, _size) == 3
    choice = model.shape(model.init)
    assert memo == {choice.left: 1, choice.right: 1}


def test_evaluate_keeps_a_constant_under_its_own_id_not_its_body():
    model = parse_model("X = a.nil + b.nil\ninit X |[]| c.nil\n", "iml")
    shape_of, rule, _, ruled = _traced(model, _size)
    memo = {}
    assert evaluate(model.init, shape_of, model.defs, STEP_FORMS, memo, rule) == 5
    x = parse_term("X", model)
    assert x in memo and model.defs["X"] not in memo
    assert memo[x] == 3
    assert not any(isinstance(shape, Const) for shape in ruled)
    # a constant at the root is read as its body too, and kept nowhere
    fresh = {}
    assert evaluate(x, shape_of, model.defs, STEP_FORMS, fresh, rule) == 3
    assert x not in fresh and model.defs["X"] not in fresh


def test_evaluate_takes_one_level_when_every_successor_is_kept():
    model = parse_model("init a.nil + (b.nil + c.nil)\n", "iml")
    choice = model.shape(model.init)
    shape_of, rule, reads, ruled = _traced(model, _size)
    # the kept results stand for the operands, whose shapes are never read
    memo = {choice.left: 10, choice.right: 20}
    assert evaluate(model.init, shape_of, model.defs, STEP_FORMS, memo, rule) == 31
    assert reads == [model.init]
    assert ruled == [choice]


# ---------------------------------------------------------------------------
# Guardedness: cross-check against a bounded-unfolding oracle
# ---------------------------------------------------------------------------


def _substitute_naked(term, defs, through_delays):
    """Replace every unprotected constant by its body, once."""
    if isinstance(term, Const):
        return defs[term.name]
    if isinstance(term, Choice):
        return Choice(
            _substitute_naked(term.left, defs, through_delays),
            _substitute_naked(term.right, defs, through_delays),
        )
    if isinstance(term, Coop):
        return Coop(
            term.actions,
            _substitute_naked(term.left, defs, through_delays),
            _substitute_naked(term.right, defs, through_delays),
        )
    if isinstance(term, Par):
        return Par(
            term.actions,
            _substitute_naked(term.left, defs, through_delays),
            _substitute_naked(term.right, defs, through_delays),
        )
    if through_delays and isinstance(term, TimePrefix):
        return TimePrefix(term.delay, _substitute_naked(term.cont, defs, through_delays))
    return term


def _has_naked_constant(term, through_delays):
    if isinstance(term, Const):
        return True
    through = (Choice, Coop, Par, TimePrefix) if through_delays else (Choice, Coop, Par)
    return isinstance(term, through) and any(
        _has_naked_constant(kid, through_delays) for kid in children(term)
    )


def _guarded_by_unfolding(defs, init, through_delays=False):
    """Oracle: definitions ``defs`` and initial term ``init`` (trees) are

    guarded iff repeatedly expanding unprotected constants reaches a term
    with none left within #definitions steps.  With ``through_delays``,
    as the timed walkers of ``tpc`` do, a delay prefix protects nothing.
    """
    for body in [*defs.values(), init]:
        for _ in range(len(defs) + 1):
            if not _has_naked_constant(body, through_delays):
                break
            body = _substitute_naked(body, defs, through_delays)
        else:
            return False
    return True


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_check_guarded_matches_unfolding_oracle(lang):
    rng = random.Random(4242)
    for _ in range(150):
        model = random_model(rng, lang)
        check_guarded(model)  # generated models are guarded by construction
        assert _guarded_by_unfolding(bodies(model), tree(model, model.init), lang == "tpc")
    # and the oracle agrees on rejections; the parser refuses these models,
    # so the oracle reads them as trees
    mutual = {
        "X": Choice(Const("Y"), ActPrefix("a", Nil())),
        "Y": Choice(ActPrefix("b", Nil()), Const("X")),
    }
    assert not _guarded_by_unfolding(mutual, Const("X"))
    with pytest.raises(UnguardedRecursionError):
        parse_model(model_text(mutual, Const("X")), "iml")
    delays = {"X": Par(frozenset(), TimePrefix(1, Const("X")), ActPrefix("a", Nil()))}
    assert _guarded_by_unfolding(delays, Const("X"))
    assert not _guarded_by_unfolding(delays, Const("X"), through_delays=True)
    with pytest.raises(DelayCycleError):
        parse_model(model_text(delays, Const("X")), "tpc")


# ---------------------------------------------------------------------------
# Guardedness is what lets every walker unfold a constant without a check
# ---------------------------------------------------------------------------

_ORACLE_PER_ACTION = {
    "pepa": (pepa_apparent_rate, pepa_transitions),
    "iml": (interactive_transitions,),
    "tpc": (interactive_transitions,),
    "mal": (action_distributions,),
}
_ORACLE_PER_TERM = {
    "pepa": (),
    "iml": (delay_derivations,),
    "tpc": (timed_transitions,),
    "mal": (delay_derivations,),
}


def _beside_a_subterm(rng, term, ref, compose):
    """``term`` with one subterm ``s``, chosen at random, replaced by ``compose(s, ref)``."""
    kids = children(term)
    if not kids or rng.random() < 0.4:
        return compose(term, ref)
    chosen = rng.randrange(len(kids))
    position = iter(range(len(kids)))
    return map_children(
        term,
        lambda kid: _beside_a_subterm(rng, kid, ref, compose)
        if next(position) == chosen
        else kid,
    )


def _walk_everything(model):
    """Every walker of both semantics, from every definition body and from
    init, and the text of every oracle target."""
    actions = alphabet(model)
    for term_id in [*model.defs.values(), model.init]:
        for spec in relation_specs(model.lang):
            futs_step(model, term_id, spec.name)
        if model.lang == "tpc":
            tpc_max_delay(model, term_id)
        table = OracleTerms(model)
        oracle_id = table.of_model(term_id)
        results = [
            walk(table, oracle_id, action)
            for walk in _ORACLE_PER_ACTION[model.lang]
            for action in actions
        ]
        results += [walk(table, oracle_id) for walk in _ORACLE_PER_TERM[model.lang]]
        for target in _oracle_targets(results):
            assert table.text(target)


def _oracle_targets(results):
    """The target ids in the oracle walkers' results: apparent rates hold
    none, a set of targets holds ids, a distribution (target, mass) pairs,
    and a derivation (weight, target) pairs."""
    for result in results:
        if isinstance(result, (int, Fraction)):
            continue
        for item in result:
            if isinstance(item, int):
                yield item
            elif isinstance(item, frozenset):
                yield from (target for target, _ in item)
            else:
                yield item[1]


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_every_walker_ends_on_every_model_the_parser_accepts(lang):
    # a reference that a walker steps through is put beside a random
    # subterm of a random body of a guarded model; the parser's verdict
    # must match the unfolding oracle's, and on every model it accepts
    # every walker must end, since none of them detects cycles
    rng = random.Random(f"mutated-{lang}")
    verdicts = {"accepted": 0, "unguarded": 0, "delay cycle": 0}
    for _ in range(400):
        defs, init = random_model_terms(rng, lang)
        ref = Const(rng.choice(sorted(defs)))
        if lang == "tpc" and rng.random() < 0.5:
            ref = TimePrefix(rng.randint(1, 3), ref)
        cls = Coop if lang == "pepa" else Par
        compose = rng.choice([Choice, lambda s, r: cls(frozenset(), s, r)])
        name = rng.choice(sorted(defs))
        defs[name] = _beside_a_subterm(rng, defs[name], ref, compose)
        guarded = _guarded_by_unfolding(defs, init)
        timed_guarded = _guarded_by_unfolding(defs, init, through_delays=lang == "tpc")
        try:
            model = parse_model(model_text(defs, init), lang)
        except UnguardedRecursionError:
            assert not guarded
            verdicts["unguarded"] += 1
            continue
        except DelayCycleError:
            assert guarded and not timed_guarded
            verdicts["delay cycle"] += 1
            continue
        assert timed_guarded
        verdicts["accepted"] += 1
        _walk_everything(model)
    assert verdicts["accepted"] and verdicts["unguarded"]
    assert bool(verdicts["delay cycle"]) == (lang == "tpc")
