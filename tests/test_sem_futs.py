"""Unit tests for the state-to-function semantics.

Expected functions in this file are computed by hand from the step
rules on tiny terms; the systematic cross-check against the classical
transition-relation semantics lives in the acceptance suite.
"""

from fractions import Fraction

import pytest

from futsbench.errors import DelayCycleError, UnguardedRecursionError
from futsbench.explore import explore
from futsbench.fsfun import ff_make, ff_oplus, ff_zero
from futsbench.sem_futs import futs_step, relation_labels, relation_specs, tpc_max_delay
from futsbench.syntax import Model, children, parse_model, parse_term, term_key

from idtext import fn_text, step_text
from modelgen import build_corpus, fresh_copy


def step_of(text: str, lang: str, relation: str, label: str, defs: str = ""):
    model = parse_model(defs + f"init {text}\n", lang)
    return model, step_text(model, model.init, relation, label)


# ---------------------------------------------------------------------------
# Relation shapes
# ---------------------------------------------------------------------------


def test_relation_specs():
    assert [s.name for s in relation_specs("pepa")] == ["act"]
    assert [s.name for s in relation_specs("iml")] == ["act", "delay"]
    assert [s.name for s in relation_specs("tpc")] == ["act", "tick"]
    assert [s.name for s in relation_specs("mal")] == ["act", "delay"]
    assert [(s.kind, s.tag) for s in relation_specs("mal")] == [
        ("nested", "BOOL"),
        ("simple", "NNRAT"),
    ]
    model = parse_model("init a.nil |[b]| nil\n", "iml")
    act, delay = relation_specs("iml")
    assert relation_labels(act, model) == ("a", "b")
    assert relation_labels(delay, model) == ("delta",)


# ---------------------------------------------------------------------------
# pepa
# ---------------------------------------------------------------------------


def test_pepa_prefix_and_choice():
    _, fn = step_of("(a, 3/2).nil", "pepa", "act", "a")
    assert fn == ff_make("NNRAT", [("nil", Fraction("3/2"))])
    _, fn = step_of("(a, 3/2).nil", "pepa", "act", "b")
    assert fn == ff_zero("NNRAT")
    _, fn = step_of("(a, 1).nil + (a, 1).nil", "pepa", "act", "a")
    assert fn == ff_make("NNRAT", [("nil", Fraction(2))])


def test_pepa_constant_unfolding():
    ctx, fn = step_of("X", "pepa", "act", "a", defs="X = (a, 2).X\n")
    assert fn == ff_make("NNRAT", [("X", Fraction(2))])


def test_pepa_sync_takes_the_slower_rate():
    _, fn = step_of("(a, 2).nil <a> (a, 3).nil", "pepa", "act", "a")
    assert [key for key, _ in fn.entries] == ["(nil <a> nil)"]
    assert dict(fn.entries)["(nil <a> nil)"] == Fraction(2)


def test_pepa_sync_splits_proportionally():
    # left side splits 2:1 between two continuations, total 3;
    # right side total 1; joint total must be min(3, 1) = 1
    text = "((a, 2).nil + (a, 1).X) <a> (a, 1).nil"
    ctx, fn = step_of(text, "pepa", "act", "a", defs="X = (a, 1).X\n")
    assert dict(fn.entries)["(nil <a> nil)"] == Fraction("2/3")
    assert dict(fn.entries)["(X <a> nil)"] == Fraction("1/3")
    assert ff_oplus(fn) == Fraction(1)


def test_pepa_sync_with_a_stuck_side_is_zero():
    _, fn = step_of("(a, 2).nil <a> nil", "pepa", "act", "a")
    assert fn == ff_zero("NNRAT")


def test_pepa_interleaving():
    _, fn = step_of("(a, 2).nil <> (a, 3).nil", "pepa", "act", "a")
    assert dict(fn.entries)["(nil <> (a, 3).nil)"] == Fraction(2)
    assert dict(fn.entries)["((a, 2).nil <> nil)"] == Fraction(3)
    assert ff_oplus(fn) == Fraction(5)
    # both operands step onto the same composite term: the rates add up
    _, fn = step_of("P <> P", "pepa", "act", "a", defs="P = (a, 1).P\n")
    assert fn == ff_make("NNRAT", [("(P <> P)", Fraction(2))])


# ---------------------------------------------------------------------------
# iml
# ---------------------------------------------------------------------------


def test_iml_action_relation():
    _, fn = step_of("a.nil + a.X", "iml", "act", "a", defs="X = a.X\n")
    assert fn == ff_make("BOOL", [("nil", True), ("X", True)])
    _, fn = step_of("1/2 . nil", "iml", "act", "a")
    assert fn == ff_zero("BOOL")


def test_iml_delay_relation_adds_rates():
    _, fn = step_of("1/2 . nil + 1/3 . nil", "iml", "delay", "delta")
    assert fn == ff_make("NNRAT", [("nil", Fraction("5/6"))])
    _, fn = step_of("a.nil", "iml", "delay", "delta")
    assert fn == ff_zero("NNRAT")


def test_iml_sync_requires_both_sides():
    _, fn = step_of("a.nil |[a]| a.X", "iml", "act", "a", defs="X = a.X\n")
    assert fn == ff_make("BOOL", [("(nil |[a]| X)", True)])
    _, fn = step_of("a.nil |[a]| b.nil", "iml", "act", "a")
    assert fn == ff_zero("BOOL")


def test_iml_interleaving_action_and_delay():
    _, fn = step_of("a.nil |[]| a.nil", "iml", "act", "a")
    assert [key for key, _ in fn.entries] == ["(a.nil |[]| nil)", "(nil |[]| a.nil)"]
    assert dict(fn.entries)["(a.nil |[]| nil)"] is True
    _, fn = step_of("X |[]| X", "iml", "act", "a", defs="X = a.X\n")
    assert fn == ff_make("BOOL", [("(X |[]| X)", True)])
    _, fn = step_of("1.nil |[a]| 2.nil", "iml", "delay", "delta")
    assert dict(fn.entries)["(nil |[a]| 2 . nil)"] == Fraction(1)
    assert dict(fn.entries)["(1 . nil |[a]| nil)"] == Fraction(2)


def test_iml_delay_ignores_sync_set():
    # delays interleave even when the composition synchronises actions
    _, fn = step_of("1.nil |[a]| 1.nil", "iml", "delay", "delta")
    assert ff_oplus(fn) == Fraction(2)
    _, fn = step_of("Y |[a]| Y", "iml", "delay", "delta", defs="Y = 1 . Y\n")
    assert fn == ff_make("NNRAT", [("(Y |[a]| Y)", Fraction(2))])


# ---------------------------------------------------------------------------
# tpc
# ---------------------------------------------------------------------------


def test_tpc_action_relation_stops_at_delays():
    _, fn = step_of("(2).a.nil", "tpc", "act", "a")
    assert fn == ff_zero("BOOL")
    _, fn = step_of("a.(2).nil", "tpc", "act", "a")
    assert fn == ff_make("BOOL", [("(2).nil", True)])


def test_tpc_tick_of_a_time_prefix():
    _, fn = step_of("(2).a.nil", "tpc", "tick", "tick")
    assert fn == ff_make(
        "NATSET",
        [("(1).a.nil", frozenset({1})), ("a.nil", frozenset({2}))],
    )


def test_tpc_tick_unrolls_through_the_continuation():
    # letting time pass through (1).(2).P behaves like (3).P
    _, fn = step_of("(1).(2).nil", "tpc", "tick", "tick")
    assert fn == ff_make(
        "NATSET",
        [
            ("(2).nil", frozenset({1})),
            ("(1).nil", frozenset({2})),
            ("nil", frozenset({3})),
        ],
    )
    _, direct = step_of("(3).nil", "tpc", "tick", "tick")
    assert {k: v for k, v in fn.entries} == {k: v for k, v in direct.entries}


def test_tpc_tick_of_choice_synchronises_time():
    _, fn = step_of("(2).nil + (3).nil", "tpc", "tick", "tick")
    assert fn == ff_make(
        "NATSET",
        [
            ("((1).nil + (2).nil)", frozenset({1})),
            ("(nil + (1).nil)", frozenset({2})),
        ],
    )


def test_tpc_tick_of_composition_synchronises_time():
    _, fn = step_of("(2).nil |[a]| (2).nil", "tpc", "tick", "tick")
    assert fn == ff_make(
        "NATSET",
        [
            ("((1).nil |[a]| (1).nil)", frozenset({1})),
            ("(nil |[a]| nil)", frozenset({2})),
        ],
    )
    # a side that cannot let time pass blocks the whole composition
    _, fn = step_of("(2).nil |[]| a.nil", "tpc", "tick", "tick")
    assert fn == ff_zero("NATSET")


def test_tpc_delay_only_recursion_is_reported():
    # the tick step of X would be infinite, so the parser refuses the model
    with pytest.raises(DelayCycleError, match="X -> X"):
        parse_model("X = (1).X\ninit X\n", "tpc")
    with pytest.raises(DelayCycleError, match="X -> Y -> X"):
        parse_model("X = (1).Y + (2).nil\nY = (1).nil |[]| (2).X\ninit X\n", "tpc")
    # recursion through an action prefix is fine
    model = parse_model("X = (1).a.X\ninit X\n", "tpc")
    fn = step_text(model, model.init, "tick", "tick")
    assert fn == ff_make("NATSET", [("a.X", frozenset({1}))])
    assert tpc_max_delay(model, model.init) == 1


def test_tpc_max_delay():
    model = parse_model("X = (2).a.(3).nil\ninit X + (1).nil\n", "tpc")
    xid = parse_term("X", model)
    assert tpc_max_delay(model, xid) == 2
    assert tpc_max_delay(model, model.init) == 1
    assert tpc_max_delay(model, parse_term("nil", model)) == 0


def test_tpc_tick_amounts_descend_by_the_time_spent():
    model = parse_model("X = (2).a.X\ninit (1).X + (3).nil |[]| (2).nil\n", "tpc")
    seen = [model.init]
    for term_id in seen:
        fn = futs_step(model, term_id, "tick", "tick")
        base = tpc_max_delay(model, term_id)
        for target, value in fn.entries:
            assert len(value) == 1  # tick amounts are unique per target
            (amount,) = value
            assert tpc_max_delay(model, target) == base - amount
            if target not in seen:
                seen.append(target)


# ---------------------------------------------------------------------------
# mal
# ---------------------------------------------------------------------------


def inner_keys(fn):
    return sorted(fn_text(k) for k, _ in fn.entries)


def test_mal_action_gives_a_distribution():
    _, fn = step_of("a.{1/2: nil [] 1/2: X}", "mal", "act", "a", defs="X = 1.X\n")
    assert inner_keys(fn) == ["[X -> 1/2, nil -> 1/2]"]
    _, fn = step_of("a.{1/2: nil [] 1/2: nil}", "mal", "act", "a")
    assert inner_keys(fn) == ["[nil -> 1/1]"]
    _, fn = step_of("a.{1: nil}", "mal", "act", "b")
    assert fn == ff_zero("BOOL")


def test_mal_choice_collects_distributions():
    _, fn = step_of("a.{1: nil} + a.{1/2: nil [] 1/2: X}", "mal", "act", "a", defs="X = 1.X\n")
    assert inner_keys(fn) == ["[X -> 1/2, nil -> 1/2]", "[nil -> 1/1]"]
    # equal distributions from both branches collapse
    _, fn = step_of("a.{1: nil} + a.{1: nil}", "mal", "act", "a")
    assert inner_keys(fn) == ["[nil -> 1/1]"]


def test_mal_sync_multiplies_probabilities():
    defs = "P = 1.P\nQ = 1.Q\n"
    _, fn = step_of("a.{1/2: nil [] 1/2: P} |[a]| a.{1: Q}", "mal", "act", "a", defs=defs)
    assert inner_keys(fn) == ["[(P |[a]| Q) -> 1/2, (nil |[a]| Q) -> 1/2]"]


def test_mal_interleaving_keeps_the_other_side_still():
    _, fn = step_of("a.{1: nil} |[]| b.{1: nil}", "mal", "act", "a")
    assert inner_keys(fn) == ["[(nil |[]| b.{1: nil}) -> 1/1]"]
    _, fn = step_of("a.{1: nil} |[]| a.{1: nil}", "mal", "act", "a")
    assert inner_keys(fn) == [
        "[(a.{1: nil} |[]| nil) -> 1/1]",
        "[(nil |[]| a.{1: nil}) -> 1/1]",
    ]
    _, fn = step_of("X |[]| X", "mal", "act", "a", defs="X = a.{1: X}\n")
    assert inner_keys(fn) == ["[(X |[]| X) -> 1/1]"]


def test_mal_inner_distributions_sum_to_one():
    defs = "P = 1/2 . P\n"
    ctx, fn = step_of(
        "a.{1/3: nil [] 2/3: P} |[a]| a.{1/4: nil [] 3/4: P}", "mal", "act", "a", defs=defs
    )
    for inner, flag in fn.entries:
        assert flag is True
        assert ff_oplus(inner) == Fraction(1)


def test_mal_delay_relation():
    _, fn = step_of("2.nil |[]| 3.X", "mal", "delay", "delta", defs="X = 1.X\n")
    assert dict(fn.entries)["(nil |[]| 3 . X)"] == Fraction(2)
    assert dict(fn.entries)["(2 . nil |[]| X)"] == Fraction(3)
    _, fn = step_of("a.{1: nil}", "mal", "delay", "delta")
    assert fn == ff_zero("NNRAT")
    _, fn = step_of("Y |[a]| Y", "mal", "delay", "delta", defs="Y = 1 . Y\n")
    assert fn == ff_make("NNRAT", [("(Y |[a]| Y)", Fraction(2))])


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------


def test_unguarded_model_reports_rather_than_loops():
    with pytest.raises(UnguardedRecursionError, match="X -> X"):
        parse_model("X = X + a.nil\ninit X\n", "iml")


@pytest.mark.parametrize(
    "lang, prefix, par",
    [
        ("pepa", "(a, 1).", "<>"),
        ("iml", "a.", "|[]|"),
        ("tpc", "a.", "|[]|"),
        ("mal", "a.", "|[]|"),
    ],
)
def test_unguarded_recursion_is_never_memoised(lang, prefix, par):
    # no table ever holds an unguarded constant: the parser refuses the
    # model before any step is taken, even though init never reaches X
    cont = "{1: P}" if lang == "mal" else "P"
    defs = f"P = {prefix}{cont}\n"
    for body in ("X", f"P {par} X", f"(P {par} P) {par} X", "X + P"):
        with pytest.raises(UnguardedRecursionError, match="X -> X"):
            parse_model(f"{defs}X = {body}\ninit P {par} P\n", lang)
    model = parse_model(f"{defs}X = {prefix}{cont}\ninit P {par} P\n", lang)
    assert step_text(model, model.init, "act", "a").entries


def test_delay_cycle_is_never_memoised():
    # as above, for a constant that recurses through delays only
    defs = "P = a.(1).P\n"
    for body in ("(1).X", "(1).P |[]| (1).X", "((1).P |[]| P) |[]| (2).X", "(1).X + (1).P"):
        with pytest.raises(DelayCycleError, match="X -> X"):
            parse_model(f"{defs}X = {body}\ninit (1).P |[]| (2).P\n", "tpc")
    model = parse_model(f"{defs}X = (1).a.X\ninit (1).P |[]| (2).P\n", "tpc")
    assert step_text(model, model.init, "tick", "tick").entries
    assert tpc_max_delay(model, model.init) == 1


def test_a_warm_step_reads_as_many_shapes_however_wide_the_state(monkeypatch):
    # par-N: every state of ``P0 <> ... <> P(N-1)`` is a left-nested
    # cooperation whose operands earlier states have already stepped
    shape = Model.shape
    reads = []
    for n in (4, 6, 8):
        defs = "".join(f"P{i} = (a, 1).Q{i}\nQ{i} = (b, 2).P{i}\n" for i in range(n))
        init = " <> ".join(f"P{i}" for i in range(n))
        fm = explore(parse_model(f"{defs}init {init}\n", "pepa"))
        assert len(fm.states) == 2**n
        count = 0

        def counting(self, term_id):
            nonlocal count
            count += 1
            return shape(self, term_id)

        with monkeypatch.context() as patched:
            patched.setattr(Model, "shape", counting)
            for state in (fm.states[0], fm.states[-1]):
                for label in ("a", "b"):
                    futs_step(fm.ctx, state.term, "act", label)
        reads.append(count)
    assert reads[0] == reads[1] == reads[2]


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_term_table_neither_merges_nor_splits_terms(lang):
    corpus = build_corpus(lang, 40, 300, "table", depth=4, max_consts=4, max_par=3, max_def_par=0)
    for fm in corpus:
        model = fm.ctx
        texts = [model.text(i) for i in range(len(model.registry))]
        assert texts == [term_key(model.term_of(i)) for i in range(len(texts))]
        assert len(set(texts)) == len(texts)
        size = len(model.registry)
        for state in fm.states:
            assert parse_term(state.key, model) == state.term
        assert len(model.registry) == size
        # parsed afresh, the model file holds one id per distinct subterm
        stack = [*model.bodies().values(), model.term_of(model.init)]
        subterms = set()
        while stack:
            term = stack.pop()
            subterms.add(term_key(term))
            stack.extend(children(term))
        assert len(fresh_copy(model).registry) == len(subterms)


def test_a_subterm_written_twice_gets_one_id():
    model = parse_model("X = a.b.nil + a.b.nil\ninit a.b.nil |[]| X\n", "iml")
    choice = model.shape(model.defs["X"])
    par = model.shape(model.init)
    assert choice.left == choice.right == par.left
    assert len(model.registry) == 6  # nil, b.nil, a.b.nil, the choice, X, the composition


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_step_walkers_read_only_shapes(lang, monkeypatch):
    corpus = build_corpus(lang, 30, 200, "walk", depth=4, max_consts=4, max_par=3, max_def_par=0)

    def refuse(self, term_id):
        raise AssertionError("a step walker built a term node instead of reading shapes")

    # a walker reads shapes and builds its targets from ids, never from nodes
    monkeypatch.setattr(Model, "term_of", refuse)
    moved = set()
    for fm in corpus:
        for state in fm.states:
            for spec, data in zip(relation_specs(lang), fm.relations):
                for label in data.labels:
                    if futs_step(fm.ctx, state.term, spec.name, label).entries:
                        moved.add(spec.name)
            if lang == "tpc":
                tpc_max_delay(fm.ctx, state.term)
    assert moved == {spec.name for spec in relation_specs(lang)}
