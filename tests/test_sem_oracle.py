"""Unit tests for the classical transition-relation oracle.

Expected values are hand-derived from the textbook rules; the last
sections spot-check that the oracle and the state-to-function
semantics agree on aggregated quantities (the systematic sweep over
random models lives in the acceptance suite), that the oracle keeps to
itself, and that its own term table is sound.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import futsbench

from futsbench.errors import DelayCycleError, TimedTransitionCapError
from futsbench.fsfun import ff_oplus
from futsbench.semiring import NNRAT
from futsbench.sem_oracle import (
    OracleTerms,
    action_distributions,
    delay_derivations,
    interactive_transitions,
    merge_distribution,
    pepa_apparent_rate,
    pepa_transitions,
    timed_transitions,
)
from futsbench import crosscheck
from futsbench.crosscheck import apparent_rate_check, oracle_moves, run_checks
from futsbench.syntax import (
    Model,
    ProbPrefix,
    map_children,
    parse_model,
    parse_term,
    render_key,
    term_key,
)

from idtext import step_text
from modelgen import build_corpus

LANGUAGES = ["pepa", "iml", "tpc", "mal"]


def model_of(lang, text=""):
    return parse_model(text + "init nil\n", lang)


def oracle_of(model):
    """A fresh oracle table of ``model``, and the map from a term's text to
    its id in that table."""
    table = OracleTerms(model)
    return table, lambda text: table.of_model(parse_term(text, model))


# ---------------------------------------------------------------------------
# pepa
# ---------------------------------------------------------------------------


def test_apparent_rate():
    table, term = oracle_of(model_of("pepa", "X = (a, 1).X\n"))
    t = term("(a, 2).nil + (a, 1).X")
    assert pepa_apparent_rate(table, t, "a") == 3
    assert pepa_apparent_rate(table, t, "b") == 0
    sync = term("((a, 2).nil + (a, 1).X) <a> (a, 1).nil")
    assert pepa_apparent_rate(table, sync, "a") == 1
    free = term("(a, 2).nil <> (a, 3).nil")
    assert pepa_apparent_rate(table, free, "a") == 5
    assert pepa_apparent_rate(table, term("X"), "a") == 1


def test_pepa_transitions_keep_derivations_apart():
    table, term = oracle_of(model_of("pepa"))
    derivs = pepa_transitions(table, term("(a, 1).nil + (a, 1).nil"), "a")
    assert len(derivs) == 2
    assert all(rate == 1 for rate, _ in derivs)
    assert sum(rate for rate, target in derivs if target == term("nil")) == 2


def test_pepa_sync_transition_rates():
    table, term = oracle_of(model_of("pepa", "X = (a, 1).X\n"))
    t = term("((a, 2).nil + (a, 1).X) <a> (a, 1).nil")
    by_target = {}
    for rate, target in pepa_transitions(table, t, "a"):
        key = table.text(target)
        by_target[key] = by_target.get(key, Fraction(0)) + rate
    assert by_target == {
        "(nil <a> nil)": Fraction(2, 3),
        "(X <a> nil)": Fraction(1, 3),
    }


# ---------------------------------------------------------------------------
# iml
# ---------------------------------------------------------------------------


def test_interactive_transitions():
    table, term = oracle_of(model_of("iml", "X = a.X\n"))
    t = term("a.nil + a.X")
    assert {table.text(s) for s in interactive_transitions(table, t, "a")} == {"nil", "X"}
    sync = term("a.nil |[a]| a.X")
    assert {table.text(s) for s in interactive_transitions(table, sync, "a")} == {
        "(nil |[a]| X)"
    }
    assert interactive_transitions(table, sync, "b") == frozenset()
    blocked = term("a.nil |[a]| b.nil")
    assert interactive_transitions(table, blocked, "a") == frozenset()


def test_delay_derivations_are_a_multiset():
    table, term = oracle_of(model_of("iml"))
    derivs = delay_derivations(table, term("1/2 . nil + 1/2 . nil"))
    assert len(derivs) == 2
    assert sum(rate for rate, target in derivs if target == term("nil")) == 1
    par = term("1.nil |[a]| 2.nil")
    targets = {table.text(target): rate for rate, target in delay_derivations(table, par)}
    assert targets == {
        "(nil |[a]| 2 . nil)": Fraction(1),
        "(1 . nil |[a]| nil)": Fraction(2),
    }


# ---------------------------------------------------------------------------
# tpc
# ---------------------------------------------------------------------------


def as_timed_dict(table, trans):
    out = {}
    for amount, target in trans:
        out.setdefault(table.text(target), set()).add(amount)
    return out


def test_timed_transitions_of_a_delay():
    table, term = oracle_of(model_of("tpc"))
    assert as_timed_dict(table, timed_transitions(table, term("(2).a.nil"))) == {
        "(1).a.nil": {1},
        "a.nil": {2},
    }
    # passing time continues into the continuation's delays
    assert as_timed_dict(table, timed_transitions(table, term("(1).(2).nil"))) == {
        "(2).nil": {1},
        "(1).nil": {2},
        "nil": {3},
    }


def test_timed_transitions_synchronise_branches():
    table, term = oracle_of(model_of("tpc"))
    assert as_timed_dict(table, timed_transitions(table, term("(2).nil + (3).nil"))) == {
        "((1).nil + (2).nil)": {1},
        "(nil + (1).nil)": {2},
    }
    assert timed_transitions(table, term("(2).nil |[]| a.nil")) == frozenset()


def test_timed_transitions_are_time_deterministic():
    model = parse_model("X = (2).a.X\ninit (1).X + (3).nil |[]| (2).nil\n", "tpc")
    table = OracleTerms(model)
    per_amount = {}
    for amount, target in timed_transitions(table, table.of_model(model.init)):
        assert amount not in per_amount
        per_amount[amount] = target


def test_timed_cap_and_cycle_are_reported():
    table, term = oracle_of(model_of("tpc"))
    assert len(timed_transitions(table, term("(10000).nil"))) == 10_000
    with pytest.raises(TimedTransitionCapError):
        timed_transitions(table, term("(10001).nil"))
    # the timed transitions of X would be infinite, so the parser refuses X
    with pytest.raises(DelayCycleError, match="X -> X"):
        parse_model("X = (1).X\ninit X\n", "tpc")


# ---------------------------------------------------------------------------
# mal
# ---------------------------------------------------------------------------


def as_dist_set(table, dists):
    return {frozenset((table.text(t), p) for t, p in d) for d in dists}


def test_action_distributions():
    table, term = oracle_of(model_of("mal", "X = 1.X\n"))
    t = term("a.{1/2: nil [] 1/2: X}")
    assert as_dist_set(table, action_distributions(table, t, "a")) == {
        frozenset({("nil", Fraction(1, 2)), ("X", Fraction(1, 2))})
    }
    assert action_distributions(table, t, "b") == frozenset()
    # equal branches merge into one point
    t = term("a.{1/2: nil [] 1/2: nil}")
    assert as_dist_set(table, action_distributions(table, t, "a")) == {
        frozenset({("nil", Fraction(1))})
    }


def test_action_distribution_sync_multiplies():
    table, term = oracle_of(model_of("mal", "P = 1.P\nQ = 1.Q\n"))
    t = term("a.{1/2: nil [] 1/2: P} |[a]| a.{1: Q}")
    assert as_dist_set(table, action_distributions(table, t, "a")) == {
        frozenset(
            {("(nil |[a]| Q)", Fraction(1, 2)), ("(P |[a]| Q)", Fraction(1, 2))}
        )
    }


def test_action_distribution_interleaving():
    table, term = oracle_of(model_of("mal"))
    t = term("a.{1: nil} |[]| a.{1: nil}")
    assert as_dist_set(table, action_distributions(table, t, "a")) == {
        frozenset({("(nil |[]| a.{1: nil})", Fraction(1))}),
        frozenset({("(a.{1: nil} |[]| nil)", Fraction(1))}),
    }


def test_merge_distribution_drops_nothing_positive():
    _, term = oracle_of(model_of("mal"))
    t1 = term("nil")
    merged = merge_distribution([(t1, Fraction(1, 3)), (t1, Fraction(2, 3))])
    assert merged == frozenset({(t1, Fraction(1))})


# ---------------------------------------------------------------------------
# Spot agreement between the two semantic routes
# ---------------------------------------------------------------------------


def futs_entries(text, lang, relation, label, defs=""):
    model = parse_model(defs + f"init {text}\n", lang)
    table = OracleTerms(model)
    init = table.of_model(model.init)
    return table, init, step_text(model, model.init, relation, label)


def test_routes_agree_pepa():
    text = "((a, 2).nil + (a, 1).X) <a> ((a, 1).nil <> (b, 5).X)"
    table, init, fn = futs_entries(text, "pepa", "act", "a", defs="X = (a, 1).X\n")
    got = dict(fn)
    by_target = {}
    for rate, target in pepa_transitions(table, init, "a"):
        key = table.text(target)
        by_target[key] = by_target.get(key, Fraction(0)) + rate
    assert got == by_target
    assert ff_oplus(NNRAT, fn) == pepa_apparent_rate(table, init, "a")


def test_routes_agree_iml():
    text = "(a.nil + 1/2 . nil) |[a]| (a.b.nil + 1/3 . nil)"
    table, init, fn = futs_entries(text, "iml", "act", "a")
    got = {k for k, _ in fn}
    want = {table.text(t) for t in interactive_transitions(table, init, "a")}
    assert got == want
    table, init, fn = futs_entries(text, "iml", "delay", "delta")
    got = dict(fn)
    by_target = {}
    for rate, target in delay_derivations(table, init):
        key = table.text(target)
        by_target[key] = by_target.get(key, Fraction(0)) + rate
    assert got == by_target


def test_routes_agree_tpc():
    text = "((2).a.nil + (3).nil) |[a]| (1).(2).b.nil"
    table, init, fn = futs_entries(text, "tpc", "tick", "tick")
    got = {k: set(v) for k, v in fn}
    assert got == as_timed_dict(table, timed_transitions(table, init))


def test_routes_agree_mal():
    text = "(a.{1/2: nil [] 1/2: X} + a.{1: nil}) |[]| 2.nil"
    table, init, fn = futs_entries(text, "mal", "act", "a", defs="X = 1.X\n")
    got = {frozenset(inner) for inner, _ in fn}
    want = as_dist_set(table, action_distributions(table, init, "a"))
    assert got == want


# ---------------------------------------------------------------------------
# Independence: the oracle must not reuse the weight-function semantics,
# or the cross-checks between the two would compare a route with itself;
# and refinement must not read the oracle, which only crosscheck does
# ---------------------------------------------------------------------------

SOURCE = Path(futsbench.__file__).parent
PACKAGE = {"futsbench"} | {
    f"futsbench.{path.stem}" for path in SOURCE.glob("*.py") if path.stem != "__init__"
}


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("sem_oracle", PACKAGE - {"futsbench.errors", "futsbench.syntax"}),
        ("bisim", {"futsbench.sem_oracle"}),
    ],
    ids=["sem_oracle", "bisim"],
)
def test_oracle_imports_only_errors_and_syntax(module, forbidden):
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("futsbench." if node.level else "") + (node.module or "")
            if node.module:
                imported.append(base)
            else:  # from . import name
                imported += [base + alias.name for alias in node.names]
    assert not forbidden & set(imported), forbidden & set(imported)


def test_crosscheck_takes_only_the_partition_and_refine_from_bisim():
    # the oracle partition is compared with refine's: it builds a Partition
    # as refine does, but borrows none of refine's steps
    tree = ast.parse((SOURCE / "crosscheck.py").read_text(encoding="utf-8"))
    borrowed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # import futsbench.bisim
            borrowed += [alias.name for alias in node.names if alias.name == "futsbench.bisim"]
        elif isinstance(node, ast.ImportFrom):
            base = ("futsbench." if node.level else "") + (node.module or "")
            if base == "futsbench.bisim":
                borrowed += [alias.name for alias in node.names]
            elif base.rstrip(".") == "futsbench":  # from . import bisim
                borrowed += [alias.name for alias in node.names if alias.name == "bisim"]
    assert sorted(borrowed) == ["Partition", "canonical_assignment", "refine"]


def test_oracle_interns_nothing(monkeypatch):
    # the oracle reads the model's terms one shape at a time, by id, and
    # hash-conses them in a table of its own: while it runs over the
    # corpora of all four languages, interning into the model's table or
    # reading its memo fails, and the table holds as many terms afterwards
    # as before
    corpora = {lang: _corpus(lang, "own-table") for lang in LANGUAGES}
    sizes = {lang: [len(fm.ctx.registry) for fm in corpus] for lang, corpus in corpora.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used the model's term table")

    for name in ("intern", "memo"):
        monkeypatch.setattr(Model, name, refuse)
    for lang, corpus in corpora.items():
        for fm in corpus:
            moves = oracle_moves(fm)
            if lang == "pepa":
                assert apparent_rate_check(fm, moves).passed
        assert [len(fm.ctx.registry) for fm in corpus] == sizes[lang]


# ---------------------------------------------------------------------------
# The oracle's own term table
# ---------------------------------------------------------------------------


def _corpus(lang, tag):
    return build_corpus(lang, 15, 100, f"oracle-{tag}", depth=4, max_par=3, max_def_par=0)


class RecordingTerms(OracleTerms):
    """An oracle table that also records every model term imported into it,
    and every target shape built in it, with the id each one got, and can
    list the node of each of its ids."""

    def __init__(self, model):
        self.model = model
        self.imported = []
        self.built = []
        super().__init__(model)

    def of_model(self, term_id):
        found = super().of_model(term_id)
        self.imported.append((term_id, found))
        return found

    def id_of(self, form, *fields):
        found = super().id_of(form, *fields)
        self.built.append((form(*fields), found))
        return found

    def nodes(self):
        # subterms get their ids first, so each id's node is built in id order
        nodes = []
        for shape in self._shapes:
            nodes.append(map_children(shape, nodes.__getitem__))
        return nodes


@pytest.mark.parametrize("lang", LANGUAGES)
def test_oracle_table_neither_merges_nor_splits_terms(lang, monkeypatch):
    tables = []

    def recording(model):
        tables.append(RecordingTerms(model))
        return tables[-1]

    monkeypatch.setattr(crosscheck, "OracleTerms", recording)
    corpus = _corpus(lang, "table")
    for fm in corpus:
        assert all(result.passed for result in run_checks(fm))
    assert len(tables) == len(corpus)  # one table per compare
    assert any(table.built for table in tables)
    for table in tables:
        texts = [term_key(node) for node in table.nodes()]
        assert len(set(texts)) == len(texts)  # no term has two ids
        assert [table.text(term_id) for term_id in range(len(texts))] == texts
        # no two terms share an id: each model term imported (a state, or
        # a constant's body) has the model's text, and each target built
        # the text of its shape
        for model_id, term_id in table.imported:
            assert texts[term_id] == table.model.text(model_id)
        for shape, term_id in table.built:
            assert render_key(shape, texts.__getitem__) == texts[term_id]


DEEP = 3000

# the text of ``n`` prefixes around nil
CHAINS = {
    "pepa": lambda n: "(a, 1)." * n + "nil",
    "iml": lambda n: "a." * n + "nil",
    "tpc": lambda n: "a." * n + "nil",
    "mal": lambda n: "a.{1: " * n + "nil" + "}" * n,
}


def deep_chain(lang):
    """A model holding a chain of DEEP prefixes, and the chain's id.  The
    parser reads a prefix chain in a loop; a mal prefix opens braces, which
    it reads recursively, so there the chain is interned shape by shape."""
    if lang != "mal":
        model = parse_model(f"init {CHAINS[lang](DEEP)}\n", lang)
        return model, model.init
    model = model_of(lang)
    term_id = model.init
    for _ in range(DEEP):
        term_id = model.intern(ProbPrefix, "a", ((Fraction(1), term_id),))
    return model, term_id


@pytest.mark.parametrize("lang", LANGUAGES)
def test_a_deep_prefix_chain_is_added_read_and_stepped_without_recursion(lang):
    model, chain = deep_chain(lang)
    shape = model.shape(chain)
    table = OracleTerms(model)
    top = table.of_model(chain)
    assert table.text(top) == CHAINS[lang](DEEP)
    below = table.of_model(shape.branches[0][1] if lang == "mal" else shape.cont)
    assert table.text(below) == CHAINS[lang](DEEP - 1)
    if lang == "pepa":
        assert pepa_transitions(table, top, "a") == ((Fraction(1), below),)
        assert pepa_apparent_rate(table, top, "a") == 1
    elif lang == "mal":
        assert action_distributions(table, top, "a") == {frozenset({(below, Fraction(1))})}
        assert delay_derivations(table, top) == ()
    else:
        assert interactive_transitions(table, top, "a") == {below}
        if lang == "iml":
            assert delay_derivations(table, top) == ()
        else:
            assert timed_transitions(table, top) == frozenset()


def test_a_deep_timed_choice_has_one_timed_transition_without_recursion():
    model = parse_model("init " + " + ".join(["(1).a.nil"] * DEEP) + "\n", "tpc")
    table = OracleTerms(model)
    ((amount, target),) = timed_transitions(table, table.of_model(model.init))
    assert amount == 1
    assert table.text(target) == "(" * (DEEP - 1) + "a.nil" + " + a.nil)" * (DEEP - 1)
