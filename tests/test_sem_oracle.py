"""Unit tests for the classical transition-relation oracle.

Expected values are hand-derived from the textbook rules; the last
section spot-checks that the oracle and the state-to-function
semantics agree on aggregated quantities (the systematic sweep over
random models lives in the acceptance suite).
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import futsbench

from futsbench.errors import DelayCycleError, TimedTransitionCapError
from futsbench.fsfun import ff_oplus
from futsbench.sem_oracle import (
    action_distributions,
    delay_derivations,
    interactive_transitions,
    merge_distribution,
    pepa_apparent_rate,
    pepa_transitions,
    timed_transitions,
)
from futsbench.syntax import parse_model, parse_term, term_key

from idtext import step_text


def model_of(lang, text=""):
    return parse_model(text + "init nil\n", lang)


def term_of(model, text):
    return model.term_of(parse_term(text, model))


# ---------------------------------------------------------------------------
# pepa
# ---------------------------------------------------------------------------


def test_apparent_rate():
    model = model_of("pepa", "X = (a, 1).X\n")
    t = term_of(model, "(a, 2).nil + (a, 1).X")
    assert pepa_apparent_rate(model, t, "a") == 3
    assert pepa_apparent_rate(model, t, "b") == 0
    sync = term_of(model, "((a, 2).nil + (a, 1).X) <a> (a, 1).nil")
    assert pepa_apparent_rate(model, sync, "a") == 1
    free = term_of(model, "(a, 2).nil <> (a, 3).nil")
    assert pepa_apparent_rate(model, free, "a") == 5
    assert pepa_apparent_rate(model, term_of(model, "X"), "a") == 1


def test_pepa_transitions_keep_derivations_apart():
    model = model_of("pepa")
    t = term_of(model, "(a, 1).nil + (a, 1).nil")
    derivs = pepa_transitions(model, t, "a")
    assert len(derivs) == 2
    assert all(rate == 1 for rate, _ in derivs)
    assert sum(rate for rate, target in derivs if target == term_of(model, "nil")) == 2


def test_pepa_sync_transition_rates():
    model = model_of("pepa", "X = (a, 1).X\n")
    t = term_of(model, "((a, 2).nil + (a, 1).X) <a> (a, 1).nil")
    derivs = pepa_transitions(model, t, "a")
    by_target = {}
    for rate, target in derivs:
        by_target[term_key(target)] = by_target.get(term_key(target), Fraction(0)) + rate
    assert by_target == {
        "(nil <a> nil)": Fraction(2, 3),
        "(X <a> nil)": Fraction(1, 3),
    }


# ---------------------------------------------------------------------------
# iml
# ---------------------------------------------------------------------------


def test_interactive_transitions():
    model = model_of("iml", "X = a.X\n")
    t = term_of(model, "a.nil + a.X")
    assert {term_key(s) for s in interactive_transitions(model, t, "a")} == {"nil", "X"}
    sync = term_of(model, "a.nil |[a]| a.X")
    assert {term_key(s) for s in interactive_transitions(model, sync, "a")} == {
        "(nil |[a]| X)"
    }
    assert interactive_transitions(model, sync, "b") == frozenset()
    blocked = term_of(model, "a.nil |[a]| b.nil")
    assert interactive_transitions(model, blocked, "a") == frozenset()


def test_delay_derivations_are_a_multiset():
    model = model_of("iml")
    t = term_of(model, "1/2 . nil + 1/2 . nil")
    derivs = delay_derivations(model, t)
    assert len(derivs) == 2
    assert sum(rate for rate, target in derivs if target == term_of(model, "nil")) == 1
    par = term_of(model, "1.nil |[a]| 2.nil")
    targets = {term_key(target): rate for rate, target in delay_derivations(model, par)}
    assert targets == {
        "(nil |[a]| 2 . nil)": Fraction(1),
        "(1 . nil |[a]| nil)": Fraction(2),
    }


# ---------------------------------------------------------------------------
# tpc
# ---------------------------------------------------------------------------


def as_timed_dict(trans):
    out = {}
    for amount, target in trans:
        out.setdefault(term_key(target), set()).add(amount)
    return out


def test_timed_transitions_of_a_delay():
    model = model_of("tpc")
    t = term_of(model, "(2).a.nil")
    assert as_timed_dict(timed_transitions(model, t)) == {
        "(1).a.nil": {1},
        "a.nil": {2},
    }
    # passing time continues into the continuation's delays
    t = term_of(model, "(1).(2).nil")
    assert as_timed_dict(timed_transitions(model, t)) == {
        "(2).nil": {1},
        "(1).nil": {2},
        "nil": {3},
    }


def test_timed_transitions_synchronise_branches():
    model = model_of("tpc")
    t = term_of(model, "(2).nil + (3).nil")
    assert as_timed_dict(timed_transitions(model, t)) == {
        "((1).nil + (2).nil)": {1},
        "(nil + (1).nil)": {2},
    }
    t = term_of(model, "(2).nil |[]| a.nil")
    assert timed_transitions(model, t) == frozenset()


def test_timed_transitions_are_time_deterministic():
    model = parse_model("X = (2).a.X\ninit (1).X + (3).nil |[]| (2).nil\n", "tpc")
    per_amount = {}
    for amount, target in timed_transitions(model, model.term_of(model.init)):
        assert amount not in per_amount
        per_amount[amount] = target


def test_timed_cap_and_cycle_are_reported():
    model = model_of("tpc")
    assert len(timed_transitions(model, term_of(model, "(10000).nil"))) == 10_000
    with pytest.raises(TimedTransitionCapError):
        timed_transitions(model, term_of(model, "(10001).nil"))
    # the timed transitions of X would be infinite, so the parser refuses X
    with pytest.raises(DelayCycleError, match="X -> X"):
        parse_model("X = (1).X\ninit X\n", "tpc")


# ---------------------------------------------------------------------------
# mal
# ---------------------------------------------------------------------------


def as_dist_set(dists):
    return {frozenset((term_key(t), p) for t, p in d) for d in dists}


def test_action_distributions():
    model = model_of("mal", "X = 1.X\n")
    t = term_of(model, "a.{1/2: nil [] 1/2: X}")
    assert as_dist_set(action_distributions(model, t, "a")) == {
        frozenset({("nil", Fraction(1, 2)), ("X", Fraction(1, 2))})
    }
    assert action_distributions(model, t, "b") == frozenset()
    # equal branches merge into one point
    t = term_of(model, "a.{1/2: nil [] 1/2: nil}")
    assert as_dist_set(action_distributions(model, t, "a")) == {
        frozenset({("nil", Fraction(1))})
    }


def test_action_distribution_sync_multiplies():
    model = model_of("mal", "P = 1.P\nQ = 1.Q\n")
    t = term_of(model, "a.{1/2: nil [] 1/2: P} |[a]| a.{1: Q}")
    assert as_dist_set(action_distributions(model, t, "a")) == {
        frozenset(
            {("(nil |[a]| Q)", Fraction(1, 2)), ("(P |[a]| Q)", Fraction(1, 2))}
        )
    }


def test_action_distribution_interleaving():
    model = model_of("mal")
    t = term_of(model, "a.{1: nil} |[]| a.{1: nil}")
    assert as_dist_set(action_distributions(model, t, "a")) == {
        frozenset({("(nil |[]| a.{1: nil})", Fraction(1))}),
        frozenset({("(a.{1: nil} |[]| nil)", Fraction(1))}),
    }


def test_merge_distribution_drops_nothing_positive():
    t1 = term_of(model_of("mal"), "nil")
    merged = merge_distribution([(t1, Fraction(1, 3)), (t1, Fraction(2, 3))])
    assert merged == frozenset({(t1, Fraction(1))})


# ---------------------------------------------------------------------------
# Spot agreement between the two semantic routes
# ---------------------------------------------------------------------------


def futs_entries(text, lang, relation, label, defs=""):
    model = parse_model(defs + f"init {text}\n", lang)
    return model, model.term_of(model.init), step_text(model, model.init, relation, label)


def test_routes_agree_pepa():
    text = "((a, 2).nil + (a, 1).X) <a> ((a, 1).nil <> (b, 5).X)"
    model, init, fn = futs_entries(text, "pepa", "act", "a", defs="X = (a, 1).X\n")
    got = dict(fn.entries)
    by_target = {}
    for rate, target in pepa_transitions(model, init, "a"):
        key = term_key(target)
        by_target[key] = by_target.get(key, Fraction(0)) + rate
    assert got == by_target
    assert ff_oplus(fn) == pepa_apparent_rate(model, init, "a")


def test_routes_agree_iml():
    text = "(a.nil + 1/2 . nil) |[a]| (a.b.nil + 1/3 . nil)"
    model, init, fn = futs_entries(text, "iml", "act", "a")
    got = {k for k, _ in fn.entries}
    want = {term_key(t) for t in interactive_transitions(model, init, "a")}
    assert got == want
    model, init, fn = futs_entries(text, "iml", "delay", "delta")
    got = dict(fn.entries)
    by_target = {}
    for rate, target in delay_derivations(model, init):
        key = term_key(target)
        by_target[key] = by_target.get(key, Fraction(0)) + rate
    assert got == by_target


def test_routes_agree_tpc():
    text = "((2).a.nil + (3).nil) |[a]| (1).(2).b.nil"
    model, init, fn = futs_entries(text, "tpc", "tick", "tick")
    got = {k: set(v) for k, v in fn.entries}
    assert got == as_timed_dict(timed_transitions(model, init))


def test_routes_agree_mal():
    text = "(a.{1/2: nil [] 1/2: X} + a.{1: nil}) |[]| 2.nil"
    model, init, fn = futs_entries(text, "mal", "act", "a", defs="X = 1.X\n")
    got = {frozenset(inner.entries) for inner, _ in fn.entries}
    want = as_dist_set(action_distributions(model, init, "a"))
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


def test_oracle_interns_nothing():
    # the oracle walks term nodes; only the state-to-function route adds
    # terms to a model's table
    tree = ast.parse((SOURCE / "sem_oracle.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"intern", "registry"}
