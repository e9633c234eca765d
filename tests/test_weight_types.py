"""Rational weights are exact: an ``int`` when integral, else a ``Fraction``.

``int / int`` is a ``float``, and ``0.5 == Fraction(1, 2)`` and
``True == 1``, so a stray float or bool would pass every agreement check.
These tests read the type of each rational weight instead, with
``type(v) in (int, Fraction)``: ``isinstance`` would let a ``bool`` through.
"""

from fractions import Fraction

import pytest

from futsbench.bisim import _state_signature, minimize, refine
from futsbench.crosscheck import oracle_moves
from futsbench.sem_futs import futs_step
from futsbench.sem_oracle import OracleTerms, pepa_apparent_rate, pepa_transitions
from futsbench.semiring import NATSET, NNRAT
from futsbench.syntax import Model, parse_model, parse_term

from modelgen import build_corpus


def _assert_exact(numbers, where: str) -> int:
    """Fail on any number that is neither an ``int`` nor a ``Fraction``;
    return how many were read."""
    bad = [n for n in numbers if type(n) not in (int, Fraction)]
    assert not bad, f"{where}: inexact numbers {bad[:3]!r}"
    return len(numbers)


def _numbers(sr, weights) -> list:
    """The numbers in ``weights`` of the domain ``sr``: a rational is one,
    a set of naturals holds its members, and a truth value holds none."""
    if sr is NNRAT:
        return list(weights)
    if sr is NATSET:
        return [n for members in weights for n in members]
    return []


def _step_numbers(layers, step) -> list:
    """The numbers in one step (or quotient step, signature part, or folded
    oracle slot) over ``layers``: its weights' and its inner functions' (a
    tuple of pairs in a step or signature part, a frozenset of pairs in an
    oracle slot)."""
    numbers = _numbers(layers[0], [w for _, w in step])
    if len(layers) > 1:
        for inner, _ in step:
            numbers += _step_numbers(layers[1:], inner)
    return numbers


def _signature_numbers(relations, parts) -> list:
    """The numbers in a state's signature, one part per relation and label."""
    numbers = []
    parts = iter(parts)
    for data in relations:
        for _ in data.labels:
            numbers += _step_numbers(data.layers, next(parts))
    return numbers


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------

LITERALS = [
    ("2", 2),
    ("2.0", 2),
    ("4/2", 2),
    ("12/4", 3),
    ("1/2", Fraction(1, 2)),
    ("0.5", Fraction(1, 2)),
    ("2/4", Fraction(1, 2)),
    ("1.25", Fraction(5, 4)),
]


@pytest.mark.parametrize("text, value", LITERALS)
def test_a_rate_literal_is_an_int_when_integral(text, value):
    model = Model("pepa")
    rate = model.shape(parse_term(f"(a, {text}).nil", model)).rate
    assert type(rate) is type(value) and rate == value
    model = Model("iml")
    rate = model.shape(parse_term(f"{text} . nil", model)).rate
    assert type(rate) is type(value) and rate == value


@pytest.mark.parametrize(
    "text, probs",
    [
        ("a.{1: nil}", (1,)),
        ("a.{1.0: nil}", (1,)),
        ("a.{3/3: nil}", (1,)),
        ("a.{0.5: nil [] 2/4: a.{1: nil}}", (Fraction(1, 2), Fraction(1, 2))),
    ],
)
def test_a_probability_literal_is_an_int_when_integral(text, probs):
    model = Model("mal")
    got = tuple(p for p, _ in model.shape(parse_term(text, model)).branches)
    assert got == probs and tuple(map(type, got)) == tuple(map(type, probs))


# ---------------------------------------------------------------------------
# A synchronised cooperation with non-integral joint rates, in both routes
# ---------------------------------------------------------------------------

SYNC = """\
P0 = (a, 1/3).P1 + (a, 2).P0
P1 = (b, 0.5).P0 + (a, 4/2).P1
Q0 = (a, 3).Q1 + (b, 1.5).Q0
Q1 = (a, 0.25).Q0 + (b, 6/4).Q1
init P0 <a> Q0 <b> P1
"""

# (state, label) -> the exact step, by target text.  In P0 <a> Q1 the side
# totals of a are 7/3 and 1/4, so the pair's weights are scaled by 3/7; in
# P1 <a> Q1 <b> P1 those of b are 2 and 1/2, scaled by 1/2; in P1 <a> Q0
# those of a are the integers 2 and 3, scaled by 1/3, not by 0.333...
SYNC_STEPS = {
    ("((P1 <a> Q0) <b> P1)", "a"): {
        "((P1 <a> Q1) <b> P1)": 2,
        "((P1 <a> Q0) <b> P1)": 2,
    },
    ("((P0 <a> Q0) <b> P1)", "a"): {
        "((P1 <a> Q1) <b> P1)": Fraction(1, 3),
        "((P0 <a> Q1) <b> P1)": 2,
        "((P0 <a> Q0) <b> P1)": 2,
    },
    ("((P0 <a> Q1) <b> P1)", "a"): {
        "((P1 <a> Q0) <b> P1)": Fraction(1, 28),
        "((P0 <a> Q0) <b> P1)": Fraction(3, 14),
        "((P0 <a> Q1) <b> P1)": 2,
    },
    ("((P1 <a> Q1) <b> P1)", "b"): {
        "((P0 <a> Q1) <b> P0)": Fraction(1, 8),
        "((P1 <a> Q1) <b> P0)": Fraction(3, 8),
    },
}


def _exactly(got: dict, expected: dict, where: str) -> None:
    # a product or sum of Fractions whose value is integral may stay one
    assert got == expected
    _assert_exact(list(got.values()), where)


def test_synchronised_joint_rates_are_exact_in_both_routes():
    model = parse_model(SYNC, "pepa")
    table = OracleTerms(model)
    for (state, label), expected in SYNC_STEPS.items():
        term_id = parse_term(state, model)
        step = futs_step(model, term_id, "act")[label]
        _exactly({model.text(k): w for k, w in step}, expected, f"step of {state}")
        derived: dict = {}
        for rate, target in pepa_transitions(table, table.of_model(term_id), label):
            key = table.text(target)
            derived[key] = derived[key] + rate if key in derived else rate
        _exactly(derived, expected, f"derivations of {state}")


# P <a> Q's side totals of a are the integers 1 and 3, so its one joint rate
# is 1 * 3 scaled by 1/3: the integer 1, not Fraction(1, 1)
COOP = "P = (a, 1).Q + (b, 2).P\nQ = (a, 3).P + (c, 1).R\nR = (b, 1/2).P\ninit P <a> Q\n"


def test_an_integral_joint_rate_is_an_int_in_both_routes():
    model = parse_model(COOP, "pepa")
    table = OracleTerms(model)
    step = futs_step(model, model.init, "act")["a"]
    got = {model.text(k): w for k, w in step}
    derived = {
        table.text(target): rate
        for rate, target in pepa_transitions(table, table.of_model(model.init), "a")
    }
    assert got == derived == {"(Q <a> P)": 1}
    assert {k: type(w) for k, w in got.items()} == {k: type(w) for k, w in derived.items()}


# ---------------------------------------------------------------------------
# Every weight of random corpora of the four languages
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_no_weight_is_a_float_or_a_bool(lang):
    read = 0
    for fm in build_corpus(lang, 100, 200, "weight-types", depth=4, max_consts=4):
        relations = fm.relations
        for data in relations:
            for key, step in data.transitions.items():
                read += _assert_exact(_step_numbers(data.layers, step), f"step {key}")
        partition = refine(fm)
        for data in minimize(fm, partition).relations:
            for key, step in data.transitions.items():
                read += _assert_exact(_step_numbers(data.layers, step), f"quotient step {key}")
        for assignment in ([0] * len(fm.states), partition.assignment):
            for state in range(len(fm.states)):
                parts = _state_signature(relations, state, assignment)
                read += _assert_exact(
                    _signature_numbers(relations, parts), f"signature of {state}"
                )
        moves = oracle_moves(fm)
        for state, row in enumerate(moves.rows):
            # a distribution key iterates as its (target, mass) pairs
            for (data, label), fn in zip(moves.slots, row):
                numbers = _step_numbers(data.layers, list(fn.items()))
                read += _assert_exact(numbers, f"oracle {label} of {state}")
            if lang == "pepa":
                rates = [
                    pepa_apparent_rate(moves.table, moves.terms[state], label)
                    for _, label in moves.slots
                ]
                read += _assert_exact(rates, f"apparent rates of {state}")
    assert read > 0
