"""Unit tests for finite-support weight functions."""

import random
from fractions import Fraction

import pytest

from futsbench.errors import FutsError, SemiringMismatchError
from futsbench.fsfun import (
    ff_add,
    ff_lift_injective,
    ff_make,
    ff_map_keys,
    ff_oplus,
    ff_scale,
    ff_zero,
)
from futsbench.semiring import TAGS, TOP, semiring_of

from idtext import fn_text
from modelgen import random_finfn, random_value


def test_make_folds_duplicates_drops_zeros_and_sorts():
    fn = ff_make(
        "NNRAT",
        [
            ("Q", Fraction("1/2")),
            ("P", Fraction(0)),
            ("A", Fraction("1/3")),
            ("Q", Fraction("1/2")),
        ],
    )
    assert fn.entries == (("A", Fraction("1/3")), ("Q", Fraction(1)))
    # entries that cancel to zero are dropped entirely
    empty = ff_make("NATSET", [("P", frozenset())])
    assert empty == ff_zero("NATSET")
    assert ff_make("BOOL", [("P", False)]) == ff_zero("BOOL")
    # the all-naturals sentinel is not the empty set, so it is kept
    assert ff_make("NATSET", [("P", TOP)]).entries == (("P", TOP),)


def test_key_rendering():
    assert fn_text(ff_zero("BOOL")) == "[]"
    fn = ff_make("NNRAT", [("b.nil", Fraction(2)), ("a.nil", Fraction("1/2"))])
    assert fn_text(fn) == "[a.nil -> 1/2, b.nil -> 2/1]"


@pytest.mark.parametrize("tag", TAGS)
def test_add_is_commutative_monoid(tag):
    rng = random.Random(99)
    for _ in range(150):
        a = random_finfn(rng, tag)
        b = random_finfn(rng, tag)
        c = random_finfn(rng, tag)
        assert ff_add(a, b) == ff_add(b, a)
        assert ff_add(ff_add(a, b), c) == ff_add(a, ff_add(b, c))
        assert ff_add(a, ff_zero(tag)) == a


@pytest.mark.parametrize("tag", TAGS)
def test_total_weight_is_additive(tag):
    rng = random.Random(7)
    sr = semiring_of(tag)
    for _ in range(150):
        a = random_finfn(rng, tag)
        b = random_finfn(rng, tag)
        assert ff_oplus(ff_add(a, b)) == sr.add(ff_oplus(a), ff_oplus(b))
    assert ff_oplus(ff_zero(tag)) == sr.zero


@pytest.mark.parametrize("tag", TAGS)
def test_add_and_rename_fold_as_make_does(tag):
    # ff_add and ff_map_keys skip ff_make's zero test: their inputs hold
    # only non-zero weights, whose sums are never zero
    rng = random.Random(31)
    collided = 0
    for _ in range(300):
        a = random_finfn(rng, tag)
        b = random_finfn(rng, tag)
        assert ff_add(a, b) == ff_make(tag, a.entries + b.entries)
        assert ff_add(a, ff_zero(tag)) is not a  # a sum is always a new function
        rename = {f"P{i}": rng.choice(("Q0", "Q1", "Q2")) for i in range(8)}
        pairs = [(rename[k], v) for k, v in a.entries]
        assert ff_map_keys(rename.__getitem__, a) == ff_make(tag, pairs)
        collided += len({k for k, _ in pairs}) < len(pairs)
    assert collided > 20


def test_map_keys_adds_colliding_keys_and_keeps_the_tag():
    fn = ff_make("NNRAT", [("P1", Fraction(1, 2)), ("P2", Fraction(1, 3)), ("Q", Fraction(1))])
    renamed = ff_map_keys(lambda k: k[0], fn)
    assert renamed.tag == "NNRAT"
    assert renamed.entries == (("P", Fraction(5, 6)), ("Q", Fraction(1)))
    flags = ff_map_keys(lambda k: "R", ff_make("BOOL", [("P", True), ("Q", True)]))
    assert flags == ff_make("BOOL", [("R", True)])
    assert ff_map_keys(str.lower, ff_zero("NATSET")) == ff_zero("NATSET")


@pytest.mark.parametrize("tag", TAGS)
def test_scale_distributes_over_total(tag):
    rng = random.Random(13)
    mul = semiring_of(tag).mul
    for _ in range(150):
        v = random_value(rng, tag)
        a = random_finfn(rng, tag)
        assert ff_oplus(ff_scale(v, a)) == mul(v, ff_oplus(a))


@pytest.mark.parametrize("tag", TAGS)
def test_lift_total_is_product_of_totals(tag):
    rng = random.Random(21)
    sr = semiring_of(tag)

    def pair(x, y):
        return f"({x} | {y})"

    for _ in range(150):
        a = random_finfn(rng, tag)
        b = random_finfn(rng, tag)
        lifted = ff_lift_injective(pair, a, b)
        assert ff_oplus(lifted) == sr.mul(ff_oplus(a), ff_oplus(b))
        values = dict(lifted.entries)
        for x, av in a.entries:
            for y, bv in b.entries:
                want = sr.mul(av, bv)
                assert values.get(pair(x, y), sr.zero) == want


def test_lift_rejects_non_injective_builder():
    a = ff_make("NNRAT", [("P", Fraction(1)), ("Q", Fraction(1))])
    with pytest.raises(FutsError):
        ff_lift_injective(lambda x, y: "same", a, a)


def test_nested_functions_as_keys():
    inner1 = ff_make("NNRAT", [("P", Fraction("1/2")), ("Q", Fraction("1/2"))])
    inner2 = ff_make("NNRAT", [("P", Fraction(1))])
    outer = ff_make("BOOL", [(inner1, True), (inner2, True)])
    assert dict(outer.entries)[inner1] is True
    rebuilt = ff_make("NNRAT", [("Q", Fraction("1/2")), ("P", Fraction("1/2"))])
    assert dict(outer.entries)[rebuilt] is True
    assert fn_text(outer) == "[[P -> 1/1] -> true, [P -> 1/2, Q -> 1/2] -> true]"


def test_mismatched_domains_are_rejected():
    with pytest.raises(SemiringMismatchError):
        ff_add(ff_zero("BOOL"), ff_zero("NNRAT"))
    with pytest.raises(SemiringMismatchError):
        ff_lift_injective(lambda x, y: x + y, ff_zero("BOOL"), ff_zero("NNRAT"))
    with pytest.raises(SemiringMismatchError):
        ff_make("REAL", [])
    # payloads of different domains compare equal (True == Fraction(1)),
    # so only the tag keeps these two functions apart
    assert ff_make("BOOL", [("P", True)]) != ff_make("NNRAT", [("P", Fraction(1))])
