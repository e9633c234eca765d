"""Unit tests for finite-support weight functions."""

import random

import pytest

from futsbench.errors import FutsError, SemiringMismatchError, UnsupportedDiracError
from futsbench.fsfun import (
    ff_add,
    ff_dirac,
    ff_key,
    ff_lift_injective,
    ff_make,
    ff_oplus,
    ff_scale,
    ff_zero,
)
from futsbench.semiring import TAGS, make_bool, make_natset, make_rat, sr_add, sr_constants, sr_mul

from modelgen import random_finfn, random_value


def test_make_folds_duplicates_drops_zeros_and_sorts():
    fn = ff_make(
        "NNRAT",
        [
            ("Q", make_rat("1/2")),
            ("P", make_rat(0)),
            ("A", make_rat("1/3")),
            ("Q", make_rat("1/2")),
        ],
    )
    assert fn.entries == (("A", make_rat("1/3")), ("Q", make_rat(1)))
    # entries that cancel to zero are dropped entirely
    empty = ff_make("NATSET", [("P", make_natset(()))])
    assert empty == ff_zero("NATSET")


def test_key_rendering():
    assert ff_key(ff_zero("BOOL")) == "[]"
    fn = ff_make("NNRAT", [("b.nil", make_rat(2)), ("a.nil", make_rat("1/2"))])
    assert ff_key(fn) == "[a.nil -> 1/2, b.nil -> 2/1]"


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
    for _ in range(150):
        a = random_finfn(rng, tag)
        b = random_finfn(rng, tag)
        assert ff_oplus(ff_add(a, b)) == sr_add(ff_oplus(a), ff_oplus(b))
    assert ff_oplus(ff_zero(tag)) == sr_constants(tag)[0]


def test_dirac():
    assert ff_dirac("NNRAT", "P").entries == (("P", make_rat(1)),)
    assert ff_dirac("BOOL", "P").entries == (("P", make_bool(True)),)
    with pytest.raises(UnsupportedDiracError):
        ff_dirac("NATSET", "P")


@pytest.mark.parametrize("tag", TAGS)
def test_scale_distributes_over_total(tag):
    rng = random.Random(13)
    for _ in range(150):
        v = random_value(rng, tag)
        a = random_finfn(rng, tag)
        assert ff_oplus(ff_scale(v, a)) == sr_mul(v, ff_oplus(a))


@pytest.mark.parametrize("tag", TAGS)
def test_lift_total_is_product_of_totals(tag):
    rng = random.Random(21)

    def pair(x, y):
        return f"({x} | {y})"

    for _ in range(150):
        a = random_finfn(rng, tag)
        b = random_finfn(rng, tag)
        lifted = ff_lift_injective(pair, a, b)
        assert ff_oplus(lifted) == sr_mul(ff_oplus(a), ff_oplus(b))
        values = dict(lifted.entries)
        for x, av in a.entries:
            for y, bv in b.entries:
                want = sr_mul(av, bv)
                assert values.get(pair(x, y), sr_constants(tag)[0]) == want


def test_lift_rejects_non_injective_builder():
    a = ff_make("NNRAT", [("P", make_rat(1)), ("Q", make_rat(1))])
    with pytest.raises(FutsError):
        ff_lift_injective(lambda x, y: "same", a, a)


def test_nested_functions_as_keys():
    inner1 = ff_make("NNRAT", [("P", make_rat("1/2")), ("Q", make_rat("1/2"))])
    inner2 = ff_make("NNRAT", [("P", make_rat(1))])
    outer = ff_make("BOOL", [(inner1, make_bool(True)), (inner2, make_bool(True))])
    assert dict(outer.entries)[inner1] == make_bool(True)
    rebuilt = ff_make("NNRAT", [("Q", make_rat("1/2")), ("P", make_rat("1/2"))])
    assert dict(outer.entries)[rebuilt] == make_bool(True)
    assert ff_key(outer) == "[[P -> 1/1] -> true, [P -> 1/2, Q -> 1/2] -> true]"


def test_mismatched_domains_are_rejected():
    with pytest.raises(SemiringMismatchError):
        ff_add(ff_zero("BOOL"), ff_zero("NNRAT"))
    with pytest.raises(SemiringMismatchError):
        ff_make("BOOL", [("P", make_rat(1))])
    with pytest.raises(SemiringMismatchError):
        ff_scale(make_rat(1), ff_zero("BOOL"))
