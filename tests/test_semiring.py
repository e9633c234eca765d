"""Unit tests for the weight domains."""

import random
from fractions import Fraction

import pytest

from futsbench.errors import SemiringMismatchError
from futsbench.semiring import (
    NATSET_TOP,
    TAGS,
    make_bool,
    make_natset,
    make_rat,
    sr_add,
    sr_constants,
    sr_format,
    sr_is_zero,
    sr_mul,
)

from modelgen import random_value


@pytest.mark.parametrize("tag", TAGS)
def test_semiring_laws_on_random_triples(tag):
    rng = random.Random(20260819)
    zero, one = sr_constants(tag)
    for _ in range(300):
        a = random_value(rng, tag)
        b = random_value(rng, tag)
        c = random_value(rng, tag)
        # additive commutative monoid
        assert sr_add(a, b) == sr_add(b, a)
        assert sr_add(sr_add(a, b), c) == sr_add(a, sr_add(b, c))
        assert sr_add(a, zero) == a
        # multiplicative commutative monoid
        assert sr_mul(a, b) == sr_mul(b, a)
        assert sr_mul(sr_mul(a, b), c) == sr_mul(a, sr_mul(b, c))
        assert sr_mul(a, one) == a
        # distributivity and annihilation
        assert sr_mul(a, sr_add(b, c)) == sr_add(sr_mul(a, b), sr_mul(a, c))
        assert sr_mul(a, zero) == zero


def test_constants():
    assert sr_constants("BOOL") == (make_bool(False), make_bool(True))
    zero, one = sr_constants("NNRAT")
    assert zero.payload == Fraction(0) and one.payload == Fraction(1)
    zero, one = sr_constants("NATSET")
    assert zero == make_natset(()) and one is NATSET_TOP


def test_natset_union_is_sum_and_intersection_is_product():
    a = make_natset({1, 2})
    b = make_natset({2, 5})
    assert sr_add(a, b) == make_natset({1, 2, 5})
    assert sr_mul(a, b) == make_natset({2})
    # the all-naturals sentinel absorbs union and is neutral for intersection
    assert sr_add(a, NATSET_TOP) == NATSET_TOP
    assert sr_mul(a, NATSET_TOP) == a


def test_is_zero():
    assert sr_is_zero(make_rat(0))
    assert not sr_is_zero(make_rat("1/3"))
    assert sr_is_zero(make_bool(False))
    assert not sr_is_zero(make_bool(True))
    assert sr_is_zero(make_natset(()))
    assert not sr_is_zero(NATSET_TOP)


def test_format_canonical():
    assert sr_format(make_bool(True)) == "true"
    assert sr_format(make_bool(False)) == "false"
    assert sr_format(make_rat(2)) == "2/1"
    assert sr_format(make_rat("3/2")) == "3/2"
    assert sr_format(make_rat(Fraction(4, 6))) == "2/3"
    assert sr_format(make_rat(0)) == "0/1"
    assert sr_format(make_natset(())) == "{}"
    assert sr_format(make_natset({5, 1, 2})) == "{1,2,5}"
    assert sr_format(NATSET_TOP) == "TOP"


def test_tag_mismatch_is_an_error():
    with pytest.raises(SemiringMismatchError):
        sr_add(make_bool(True), make_rat(1))
    with pytest.raises(SemiringMismatchError):
        sr_mul(make_natset({1}), make_rat(1))


def test_value_validation():
    with pytest.raises(ValueError):
        make_rat(-1)
    with pytest.raises(ValueError):
        make_natset({-3})
    with pytest.raises(ValueError):
        make_natset({True})
