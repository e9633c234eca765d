"""Unit tests for the weight domains."""

import random
from fractions import Fraction
from operator import attrgetter

import pytest

from futsbench.semiring import BOOL, NATSET, NNRAT, TOP

from modelgen import SEMIRINGS, random_value


@pytest.mark.parametrize("sr", SEMIRINGS, ids=attrgetter("tag"))
def test_semiring_laws_on_random_triples(sr):
    rng = random.Random(20260819)
    zero, one, add, mul = sr.zero, sr.one, sr.add, sr.mul
    for _ in range(300):
        a = random_value(rng, sr)
        b = random_value(rng, sr)
        c = random_value(rng, sr)
        # additive commutative monoid
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, zero) == a
        # multiplicative commutative monoid
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, one) == a
        # distributivity and annihilation
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(a, zero) == zero


@pytest.mark.parametrize("sr", SEMIRINGS, ids=attrgetter("tag"))
def test_sums_of_non_zero_weights_are_never_zero(sr):
    # zero-sum-freeness: fsfun's ff_add and ff_map_keys rely on it
    rng = random.Random(4242)

    def non_zero():
        while True:
            value = random_value(rng, sr)
            if value != sr.zero:
                return value

    for _ in range(500):
        assert sr.add(non_zero(), non_zero()) != sr.zero


def test_constants():
    assert (BOOL.zero, BOOL.one) == (False, True)
    assert (NNRAT.zero, NNRAT.one) == (0, 1)
    assert type(NNRAT.zero) is int and type(NNRAT.one) is int
    assert NATSET.zero == frozenset() and NATSET.one is TOP


def test_natset_union_is_sum_and_intersection_is_product():
    a = frozenset({1, 2})
    b = frozenset({2, 5})
    assert NATSET.add(a, b) == frozenset({1, 2, 5})
    assert NATSET.mul(a, b) == frozenset({2})
    # the all-naturals sentinel absorbs union and is neutral for intersection
    assert NATSET.add(a, TOP) is TOP
    assert NATSET.mul(a, TOP) == a


def test_format_canonical():
    fmt_bool = BOOL.fmt
    fmt_rat = NNRAT.fmt
    fmt_set = NATSET.fmt
    assert fmt_bool(True) == "true"
    assert fmt_bool(False) == "false"
    assert fmt_rat(Fraction(2)) == fmt_rat(2) == "2/1"
    assert fmt_rat(Fraction("3/2")) == "3/2"
    assert fmt_rat(Fraction(4, 6)) == "2/3"
    assert fmt_rat(Fraction(0)) == fmt_rat(0) == "0/1"
    assert fmt_set(frozenset()) == "{}"
    assert fmt_set(frozenset({5, 1, 2})) == "{1,2,5}"
    assert fmt_set(TOP) == "TOP"
