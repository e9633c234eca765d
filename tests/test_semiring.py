"""Unit tests for the weight domains."""

import random
from fractions import Fraction

import pytest

from futsbench.semiring import TAGS, TOP, semiring_of

from modelgen import random_value


@pytest.mark.parametrize("tag", TAGS)
def test_semiring_laws_on_random_triples(tag):
    rng = random.Random(20260819)
    sr = semiring_of(tag)
    zero, one, add, mul = sr.zero, sr.one, sr.add, sr.mul
    for _ in range(300):
        a = random_value(rng, tag)
        b = random_value(rng, tag)
        c = random_value(rng, tag)
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


@pytest.mark.parametrize("tag", TAGS)
def test_sums_of_non_zero_weights_are_never_zero(tag):
    # zero-sum-freeness: fsfun's ff_add and ff_map_keys rely on it
    rng = random.Random(4242)
    sr = semiring_of(tag)

    def non_zero():
        while True:
            value = random_value(rng, tag)
            if value != sr.zero:
                return value

    for _ in range(500):
        assert sr.add(non_zero(), non_zero()) != sr.zero


def test_constants():
    assert (semiring_of("BOOL").zero, semiring_of("BOOL").one) == (False, True)
    nnrat = semiring_of("NNRAT")
    assert nnrat.zero == Fraction(0) and nnrat.one == Fraction(1)
    natset = semiring_of("NATSET")
    assert natset.zero == frozenset() and natset.one is TOP


def test_natset_union_is_sum_and_intersection_is_product():
    natset = semiring_of("NATSET")
    a = frozenset({1, 2})
    b = frozenset({2, 5})
    assert natset.add(a, b) == frozenset({1, 2, 5})
    assert natset.mul(a, b) == frozenset({2})
    # the all-naturals sentinel absorbs union and is neutral for intersection
    assert natset.add(a, TOP) is TOP
    assert natset.mul(a, TOP) == a


def test_format_canonical():
    fmt_bool = semiring_of("BOOL").fmt
    fmt_rat = semiring_of("NNRAT").fmt
    fmt_set = semiring_of("NATSET").fmt
    assert fmt_bool(True) == "true"
    assert fmt_bool(False) == "false"
    assert fmt_rat(Fraction(2)) == "2/1"
    assert fmt_rat(Fraction("3/2")) == "3/2"
    assert fmt_rat(Fraction(4, 6)) == "2/3"
    assert fmt_rat(Fraction(0)) == "0/1"
    assert fmt_set(frozenset()) == "{}"
    assert fmt_set(frozenset({5, 1, 2})) == "{1,2,5}"
    assert fmt_set(TOP) == "TOP"
