"""Unit tests for finite-support weight functions."""

import random
from fractions import Fraction
from operator import attrgetter

import pytest

from futsbench.errors import FutsError
from futsbench.fsfun import (
    ff_add,
    ff_interleave,
    ff_lift_injective,
    ff_make,
    ff_map_keys,
    ff_oplus,
    ff_scale,
)
from futsbench.semiring import BOOL, NATSET, NNRAT, TOP

from idtext import fn_text
from modelgen import SEMIRINGS, random_fn, random_value

each_semiring = pytest.mark.parametrize("sr", SEMIRINGS, ids=attrgetter("tag"))


def test_make_folds_duplicates_drops_zeros_and_sorts():
    fn = ff_make(
        NNRAT,
        [
            ("Q", Fraction("1/2")),
            ("P", Fraction(0)),
            ("A", Fraction("1/3")),
            ("Q", Fraction("1/2")),
        ],
    )
    assert fn == (("A", Fraction("1/3")), ("Q", Fraction(1)))
    # entries that cancel to zero are dropped entirely
    assert ff_make(NATSET, [("P", frozenset())]) == ()
    assert ff_make(BOOL, [("P", False)]) == ()
    # the all-naturals sentinel is not the empty set, so it is kept
    assert ff_make(NATSET, [("P", TOP)]) == (("P", TOP),)


def test_key_rendering():
    assert fn_text((BOOL,), ()) == "[]"
    fn = ff_make(NNRAT, [("b.nil", Fraction(2)), ("a.nil", Fraction("1/2"))])
    assert fn_text((NNRAT,), fn) == "[a.nil -> 1/2, b.nil -> 2/1]"


@each_semiring
def test_add_is_commutative_monoid(sr):
    rng = random.Random(99)
    for _ in range(150):
        a = random_fn(rng, sr)
        b = random_fn(rng, sr)
        c = random_fn(rng, sr)
        assert ff_add(sr, a, b) == ff_add(sr, b, a)
        assert ff_add(sr, ff_add(sr, a, b), c) == ff_add(sr, a, ff_add(sr, b, c))
        assert ff_add(sr, a, ()) == a


@each_semiring
def test_total_weight_is_additive(sr):
    rng = random.Random(7)
    for _ in range(150):
        a = random_fn(rng, sr)
        b = random_fn(rng, sr)
        assert ff_oplus(sr, ff_add(sr, a, b)) == sr.add(ff_oplus(sr, a), ff_oplus(sr, b))
    assert ff_oplus(sr, ()) == sr.zero


@each_semiring
def test_add_and_rename_fold_as_make_does(sr):
    # ff_add and ff_map_keys skip ff_make's zero test: their inputs hold
    # only non-zero weights, whose sums are never zero
    rng = random.Random(31)
    collided = 0
    for _ in range(300):
        a = random_fn(rng, sr)
        b = random_fn(rng, sr)
        assert ff_add(sr, a, b) == ff_make(sr, a + b)
        # a sum is always a new function (there is one empty tuple only)
        assert not a or ff_add(sr, a, ()) is not a
        rename = {f"P{i}": rng.choice(("Q0", "Q1", "Q2")) for i in range(8)}
        pairs = [(rename[k], v) for k, v in a]
        assert ff_map_keys(sr, rename.__getitem__, a) == ff_make(sr, pairs)
        collided += len({k for k, _ in pairs}) < len(pairs)
    assert collided > 20


@each_semiring
def test_interleave_adds_two_renamed_functions(sr):
    # the moves of a composition where either operand moves alone, folded
    # once; renamings may collide within and across the two functions
    rng = random.Random(43)
    collided = 0
    for _ in range(300):
        f = random_fn(rng, sr)
        g = random_fn(rng, sr)
        left = {f"P{i}": rng.choice(("Q0", "Q1", "Q2", "R0")) for i in range(8)}
        right = {f"P{i}": rng.choice(("R0", "R1", "Q2")) for i in range(8)}
        got = ff_interleave(sr, left.__getitem__, f, right.__getitem__, g)
        moved = ff_map_keys(sr, left.__getitem__, f), ff_map_keys(sr, right.__getitem__, g)
        assert got == ff_add(sr, *moved)
        keys = [left[k] for k, _ in f] + [right[k] for k, _ in g]
        collided += len(set(keys)) < len(keys)
    assert collided > 50


def test_a_function_is_an_immutable_tagged_value():
    fn = ff_make(NNRAT, [("Q", Fraction(1, 2)), ("P", 2)])
    with pytest.raises(TypeError):
        fn[0] = ("P", 3)
    with pytest.raises(AttributeError):
        fn.extra = 1
    assert repr(fn) == "(('P', 2), ('Q', Fraction(1, 2)))"
    # equal and hashed by entries
    same = ff_make(NNRAT, [("P", 2), ("Q", Fraction(1, 2))])
    assert fn == same and hash(fn) == hash(same) and len({fn, same}) == 1
    # ordered by entries: totally among the functions of one domain
    rng = random.Random(5)
    fns = [(sr, random_fn(rng, sr)) for _ in range(40) for sr in (BOOL, NNRAT)]
    for sr, a in fns:
        for other, b in fns:
            if other is sr:
                assert [a < b, a == b, b < a].count(True) == 1
    assert () < fn
    # so functions key an outer function, in their order
    outer = ff_make(BOOL, [(fn, True), ((), True), (same, True)])
    assert outer == (((), True), (fn, True))


def test_map_keys_adds_colliding_keys():
    fn = ff_make(NNRAT, [("P1", Fraction(1, 2)), ("P2", Fraction(1, 3)), ("Q", Fraction(1))])
    renamed = ff_map_keys(NNRAT, lambda k: k[0], fn)
    assert renamed == (("P", Fraction(5, 6)), ("Q", Fraction(1)))
    flags = ff_map_keys(BOOL, lambda k: "R", ff_make(BOOL, [("P", True), ("Q", True)]))
    assert flags == ff_make(BOOL, [("R", True)])
    assert ff_map_keys(NATSET, str.lower, ()) == ()


@each_semiring
def test_scale_distributes_over_total(sr):
    rng = random.Random(13)
    for _ in range(150):
        v = random_value(rng, sr)
        a = random_fn(rng, sr)
        assert ff_oplus(sr, ff_scale(sr, v, a)) == sr.mul(v, ff_oplus(sr, a))


@each_semiring
def test_lift_total_is_product_of_totals(sr):
    rng = random.Random(21)

    def pair(x, y):
        return f"({x} | {y})"

    for _ in range(150):
        a = random_fn(rng, sr)
        b = random_fn(rng, sr)
        lifted = ff_lift_injective(sr, pair, a, b)
        assert ff_oplus(sr, lifted) == sr.mul(ff_oplus(sr, a), ff_oplus(sr, b))
        values = dict(lifted)
        for x, av in a:
            for y, bv in b:
                want = sr.mul(av, bv)
                assert values.get(pair(x, y), sr.zero) == want


def test_lift_rejects_non_injective_builder():
    a = ff_make(NNRAT, [("P", Fraction(1)), ("Q", Fraction(1))])
    with pytest.raises(FutsError):
        ff_lift_injective(NNRAT, lambda x, y: "same", a, a)


def test_nested_functions_as_keys():
    inner1 = ff_make(NNRAT, [("P", Fraction("1/2")), ("Q", Fraction("1/2"))])
    inner2 = ff_make(NNRAT, [("P", Fraction(1))])
    outer = ff_make(BOOL, [(inner1, True), (inner2, True)])
    assert dict(outer)[inner1] is True
    rebuilt = ff_make(NNRAT, [("Q", Fraction("1/2")), ("P", Fraction("1/2"))])
    assert dict(outer)[rebuilt] is True
    assert fn_text((BOOL, NNRAT), outer) == "[[P -> 1/1] -> true, [P -> 1/2, Q -> 1/2] -> true]"
