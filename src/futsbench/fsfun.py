"""Finite-support weight functions.

The semantics of every calculus in this workbench maps a state and a
label to a *weight function*: a map from continuation states to values
of one weight domain, equal to that domain's zero almost everywhere.
Such a function is its entries: the tuple of its non-zero ``(key,
weight)`` pairs, sorted by key, so structural equality coincides with
extensional equality, and the zero function is ``()``.  Values are raw
payloads.  The domain is a parameter of the step relation (see
:mod:`.semiring`), not of the function, so every operator here takes
the :class:`.semiring.Semiring` it folds with.

Keys are usually term ids of one model's term table (see
:class:`.syntax.Model`); any mutually ordered hashable keys
work.  For the calculus whose transitions carry probability
distributions, the *outer* function's keys are themselves weight
functions (the inner distributions), which are ordered too.
A composition where one operand moves renames keys (:func:`ff_map_keys`,
or :func:`ff_interleave` for both operands' moves at once); one where
both move pairs them (:func:`ff_lift_injective`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Tuple

from .errors import FutsError
from .semiring import Semiring

Key = Hashable
# a weight function: its non-zero (key, weight) entries, sorted by key;
# build one through ff_make (or the operators below), so those hold
Fn = Tuple[Tuple[Key, Any], ...]


def ff_make(sr: Semiring, pairs: Iterable[Tuple[Key, Any]]) -> Fn:
    """Build a canonical function over ``sr``, folding duplicate keys by
    addition and dropping entries equal to the domain's zero."""
    zero = sr.zero
    return tuple([(k, v) for k, v in _fold(sr, list(pairs)) if v != zero])


def _fold(sr: Semiring, pairs: list) -> Fn:
    """``pairs`` sorted by key, the values of duplicate keys added up by
    ``sr``, with no entry tested against zero.

    Every domain is zero-sum-free (see :mod:`.semiring`), so where every
    value is non-zero the result is canonical as it stands.
    """
    acc = dict(pairs)
    if len(acc) < len(pairs):  # some keys collided: fold them
        add = sr.add
        acc = {}
        for key, value in pairs:
            prev = acc.get(key)
            acc[key] = value if prev is None else add(prev, value)
    return tuple(sorted(acc.items(), key=itemgetter(0)))


def ff_add(sr: Semiring, a: Fn, b: Fn) -> Fn:
    """Pointwise addition of two functions over ``sr``."""
    return _fold(sr, [*a, *b])


def ff_oplus(sr: Semiring, fn: Fn) -> Any:
    """Fold the whole function with ``sr``'s addition (zero when empty).

    For rational functions this is the total mass; for boolean ones,
    whether the function is non-zero anywhere; for set-valued ones,
    the union of all values.
    """
    total = sr.zero
    for _, v in fn:
        total = sr.add(total, v)
    return total


def ff_map_keys(sr: Semiring, fn: Callable[[Key], Key], f: Fn) -> Fn:
    """``f`` with each key ``k`` renamed to ``fn(k)``; colliding keys add up."""
    return _fold(sr, [(fn(k), v) for k, v in f])


def ff_interleave(
    sr: Semiring, left_key: Callable[[Key], Key], f: Fn, right_key: Callable[[Key], Key], g: Fn
) -> Fn:
    """``ff_add(sr, ff_map_keys(sr, left_key, f), ff_map_keys(sr, right_key,
    g))`` in one fold: the moves of a composition where either operand
    moves alone."""
    pairs = [(left_key(k), v) for k, v in f]
    pairs += [(right_key(k), v) for k, v in g]
    return _fold(sr, pairs)


def ff_scale(sr: Semiring, value: Any, fn: Fn) -> Fn:
    """Multiply every entry by ``value``, a payload of ``sr`` (entries may
    vanish, so the result goes through :func:`ff_make`).
    """
    mul = sr.mul
    return ff_make(sr, ((k, mul(value, v)) for k, v in fn))


def ff_lift_injective(sr: Semiring, ctor: Callable[[Key, Key], Key], a: Fn, b: Fn) -> Fn:
    """Combine two functions over ``sr`` through an injective binary key
    builder.

    The result maps ``ctor(x, y)`` to the product ``a(x) * b(y)`` for
    every pair of support keys.  ``ctor`` must be injective on those
    pairs; a collision indicates a broken builder and is reported.
    """
    mul = sr.mul
    pairs = []
    seen: set[Hashable] = set()
    for x, av in a:
        for y, bv in b:
            key = ctor(x, y)
            if key in seen:
                raise FutsError(f"key builder is not injective: duplicate {key!r}")
            seen.add(key)
            pairs.append((key, mul(av, bv)))
    # a product of non-zero weights can vanish (disjoint NATSET sets)
    return ff_make(sr, pairs)
