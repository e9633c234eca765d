"""Finite-support weight functions.

The semantics of every calculus in this workbench maps a state and a
label to a *weight function*: a map from continuation states to values
of one weight domain, equal to that domain's zero almost everywhere.
:class:`FinFn` is the canonical representation of such a function:
only the non-zero entries are stored, sorted by key, so structural
equality coincides with extensional equality.  Values are raw payloads;
the function's tag selects its semiring (see :mod:`.semiring`), and
equality compares tags, so functions over different domains never
compare equal even where their payloads do.

Keys are usually term ids of one model's term table (see
:class:`.syntax.Model`); any mutually ordered hashable keys
work.  For the calculus whose transitions carry probability
distributions, the *outer* function's keys are themselves
:class:`FinFn` values (the inner distributions), which are ordered too.
A composition where one operand moves renames keys (:func:`ff_map_keys`,
or :func:`ff_interleave` for both operands' moves at once); one where
both move pairs them (:func:`ff_lift_injective`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Tuple

from .errors import FutsError, SemiringMismatchError
from .semiring import semiring_of

Key = Hashable


class FinFn(NamedTuple):
    """A finite-support function into one weight domain.

    ``entries`` holds only non-zero values, sorted by key; construct
    instances through :func:`ff_make` (or the helpers below), never
    directly, so the canonical invariants hold.  Being a tuple, a
    function is immutable, and it is equal, hashed and ordered as the
    pair ``(tag, entries)``, so functions can key an outer function.
    """

    tag: str
    entries: Tuple[Tuple[Key, Any], ...]


# FinFn(tag, entries) without the keyword handling of its generated
# constructor, for the folds that build most functions
_new = tuple.__new__


def ff_make(tag: str, pairs: Iterable[Tuple[Key, Any]]) -> FinFn:
    """Build a canonical function, folding duplicate keys by addition
    and dropping entries equal to the domain's zero.

    Every value must be a payload of the domain ``tag``.
    """
    sr = semiring_of(tag)
    acc: dict[Key, Any] = {}
    for key, value in pairs:
        prev = acc.get(key)
        acc[key] = value if prev is None else sr.add(prev, value)
    kept = [(k, v) for k, v in acc.items() if v != sr.zero]
    kept.sort(key=itemgetter(0))
    return _new(FinFn, (tag, tuple(kept)))


def _fold(tag: str, pairs: list) -> FinFn:
    """The canonical function of ``pairs``, whose values are all non-zero
    payloads of the domain ``tag``.

    Duplicate keys add up, and, since every domain is zero-sum-free (see
    :mod:`.semiring`), their sums are non-zero too, so no entry is tested
    against zero.
    """
    acc = dict(pairs)
    if len(acc) < len(pairs):  # some keys collided: fold them
        add = semiring_of(tag).add
        acc = {}
        for key, value in pairs:
            prev = acc.get(key)
            acc[key] = value if prev is None else add(prev, value)
    return _new(FinFn, (tag, tuple(sorted(acc.items(), key=itemgetter(0)))))


def ff_add(a: FinFn, b: FinFn) -> FinFn:
    """Pointwise addition of two functions over the same domain."""
    if a.tag != b.tag:
        raise SemiringMismatchError(f"cannot add {a.tag} and {b.tag} functions")
    return _fold(a.tag, [*a.entries, *b.entries])


def ff_oplus(fn: FinFn) -> Any:
    """Fold the whole function with domain addition (zero when empty).

    For rational functions this is the total mass; for boolean ones,
    whether the function is non-zero anywhere; for set-valued ones,
    the union of all values.
    """
    sr = semiring_of(fn.tag)
    total = sr.zero
    for _, v in fn.entries:
        total = sr.add(total, v)
    return total


def ff_map_keys(fn: Callable[[Key], Key], f: FinFn) -> FinFn:
    """``f`` with each key ``k`` renamed to ``fn(k)``; colliding keys add up."""
    return _fold(f.tag, [(fn(k), v) for k, v in f.entries])


def ff_interleave(
    left_key: Callable[[Key], Key], f: FinFn, right_key: Callable[[Key], Key], g: FinFn
) -> FinFn:
    """``ff_add(ff_map_keys(left_key, f), ff_map_keys(right_key, g))`` in
    one fold: the moves of a composition where either operand moves alone."""
    if f.tag != g.tag:
        raise SemiringMismatchError(f"cannot add {f.tag} and {g.tag} functions")
    pairs = [(left_key(k), v) for k, v in f.entries]
    pairs += [(right_key(k), v) for k, v in g.entries]
    return _fold(f.tag, pairs)


def ff_scale(value: Any, fn: FinFn) -> FinFn:
    """Multiply every entry by ``value``, a payload of ``fn``'s domain
    (entries may vanish, so the result goes through :func:`ff_make`).
    """
    mul = semiring_of(fn.tag).mul
    return ff_make(fn.tag, ((k, mul(value, v)) for k, v in fn.entries))


def ff_lift_injective(
    ctor: Callable[[Key, Key], Key], a: FinFn, b: FinFn
) -> FinFn:
    """Combine two functions through an injective binary key builder.

    The result maps ``ctor(x, y)`` to the product ``a(x) * b(y)`` for
    every pair of support keys.  ``ctor`` must be injective on those
    pairs; a collision indicates a broken builder and is reported.
    """
    if a.tag != b.tag:
        raise SemiringMismatchError(f"cannot combine {a.tag} and {b.tag} functions")
    mul = semiring_of(a.tag).mul
    pairs = []
    seen: set[Hashable] = set()
    for x, av in a.entries:
        for y, bv in b.entries:
            key = ctor(x, y)
            if key in seen:
                raise FutsError(f"key builder is not injective: duplicate {key!r}")
            seen.add(key)
            pairs.append((key, mul(av, bv)))
    # a product of non-zero weights can vanish (disjoint NATSET sets)
    return ff_make(a.tag, pairs)
