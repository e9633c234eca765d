"""Finite-support weight functions.

The semantics of every calculus in this workbench maps a state and a
label to a *weight function*: a map from continuation states to values
of one weight domain, equal to that domain's zero almost everywhere.
:class:`FinFn` is the canonical representation of such a function:
only the non-zero entries are stored, sorted by key, so structural
equality coincides with extensional equality.

Keys are usually canonical term strings.  For the calculus whose
transitions carry probability distributions, the *outer* function's
keys are themselves :class:`FinFn` values (the inner distributions);
both key kinds can be ordered canonically via :func:`key_str`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Tuple, Union

from .errors import FutsError, SemiringMismatchError, UnsupportedDiracError
from .semiring import NATSET, Value, sr_add, sr_constants, sr_format, sr_is_zero, sr_mul

Key = Union[str, "FinFn"]


@dataclass(frozen=True)
class FinFn:
    """A finite-support function into one weight domain.

    ``entries`` holds only non-zero values, sorted by canonical key
    text; construct instances through :func:`ff_make` (or the helpers
    below), never directly, so the canonical invariants hold.
    """

    tag: str
    entries: Tuple[Tuple[Key, Value], ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FinFn({self.tag}, {ff_key(self)})"


def key_str(key: Key) -> str:
    """Canonical text for a key (term string, or nested-function text)."""
    if isinstance(key, FinFn):
        return ff_key(key)
    return key


def ff_key(fn: FinFn) -> str:
    """Canonical text for a whole function, e.g. ``[P -> 1/2, Q -> 1/2]``."""
    parts = (f"{key_str(k)} -> {sr_format(v)}" for k, v in fn.entries)
    return "[" + ", ".join(parts) + "]"


def ff_make(tag: str, pairs: Iterable[Tuple[Key, Value]]) -> FinFn:
    """Build a canonical function, folding duplicate keys by addition

    and dropping entries equal to the domain's zero.
    """
    acc: dict[Key, Value] = {}
    for key, value in pairs:
        if value.tag != tag:
            raise SemiringMismatchError(
                f"entry value from domain {value.tag} in a {tag} function"
            )
        prev = acc.get(key)
        acc[key] = value if prev is None else sr_add(prev, value)
    kept = [(k, v) for k, v in acc.items() if not sr_is_zero(v)]
    kept.sort(key=lambda kv: key_str(kv[0]))
    return FinFn(tag, tuple(kept))


def ff_zero(tag: str) -> FinFn:
    """The constant-zero function of a domain."""
    return FinFn(tag, ())


def ff_add(a: FinFn, b: FinFn) -> FinFn:
    """Pointwise addition of two functions over the same domain."""
    if a.tag != b.tag:
        raise SemiringMismatchError(f"cannot add {a.tag} and {b.tag} functions")
    return ff_make(a.tag, tuple(a.entries) + tuple(b.entries))


def ff_oplus(fn: FinFn) -> Value:
    """Fold the whole function with domain addition (zero when empty).

    For rational functions this is the total mass; for boolean ones,
    whether the function is non-zero anywhere; for set-valued ones,
    the union of all values.
    """
    zero, _ = sr_constants(fn.tag)
    total = zero
    for _, v in fn.entries:
        total = sr_add(total, v)
    return total


def ff_dirac(tag: str, key: Key) -> FinFn:
    """The point mass ``[key -> one]``.

    Unsupported for the natural-set domain: its multiplicative unit is
    the all-naturals sentinel, which is not a value the semantics may
    assign to a single continuation.
    """
    if tag == NATSET:
        raise UnsupportedDiracError(
            "point-mass functions are not defined for the natural-set domain"
        )
    _, one = sr_constants(tag)
    return FinFn(tag, ((key, one),))


def ff_scale(value: Value, fn: FinFn) -> FinFn:
    """Multiply every entry by ``value`` (entries may vanish)."""
    if value.tag != fn.tag:
        raise SemiringMismatchError(f"cannot scale a {fn.tag} function by {value.tag}")
    return ff_make(fn.tag, ((k, sr_mul(value, v)) for k, v in fn.entries))


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
    pairs = []
    seen: set[Hashable] = set()
    for x, av in a.entries:
        for y, bv in b.entries:
            key = ctor(x, y)
            if key in seen:
                raise FutsError(
                    f"key builder is not injective: duplicate {key_str(key)!r}"
                )
            seen.add(key)
            pairs.append((key, sr_mul(av, bv)))
    return ff_make(a.tag, pairs)
