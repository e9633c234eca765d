"""Weight domains for transition functions.

Three commutative semirings are supported, identified by string tags:

* ``BOOL``   -- truth values; addition is disjunction, product is
  conjunction.
* ``NNRAT``  -- non-negative rationals (exact, via ``fractions``);
  ordinary addition and multiplication.
* ``NNSET``  is not a tag; the third domain is ``NATSET`` -- finite
  sets of natural numbers, where addition is union and product is
  intersection.  Its multiplicative unit is the (infinite) set of all
  naturals, represented by the distinguished sentinel :data:`TOP`.
  The workbench semantics never produce ``TOP``; it exists so the
  domain has a complete set of constants for algebraic-law checks.

Values are wrapped in :class:`Value`, which carries the domain tag so
accidental cross-domain arithmetic is diagnosed rather than silently
computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import SemiringMismatchError

BOOL = "BOOL"
NNRAT = "NNRAT"
NATSET = "NATSET"

TAGS = (BOOL, NNRAT, NATSET)


class _TopType:
    """Sentinel for the set of all naturals (NATSET's product unit)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TOP"


TOP = _TopType()

Payload = Union[bool, Fraction, frozenset, _TopType]


@dataclass(frozen=True)
class Value:
    """A tagged element of one of the weight domains."""

    tag: str
    payload: Payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Value({self.tag}, {sr_format(self)})"


def make_bool(b: bool) -> Value:
    return Value(BOOL, bool(b))


def make_rat(x: Union[Fraction, int, str]) -> Value:
    q = Fraction(x)
    if q < 0:
        raise ValueError(f"negative rational weight: {q}")
    return Value(NNRAT, q)


def make_natset(items: Iterable[int]) -> Value:
    s = frozenset(items)
    for n in s:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"natural-number set may only hold naturals, got {n!r}")
    return Value(NATSET, s)


NATSET_TOP = Value(NATSET, TOP)


def _check_tag(tag: str) -> None:
    if tag not in TAGS:
        raise SemiringMismatchError(f"unknown weight domain tag: {tag!r}")


def _check_same(a: Value, b: Value) -> None:
    if a.tag != b.tag:
        raise SemiringMismatchError(
            f"cannot combine values from domains {a.tag} and {b.tag}"
        )
    _check_tag(a.tag)


def sr_constants(tag: str) -> tuple[Value, Value]:
    """Return the (zero, one) constants of the domain ``tag``."""
    _check_tag(tag)
    if tag == BOOL:
        return make_bool(False), make_bool(True)
    if tag == NNRAT:
        return Value(NNRAT, Fraction(0)), Value(NNRAT, Fraction(1))
    return Value(NATSET, frozenset()), NATSET_TOP


def sr_add(a: Value, b: Value) -> Value:
    """Domain addition: disjunction / rational sum / set union."""
    _check_same(a, b)
    if a.tag == BOOL:
        return make_bool(a.payload or b.payload)
    if a.tag == NNRAT:
        return Value(NNRAT, a.payload + b.payload)
    if a.payload is TOP or b.payload is TOP:
        return NATSET_TOP
    return Value(NATSET, a.payload | b.payload)


def sr_mul(a: Value, b: Value) -> Value:
    """Domain product: conjunction / rational product / set intersection."""
    _check_same(a, b)
    if a.tag == BOOL:
        return make_bool(a.payload and b.payload)
    if a.tag == NNRAT:
        return Value(NNRAT, a.payload * b.payload)
    if a.payload is TOP:
        return b
    if b.payload is TOP:
        return a
    return Value(NATSET, a.payload & b.payload)


def sr_is_zero(v: Value) -> bool:
    _check_tag(v.tag)
    zero, _ = sr_constants(v.tag)
    return v == zero


def sr_format(v: Value) -> str:
    """Canonical textual form of a value.

    Booleans render as ``true``/``false``; rationals always as
    ``numerator/denominator`` (so the integer two is ``2/1``); natural
    sets as ascending ``{1,2,5}`` with ``{}`` for the empty set and
    ``TOP`` for the all-naturals sentinel.
    """
    _check_tag(v.tag)
    if v.tag == BOOL:
        return "true" if v.payload else "false"
    if v.tag == NNRAT:
        q = v.payload
        return f"{q.numerator}/{q.denominator}"
    if v.payload is TOP:
        return "TOP"
    return "{" + ",".join(str(n) for n in sorted(v.payload)) + "}"

