"""Weight domains for transition functions.

Three commutative semirings are supported, identified by string tags:

* ``BOOL``   -- truth values; addition is disjunction, product is
  conjunction.
* ``NNRAT``  -- non-negative rationals (exact, via ``fractions``);
  ordinary addition and multiplication.
* ``NATSET`` -- finite sets of natural numbers, where addition is union
  and product is intersection.  Its multiplicative unit is the
  (infinite) set of all naturals, represented by the distinguished
  sentinel :data:`TOP`.  The workbench semantics never produce ``TOP``;
  it exists so the domain has a complete set of constants for
  algebraic-law checks.

All three domains are *zero-sum-free*: a sum of non-zero weights is
never zero (a disjunction of truths, a sum of positive rationals, a
union of non-empty sets).  :mod:`.fsfun` relies on it: adding or
renaming functions that hold only non-zero entries gives only non-zero
entries, so those operators never test a sum against zero.  Products
have no such property: two non-empty sets can be disjoint.

Weights are raw payloads: ``bool``, ``Fraction``, and ``frozenset`` or
``TOP``.  The semiring is a parameter of a whole weight function, not a
tag on each weight: a function's tag selects its :class:`Semiring`
through :func:`semiring_of`, once per function.  Payloads of different
domains may compare equal (``True == Fraction(1)``), so code must never
compare weights from two domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, and_, mul, or_
from typing import Any, Callable

from .errors import SemiringMismatchError

BOOL = "BOOL"
NNRAT = "NNRAT"
NATSET = "NATSET"

TAGS = (BOOL, NNRAT, NATSET)


class _TopType:
    """Sentinel for the set of all naturals (NATSET's product unit)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TOP"


TOP = _TopType()


@dataclass(frozen=True)
class Semiring:
    """The constants and operations of one weight domain, over raw payloads.

    ``fmt`` gives the canonical text of a weight: booleans render as
    ``true``/``false``; rationals always as ``numerator/denominator``
    (so the integer two is ``2/1``); natural sets as ascending
    ``{1,2,5}`` with ``{}`` for the empty set and ``TOP`` for the
    all-naturals sentinel.
    """

    tag: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    fmt: Callable[[Any], str]


def _natset_add(a, b):
    return TOP if a is TOP or b is TOP else a | b


def _natset_mul(a, b):
    if a is TOP:
        return b
    if b is TOP:
        return a
    return a & b


def _natset_fmt(s) -> str:
    if s is TOP:
        return "TOP"
    return "{" + ",".join(str(n) for n in sorted(s)) + "}"


_SEMIRINGS = {
    BOOL: Semiring(BOOL, False, True, or_, and_, lambda b: "true" if b else "false"),
    NNRAT: Semiring(
        NNRAT, Fraction(0), Fraction(1), add, mul, lambda q: f"{q.numerator}/{q.denominator}"
    ),
    NATSET: Semiring(NATSET, frozenset(), TOP, _natset_add, _natset_mul, _natset_fmt),
}


def semiring_of(tag: str) -> Semiring:
    """The semiring a domain tag selects."""
    try:
        return _SEMIRINGS[tag]
    except KeyError:
        raise SemiringMismatchError(f"unknown weight domain tag: {tag!r}") from None
