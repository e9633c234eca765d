"""State-to-function semantics of the four calculi.

Each language is given by one or two labelled *step relations*; a step
maps a state (a closed term) and a label to a finite-support weight
function over continuation states:

* ``pepa``: one relation over the action alphabet into non-negative
  rationals (race rates, with the synchronisation rate of a shared
  action bounded by the slower side's total).
* ``iml``: an interactive relation over actions into booleans, plus a
  ``delta`` relation into rationals for exponential delays.
* ``tpc``: an interactive relation over actions into booleans, plus a
  ``tick`` relation into finite sets of naturals collecting the
  amounts of time a state can let pass towards each continuation.
* ``mal``: an action relation whose function is boolean over *inner
  probability distributions* (continuation states weighted by exact
  probabilities), plus a ``delta`` relation like ``iml``'s.

States are integer term ids of one model's hash-consed term table (a
:class:`.syntax.Model`).  A step walker reads a term's shape (its node
over child ids) and builds every continuation from those ids, never from
terms.

A walker memoises in the table (:meth:`.syntax.Model.memo`) the step of
every proper structural child of a choice or composition, so the
operands that states share are walked once per model and a state's step
costs the size of its own step.  The term a walk starts from, and the
constant bodies read from it, are always recomputed.  A model is guarded
by construction (:func:`.syntax.check_guarded`), so a walker steps a
constant as its body, read from ``model.defs``, and every walk ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Tuple

from .fsfun import (
    FinFn,
    ff_add,
    ff_lift_injective,
    ff_make,
    ff_map_keys,
    ff_oplus,
    ff_scale,
    ff_zero,
)
from .semiring import BOOL, NATSET, NNRAT
from .syntax import (
    ActPrefix,
    Choice,
    Coop,
    Model,
    Nil,
    Par,
    ProbPrefix,
    RatedPrefix,
    RatePrefix,
    TimePrefix,
    alphabet,
)
# unused here, but bench/tracing.py wraps sem_futs.term_key (ROADMAP item 7)
from .syntax import term_key  # noqa: F401

ACT = "act"
DELAY = "delay"
TICK = "tick"
MAX_DELAY = "max-delay"  # memo key of tpc_max_delay, beside the relations

DELTA_LABEL = "delta"
TICK_LABEL = "tick"


@dataclass(frozen=True)
class RelationSpec:
    """Shape of one step relation of a language."""

    name: str  # "act" | "delay" | "tick"
    kind: str  # "simple" | "nested"
    tag: str  # weight domain of the (outer) function
    inner_tag: Optional[str]  # weight domain of inner distributions, if nested
    fixed_labels: Optional[Tuple[str, ...]]  # None: the model's action alphabet


_SPECS = {
    "pepa": (RelationSpec(ACT, "simple", NNRAT, None, None),),
    "iml": (
        RelationSpec(ACT, "simple", BOOL, None, None),
        RelationSpec(DELAY, "simple", NNRAT, None, (DELTA_LABEL,)),
    ),
    "tpc": (
        RelationSpec(ACT, "simple", BOOL, None, None),
        RelationSpec(TICK, "simple", NATSET, None, (TICK_LABEL,)),
    ),
    "mal": (
        RelationSpec(ACT, "nested", BOOL, NNRAT, None),
        RelationSpec(DELAY, "simple", NNRAT, None, (DELTA_LABEL,)),
    ),
}


def relation_specs(lang: str) -> Tuple[RelationSpec, ...]:
    try:
        return _SPECS[lang]
    except KeyError:
        raise ValueError(f"unknown language {lang!r}") from None


def relation_labels(spec: RelationSpec, model: Model, roots: Iterable = ()) -> Tuple[str, ...]:
    """The labels of a relation for a model and extra root term ids (sorted)."""
    if spec.fixed_labels is not None:
        return spec.fixed_labels
    return tuple(alphabet(model, roots))


def futs_step(model: Model, term_id: int, relation: str, label: str) -> FinFn:
    """The weight function, over term ids, of term ``term_id`` under
    ``relation``/``label``."""
    lang = model.lang
    try:
        compute = _DISPATCH[(lang, relation)]
    except KeyError:
        raise ValueError(f"language {lang!r} has no relation {relation!r}") from None
    return compute(model, term_id, label, model.memo(relation, label))


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _once(memo: dict, rec: Callable, i: int):
    """``rec(i)``, kept in ``memo``: each term id is walked once per table."""
    found = memo.get(i)
    if found is None:
        found = memo[i] = rec(i)
    return found


def _moves(model: Model, t) -> Tuple[Callable[[int], int], Callable[[int], int]]:
    """Key renamings into the composition shape ``t`` when only its left,

    or only its right, operand moves.  The operand that stays put would
    be a point mass of weight one, so a renaming replaces the product.
    """
    cls = type(t)
    return (
        lambda x: model.intern(cls(t.actions, x, t.right)),
        lambda y: model.intern(cls(t.actions, t.left, y)),
    )


# ---------------------------------------------------------------------------
# pepa: one rated action relation
# ---------------------------------------------------------------------------


def _pepa_act(model: Model, term_id: int, label: str, memo: dict) -> FinFn:
    zero = ff_zero(NNRAT)

    def rec(i: int) -> FinFn:
        t = model.shape(i)
        if isinstance(t, Nil):
            return zero
        if isinstance(t, RatedPrefix):
            if t.action != label:
                return zero
            return ff_make(NNRAT, [(t.cont, t.rate)])
        if isinstance(t, Choice):
            return ff_add(_once(memo, rec, t.left), _once(memo, rec, t.right))
        if isinstance(t, Coop):
            left = _once(memo, rec, t.left)
            right = _once(memo, rec, t.right)
            if label not in t.actions:
                into_left, into_right = _moves(model, t)
                return ff_add(ff_map_keys(into_left, left), ff_map_keys(into_right, right))
            total_left = ff_oplus(left)
            total_right = ff_oplus(right)
            if total_left == 0 or total_right == 0:
                return zero
            # the joint rate of a synchronised action is capped by the
            # slower participant: scale the product of the two
            # functions so its total becomes min of the two totals
            factor = min(total_left, total_right) / (total_left * total_right)
            pair = ff_lift_injective(
                lambda x, y: model.intern(Coop(t.actions, x, y)), left, right
            )
            return ff_scale(factor, pair)
        return rec(model.defs[t.name])

    return rec(term_id)


# ---------------------------------------------------------------------------
# iml / tpc: interactive action relation (boolean)
# ---------------------------------------------------------------------------


def _interactive_act(model: Model, term_id: int, label: str, memo: dict) -> FinFn:
    zero = ff_zero(BOOL)

    def rec(i: int) -> FinFn:
        t = model.shape(i)
        if isinstance(t, (Nil, RatePrefix, TimePrefix)):
            return zero
        if isinstance(t, ActPrefix):
            if t.action != label:
                return zero
            return ff_make(BOOL, [(t.cont, True)])
        if isinstance(t, Choice):
            return ff_add(_once(memo, rec, t.left), _once(memo, rec, t.right))
        if isinstance(t, Par):
            left = _once(memo, rec, t.left)
            right = _once(memo, rec, t.right)
            if label in t.actions:
                return ff_lift_injective(
                    lambda x, y: model.intern(Par(t.actions, x, y)), left, right
                )
            into_left, into_right = _moves(model, t)
            return ff_add(ff_map_keys(into_left, left), ff_map_keys(into_right, right))
        return rec(model.defs[t.name])

    return rec(term_id)


# ---------------------------------------------------------------------------
# iml / mal: exponential-delay relation (rates)
# ---------------------------------------------------------------------------


def _delay_step(model: Model, term_id: int, label: str, memo: dict) -> FinFn:
    zero = ff_zero(NNRAT)

    def rec(i: int) -> FinFn:
        t = model.shape(i)
        if isinstance(t, (Nil, ActPrefix, ProbPrefix)):
            return zero
        if isinstance(t, RatePrefix):
            return ff_make(NNRAT, [(t.cont, t.rate)])
        if isinstance(t, Choice):
            return ff_add(_once(memo, rec, t.left), _once(memo, rec, t.right))
        if isinstance(t, Par):
            # delays always interleave, independent of the action set
            into_left, into_right = _moves(model, t)
            return ff_add(
                ff_map_keys(into_left, _once(memo, rec, t.left)),
                ff_map_keys(into_right, _once(memo, rec, t.right)),
            )
        return rec(model.defs[t.name])

    return rec(term_id)


# ---------------------------------------------------------------------------
# tpc: deterministic-time relation (sets of tick amounts)
# ---------------------------------------------------------------------------


def _tick_step(model: Model, term_id: int, label: str, memo: dict) -> FinFn:
    zero = ff_zero(NATSET)

    def shift(amount: int, fn: FinFn) -> FinFn:
        return ff_make(NATSET, [(k, frozenset(m + amount for m in v)) for k, v in fn.entries])

    def rec(i: int) -> FinFn:
        t = model.shape(i)
        if isinstance(t, (Nil, ActPrefix)):
            return zero
        if isinstance(t, TimePrefix):
            pairs = [
                (model.intern(TimePrefix(t.delay - spent, t.cont)), frozenset({spent}))
                for spent in range(1, t.delay)
            ]
            pairs.append((t.cont, frozenset({t.delay})))
            through = shift(t.delay, rec(t.cont))
            return ff_add(ff_make(NATSET, pairs), through)
        if isinstance(t, Choice):
            # both sides must agree on the amount of time passed
            return ff_lift_injective(
                lambda x, y: model.intern(Choice(x, y)),
                _once(memo, rec, t.left),
                _once(memo, rec, t.right),
            )
        if isinstance(t, Par):
            return ff_lift_injective(
                lambda x, y: model.intern(Par(t.actions, x, y)),
                _once(memo, rec, t.left),
                _once(memo, rec, t.right),
            )
        return rec(model.defs[t.name])

    return rec(term_id)


def tpc_max_delay(model: Model, term_id: int) -> int:
    """The largest amount of time a state can let pass before it must

    act or stop: 0 for inert/action states, delay plus the rest for a
    time prefix, the minimum over branches of a choice or composition.
    Every term's result, the start's included, is memoised in the table.
    """
    memo = model.memo(MAX_DELAY, TICK_LABEL)

    def walk(i: int) -> int:
        t = model.shape(i)
        if isinstance(t, (Nil, ActPrefix)):
            return 0
        if isinstance(t, TimePrefix):
            return t.delay + rec(t.cont)
        if isinstance(t, (Choice, Par)):
            return min(rec(t.left), rec(t.right))
        return rec(model.defs[t.name])

    def rec(i: int) -> int:
        return _once(memo, walk, i)

    return rec(term_id)


# ---------------------------------------------------------------------------
# mal: action relation into sets of probability distributions
# ---------------------------------------------------------------------------


def _mal_act(model: Model, term_id: int, label: str, memo: dict) -> FinFn:
    zero = ff_zero(BOOL)

    def rec(i: int) -> FinFn:
        t = model.shape(i)
        if isinstance(t, (Nil, RatePrefix)):
            return zero
        if isinstance(t, ProbPrefix):
            if t.action != label:
                return zero
            return ff_make(BOOL, [(ff_make(NNRAT, [(c, p) for p, c in t.branches]), True)])
        if isinstance(t, Choice):
            return ff_add(_once(memo, rec, t.left), _once(memo, rec, t.right))
        if isinstance(t, Par):
            left = _once(memo, rec, t.left)
            right = _once(memo, rec, t.right)
            if label in t.actions:
                # the product of two distributions pairs their targets
                pair = partial(ff_lift_injective, lambda x, y: model.intern(Par(t.actions, x, y)))
                return ff_lift_injective(pair, left, right)
            # one side moves: rename the targets inside each distribution
            into_left, into_right = _moves(model, t)
            return ff_add(
                ff_map_keys(lambda mu: ff_map_keys(into_left, mu), left),
                ff_map_keys(lambda mu: ff_map_keys(into_right, mu), right),
            )
        return rec(model.defs[t.name])

    return rec(term_id)


_DISPATCH = {
    ("pepa", ACT): _pepa_act,
    ("iml", ACT): _interactive_act,
    ("iml", DELAY): _delay_step,
    ("tpc", ACT): _interactive_act,
    ("tpc", TICK): _tick_step,
    ("mal", ACT): _mal_act,
    ("mal", DELAY): _delay_step,
}
