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
:class:`.syntax.Model`).  Each relation is one *rule*: a term's step from
its shape (its node over child ids) and its operands' steps, with every
continuation built from ids, never from terms.  The children-first
evaluator :func:`.syntax.evaluate` runs a rule over a term, through the
forms the step walks through, and keeps its operands' steps in the table
(:meth:`.syntax.Model.memo`); its docstring states what is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    Par,
    ProbPrefix,
    RatedPrefix,
    RatePrefix,
    STEP_FORMS,
    TIMED_FORMS,
    TimePrefix,
    alphabet,
    evaluate,
)
# unused here, but bench/tracing.py wraps sem_futs.term_key (ROADMAP item 3)
from .syntax import term_key  # noqa: F401

ACT = "act"
DELAY = "delay"
TICK = "tick"
MAX_DELAY = "max-delay"  # memo key of tpc_max_delay, beside the relations

DELTA_LABEL = "delta"
TICK_LABEL = "tick"


@dataclass(frozen=True)
class RelationSpec:
    """Shape of one step relation of a language, and the rule that steps it."""

    name: str  # "act" | "delay" | "tick"
    kind: str  # "simple" | "nested"
    tag: str  # weight domain of the (outer) function
    inner_tag: Optional[str]  # weight domain of inner distributions, if nested
    fixed_labels: Optional[Tuple[str, ...]]  # None: the model's action alphabet
    rule: Callable  # a term's step from its shape and its operands' steps
    through: tuple  # the forms the step walks through (see .syntax.evaluate)


def relation_specs(lang: str) -> Tuple[RelationSpec, ...]:
    return tuple(_SPECS[lang].values())


def relation_labels(spec: RelationSpec, model: Model, roots: Iterable = ()) -> Tuple[str, ...]:
    """The labels of a relation for a model and extra root term ids (sorted)."""
    if spec.fixed_labels is not None:
        return spec.fixed_labels
    return tuple(alphabet(model, roots))


def futs_step(model: Model, term_id: int, relation: str, label: str) -> FinFn:
    """The weight function, over term ids, of term ``term_id`` under
    ``relation``/``label``.

    The relation's memo (:meth:`.syntax.Model.memo`), the forms its step
    walks through and its rule bound to the model and label are kept
    together in ``model.walks``, made on the first step of each relation
    and label.
    """
    walk = model.walks.get((relation, label))
    if walk is None:
        spec = _SPECS[model.lang].get(relation)
        if spec is None:
            raise ValueError(f"language {model.lang!r} has no relation {relation!r}")
        walk = model.walks[relation, label] = (
            model.memo(relation, label),
            spec.through,
            partial(spec.rule, model, label),
        )
    memo, through, bound = walk
    return evaluate(term_id, model.shape, model.defs, through, memo, bound)


def _moves(model: Model, t) -> Tuple[Callable[[int], int], Callable[[int], int]]:
    """Key renamings into the composition shape ``t`` when only its left,
    or only its right, operand moves.

    The operand that stays put would be a point mass of weight one, so a
    renaming replaces the product.
    """
    intern, form, actions, left, right = model.intern, type(t), t.actions, t.left, t.right
    return (
        lambda x: intern(form, actions, x, right),
        lambda y: intern(form, actions, left, y),
    )


# ---------------------------------------------------------------------------
# pepa: one rated action relation
# ---------------------------------------------------------------------------


def _pepa_act(model: Model, label: str, t, step_of: Callable[[int], FinFn]) -> FinFn:
    if isinstance(t, RatedPrefix):
        if t.action != label:
            return ff_zero(NNRAT)
        return ff_make(NNRAT, [(t.cont, t.rate)])
    if isinstance(t, Choice):
        return ff_add(step_of(t.left), step_of(t.right))
    if isinstance(t, Coop):
        left = step_of(t.left)
        right = step_of(t.right)
        if label not in t.actions:
            into_left, into_right = _moves(model, t)
            return ff_add(ff_map_keys(into_left, left), ff_map_keys(into_right, right))
        total_left = ff_oplus(left)
        total_right = ff_oplus(right)
        if total_left == 0 or total_right == 0:
            return ff_zero(NNRAT)
        # the joint rate of a synchronised action is capped by the
        # slower participant: scale the product of the two
        # functions so its total becomes min of the two totals
        factor = Fraction(min(total_left, total_right), total_left * total_right)
        if factor.denominator == 1:  # integral weights are ints
            factor = factor.numerator
        pair = ff_lift_injective(partial(model.intern, Coop, t.actions), left, right)
        return ff_scale(factor, pair)
    return ff_zero(NNRAT)  # nil


# ---------------------------------------------------------------------------
# iml / tpc: interactive action relation (boolean)
# ---------------------------------------------------------------------------


def _interactive_act(model: Model, label: str, t, step_of: Callable[[int], FinFn]) -> FinFn:
    if isinstance(t, ActPrefix):
        if t.action != label:
            return ff_zero(BOOL)
        return ff_make(BOOL, [(t.cont, True)])
    if isinstance(t, Choice):
        return ff_add(step_of(t.left), step_of(t.right))
    if isinstance(t, Par):
        left = step_of(t.left)
        right = step_of(t.right)
        if label in t.actions:
            return ff_lift_injective(partial(model.intern, Par, t.actions), left, right)
        into_left, into_right = _moves(model, t)
        return ff_add(ff_map_keys(into_left, left), ff_map_keys(into_right, right))
    return ff_zero(BOOL)  # nil, a delay


# ---------------------------------------------------------------------------
# iml / mal: exponential-delay relation (rates)
# ---------------------------------------------------------------------------


def _delay_step(model: Model, label: str, t, step_of: Callable[[int], FinFn]) -> FinFn:
    if isinstance(t, RatePrefix):
        return ff_make(NNRAT, [(t.cont, t.rate)])
    if isinstance(t, Choice):
        return ff_add(step_of(t.left), step_of(t.right))
    if isinstance(t, Par):
        # delays always interleave, independent of the action set
        into_left, into_right = _moves(model, t)
        return ff_add(
            ff_map_keys(into_left, step_of(t.left)),
            ff_map_keys(into_right, step_of(t.right)),
        )
    return ff_zero(NNRAT)  # nil, an action


# ---------------------------------------------------------------------------
# tpc: deterministic-time relation (sets of tick amounts)
# ---------------------------------------------------------------------------


def _tick_step(model: Model, label: str, t, step_of: Callable[[int], FinFn]) -> FinFn:
    if isinstance(t, TimePrefix):
        after = step_of(t.cont)
        pairs = [
            (model.intern(TimePrefix, t.delay - spent, t.cont), frozenset({spent}))
            for spent in range(1, t.delay)
        ]
        pairs.append((t.cont, frozenset({t.delay})))
        # time the continuation lets pass extends the whole delay
        pairs += [(k, frozenset(m + t.delay for m in v)) for k, v in after.entries]
        return ff_make(NATSET, pairs)
    if isinstance(t, Choice):
        # both sides must agree on the amount of time passed
        return ff_lift_injective(partial(model.intern, Choice), step_of(t.left), step_of(t.right))
    if isinstance(t, Par):
        return ff_lift_injective(
            partial(model.intern, Par, t.actions), step_of(t.left), step_of(t.right)
        )
    return ff_zero(NATSET)  # nil, an action


def _max_delay(t, delay_of: Callable[[int], int]) -> int:
    if isinstance(t, TimePrefix):
        return t.delay + delay_of(t.cont)
    if isinstance(t, (Choice, Par)):
        return min(delay_of(t.left), delay_of(t.right))
    return 0  # nil, an action


def tpc_max_delay(model: Model, term_id: int) -> int:
    """The largest amount of time a state can let pass before it must
    act or stop: 0 for inert/action states, delay plus the rest for a
    time prefix, the minimum over branches of a choice or composition."""
    memo = model.memo(MAX_DELAY, TICK_LABEL)
    return evaluate(term_id, model.shape, model.defs, TIMED_FORMS, memo, _max_delay)


# ---------------------------------------------------------------------------
# mal: action relation into sets of probability distributions
# ---------------------------------------------------------------------------


def _mal_act(model: Model, label: str, t, step_of: Callable[[int], FinFn]) -> FinFn:
    if isinstance(t, ProbPrefix):
        if t.action != label:
            return ff_zero(BOOL)
        return ff_make(BOOL, [(ff_make(NNRAT, [(c, p) for p, c in t.branches]), True)])
    if isinstance(t, Choice):
        return ff_add(step_of(t.left), step_of(t.right))
    if isinstance(t, Par):
        left = step_of(t.left)
        right = step_of(t.right)
        if label in t.actions:
            # the product of two distributions pairs their targets
            pair = partial(ff_lift_injective, partial(model.intern, Par, t.actions))
            return ff_lift_injective(pair, left, right)
        # one side moves: rename the targets inside each distribution
        into_left, into_right = _moves(model, t)
        return ff_add(
            ff_map_keys(lambda mu: ff_map_keys(into_left, mu), left),
            ff_map_keys(lambda mu: ff_map_keys(into_right, mu), right),
        )
    return ff_zero(BOOL)  # nil, a delay


# each language's relations, by name, in the order a state's steps list them
_SPECS = {
    "pepa": {ACT: RelationSpec(ACT, "simple", NNRAT, None, None, _pepa_act, STEP_FORMS)},
    "iml": {
        ACT: RelationSpec(ACT, "simple", BOOL, None, None, _interactive_act, STEP_FORMS),
        DELAY: RelationSpec(DELAY, "simple", NNRAT, None, (DELTA_LABEL,), _delay_step, STEP_FORMS),
    },
    "tpc": {
        ACT: RelationSpec(ACT, "simple", BOOL, None, None, _interactive_act, STEP_FORMS),
        TICK: RelationSpec(TICK, "simple", NATSET, None, (TICK_LABEL,), _tick_step, TIMED_FORMS),
    },
    "mal": {
        ACT: RelationSpec(ACT, "nested", BOOL, NNRAT, None, _mal_act, STEP_FORMS),
        DELAY: RelationSpec(DELAY, "simple", NNRAT, None, (DELTA_LABEL,), _delay_step, STEP_FORMS),
    },
}
