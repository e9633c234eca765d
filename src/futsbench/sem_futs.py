"""State-to-function semantics of the four calculi.

Each language is given by one or two labelled *step relations*; under
one relation a state (a closed term) steps to a map from labels to
finite-support weight functions over continuation states, the
paper's δᵢ(s) ∈ FS(S, Rᵢ)^Lᵢ:

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
:class:`.syntax.Model`).  Each relation is one *rule*: a term's step, a
dict from each label it can take to that label's non-zero function, from
its shape (its node over child ids) and its operands' steps, with every
continuation built from ids, never from terms.  A choice or composition
merges its operands' dicts once, so one walk gives every label, and a
label an operand cannot take costs nothing.  The children-first
evaluator :func:`.syntax.evaluate` runs a rule over a term, through the
forms the step walks through, and keeps its operands' steps in the table,
one memo per relation (:meth:`.syntax.Model.memo`); its docstring states
what is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Container, Dict, Optional, Tuple

from .fsfun import (
    Fn,
    ff_add,
    ff_interleave,
    ff_lift_injective,
    ff_make,
    ff_map_keys,
    ff_oplus,
    ff_scale,
)
from .semiring import BOOL, NATSET, NNRAT, Semiring
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

Steps = Dict[str, Fn]  # a term's step under one relation: label -> function
# a relation's weight domains, outermost first: two for mal's actions,
# whose keys are distributions, one for every other relation
Layers = Tuple[Semiring, ...]


@dataclass(frozen=True)
class RelationSpec:
    """Shape of one step relation of a language, and the rule that steps it."""

    name: str  # "act" | "delay" | "tick"
    layers: Layers
    fixed_labels: Optional[Tuple[str, ...]]  # None: the model's action alphabet
    rule: Callable  # a term's step from its shape and its operands' steps
    through: tuple  # the forms the step walks through (see .syntax.evaluate)


def relation_specs(lang: str) -> Tuple[RelationSpec, ...]:
    return tuple(_SPECS[lang].values())


def relation_labels(spec: RelationSpec, model: Model) -> Tuple[str, ...]:
    """The labels of a relation for a model (sorted)."""
    if spec.fixed_labels is not None:
        return spec.fixed_labels
    return tuple(alphabet(model))


def futs_step(model: Model, term_id: int, relation: str) -> Steps:
    """The whole step of term ``term_id`` under ``relation``: a dict from
    each label the term can take to its non-zero weight function over term
    ids.  A label the term cannot take is absent.

    One walk gives every label's function.  The relation's memo
    (:meth:`.syntax.Model.memo`), the forms its step walks through and its
    rule bound to the model are kept together in ``model.walks``, made on
    the first step of each relation.  The dict is built afresh on every
    call, and its order is not the labels' order.
    """
    walk = model.walks.get(relation)
    if walk is None:
        spec = _SPECS[model.lang].get(relation)
        if spec is None:
            raise ValueError(f"language {model.lang!r} has no relation {relation!r}")
        walk = model.walks[relation] = (
            model.memo(relation),
            spec.through,
            partial(spec.rule, model),
        )
    memo, through, bound = walk
    return evaluate(term_id, model.shape, model.defs, through, memo, bound)


# A rule returns a term's step as a new dict of non-zero functions, so no
# step is shared with the memo and no label a term cannot take costs a
# function.  A merge lists the left operand's labels first, so steps are
# built, and new terms interned, in the same order in every process.


def _sum(sr: Semiring, left: Steps, right: Steps) -> Steps:
    """A choice's step: its operands' functions over ``sr`` added label by
    label."""
    steps = dict(left)
    for label, g in right.items():
        f = steps.get(label)
        steps[label] = g if f is None else ff_add(sr, f, g)
    return steps


def _compose(
    sr: Semiring,
    model: Model,
    t,
    step_of: Callable[[int], Steps],
    synced: Container[str],
    synchronise: Callable,
    rename: Optional[Callable] = None,
) -> Steps:
    """A composition's step over ``sr``: a label in ``synced`` that both
    operands take from ``synchronise(model, t, f, g)``, every other label
    from the operands' own moves interleaved.

    When one operand moves the other stays put, which would be a point
    mass of weight one, so a renaming of the mover's targets into the
    composition shape ``t`` replaces the product; ``rename`` turns such a
    key renaming into one of the step's keys (for steps keyed by
    distributions).
    """
    left, right = step_of(t.left), step_of(t.right)
    intern, form, actions, lt, rt = model.intern, type(t), t.actions, t.left, t.right

    def into_left(x):
        return intern(form, actions, x, rt)

    def into_right(y):
        return intern(form, actions, lt, y)

    if rename is not None:
        into_left, into_right = rename(into_left), rename(into_right)
    steps = {}
    for label, f in left.items():
        g = right.get(label)
        if label in synced:
            if g is not None:
                steps[label] = synchronise(model, t, f, g)
        elif g is None:
            steps[label] = ff_map_keys(sr, into_left, f)
        else:
            steps[label] = ff_interleave(sr, into_left, f, into_right, g)
    for label, g in right.items():
        if label not in left and label not in synced:
            steps[label] = ff_map_keys(sr, into_right, g)
    return steps


# ---------------------------------------------------------------------------
# pepa: one rated action relation
# ---------------------------------------------------------------------------


def _pepa_sync(model: Model, t, left: Fn, right: Fn) -> Fn:
    # the joint rate of a synchronised action is capped by the slower
    # participant: scale the product of the two functions so its total
    # becomes min of the two totals (both non-zero, as the functions are)
    total_left = ff_oplus(NNRAT, left)
    total_right = ff_oplus(NNRAT, right)
    factor = Fraction(min(total_left, total_right), total_left * total_right)
    pair = ff_lift_injective(NNRAT, partial(model.intern, Coop, t.actions), left, right)
    scaled = ff_scale(NNRAT, factor, pair)
    # a joint rate is an int when integral, as the oracle's is
    return tuple((k, v.numerator if v.denominator == 1 else v) for k, v in scaled)


def _pepa_act(model: Model, t, step_of: Callable[[int], Steps]) -> Steps:
    if isinstance(t, RatedPrefix):
        return {t.action: ff_make(NNRAT, [(t.cont, t.rate)])}
    if isinstance(t, Choice):
        return _sum(NNRAT, step_of(t.left), step_of(t.right))
    if isinstance(t, Coop):
        return _compose(NNRAT, model, t, step_of, t.actions, _pepa_sync)
    return {}  # nil


# ---------------------------------------------------------------------------
# iml / tpc: interactive action relation (boolean)
# ---------------------------------------------------------------------------


def _pair_sync(model: Model, t, left: Fn, right: Fn) -> Fn:
    return ff_lift_injective(BOOL, partial(model.intern, Par, t.actions), left, right)


def _interactive_act(model: Model, t, step_of: Callable[[int], Steps]) -> Steps:
    if isinstance(t, ActPrefix):
        return {t.action: ff_make(BOOL, [(t.cont, True)])}
    if isinstance(t, Choice):
        return _sum(BOOL, step_of(t.left), step_of(t.right))
    if isinstance(t, Par):
        return _compose(BOOL, model, t, step_of, t.actions, _pair_sync)
    return {}  # nil, a delay


# ---------------------------------------------------------------------------
# iml / mal: exponential-delay relation (rates)
# ---------------------------------------------------------------------------


def _delay_step(model: Model, t, step_of: Callable[[int], Steps]) -> Steps:
    if isinstance(t, RatePrefix):
        return {DELTA_LABEL: ff_make(NNRAT, [(t.cont, t.rate)])}
    if isinstance(t, Choice):
        return _sum(NNRAT, step_of(t.left), step_of(t.right))
    if isinstance(t, Par):
        # delays always interleave, independent of the action set
        return _compose(NNRAT, model, t, step_of, (), None)
    return {}  # nil, an action


# ---------------------------------------------------------------------------
# tpc: deterministic-time relation (sets of tick amounts)
# ---------------------------------------------------------------------------


def _tick_step(model: Model, t, step_of: Callable[[int], Steps]) -> Steps:
    if isinstance(t, TimePrefix):
        pairs = [
            (model.intern(TimePrefix, t.delay - spent, t.cont), frozenset({spent}))
            for spent in range(1, t.delay)
        ]
        pairs.append((t.cont, frozenset({t.delay})))
        after = step_of(t.cont).get(TICK_LABEL)
        if after is not None:
            # time the continuation lets pass extends the whole delay
            pairs += [(k, frozenset(m + t.delay for m in v)) for k, v in after]
        return {TICK_LABEL: ff_make(NATSET, pairs)}
    if isinstance(t, (Choice, Par)):
        # both sides must agree on the amount of time passed
        left = step_of(t.left).get(TICK_LABEL)
        right = step_of(t.right).get(TICK_LABEL)
        if left is None or right is None:
            return {}
        if isinstance(t, Choice):
            pair = partial(model.intern, Choice)
        else:
            pair = partial(model.intern, Par, t.actions)
        fn = ff_lift_injective(NATSET, pair, left, right)
        # the sets of time two sides let pass towards a pair can be disjoint
        return {TICK_LABEL: fn} if fn else {}
    return {}  # nil, an action


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
    memo = model.memo(MAX_DELAY)
    return evaluate(term_id, model.shape, model.defs, TIMED_FORMS, memo, _max_delay)


# ---------------------------------------------------------------------------
# mal: action relation into sets of probability distributions
# ---------------------------------------------------------------------------


def _mal_sync(model: Model, t, left: Fn, right: Fn) -> Fn:
    # the product of two distributions pairs their targets
    pair = partial(ff_lift_injective, NNRAT, partial(model.intern, Par, t.actions))
    return ff_lift_injective(BOOL, pair, left, right)


def _within(into: Callable[[int], int]) -> Callable[[Fn], Fn]:
    # one side moves: rename the targets inside each distribution
    return partial(ff_map_keys, NNRAT, into)


def _mal_act(model: Model, t, step_of: Callable[[int], Steps]) -> Steps:
    if isinstance(t, ProbPrefix):
        dist = ff_make(NNRAT, [(c, p) for p, c in t.branches])
        return {t.action: ff_make(BOOL, [(dist, True)])}
    if isinstance(t, Choice):
        return _sum(BOOL, step_of(t.left), step_of(t.right))
    if isinstance(t, Par):
        return _compose(BOOL, model, t, step_of, t.actions, _mal_sync, _within)
    return {}  # nil, a delay


# each language's relations, by name, in the order a state's steps list them
_SPECS = {
    "pepa": {ACT: RelationSpec(ACT, (NNRAT,), None, _pepa_act, STEP_FORMS)},
    "iml": {
        ACT: RelationSpec(ACT, (BOOL,), None, _interactive_act, STEP_FORMS),
        DELAY: RelationSpec(DELAY, (NNRAT,), (DELTA_LABEL,), _delay_step, STEP_FORMS),
    },
    "tpc": {
        ACT: RelationSpec(ACT, (BOOL,), None, _interactive_act, STEP_FORMS),
        TICK: RelationSpec(TICK, (NATSET,), (TICK_LABEL,), _tick_step, TIMED_FORMS),
    },
    "mal": {
        ACT: RelationSpec(ACT, (BOOL, NNRAT), None, _mal_act, STEP_FORMS),
        DELAY: RelationSpec(DELAY, (NNRAT,), (DELTA_LABEL,), _delay_step, STEP_FORMS),
    },
}
