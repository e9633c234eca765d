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

States are identified by integer term ids: a :class:`StepContext` is
the hash-consed term table of one model, and every step function maps
term ids to weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import DelayCycleError, FutsError, UnguardedRecursionError
from .fsfun import (
    FinFn,
    ff_add,
    ff_dirac,
    ff_lift_injective,
    ff_make,
    ff_oplus,
    ff_scale,
    ff_zero,
)
from .semiring import BOOL, NATSET, NNRAT, TOP
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
    Term,
    TimePrefix,
    alphabet,
    map_children,
    term_key,
    unfold,
)

ACT = "act"
DELAY = "delay"
TICK = "tick"

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


def relation_labels(spec: RelationSpec, model: Model) -> Tuple[str, ...]:
    """The labels of a relation for a concrete model (sorted)."""
    if spec.fixed_labels is not None:
        return spec.fixed_labels
    return tuple(alphabet(model))


class StepContext:
    """The hash-consed term table of one model (Filliatre & Conchon, 2006).

    Each distinct term is stored once, under a dense id, as a node whose
    subterms are stored nodes too.  ``registry`` finds a term by its
    *shape*: the node with each subterm replaced by its id, so one lookup
    compares the class, the node's own fields and its children's ids.
    Canonical text is rendered on first use, once per id.
    """

    def __init__(self, model: Model):
        relation_specs(model.lang)  # validates the language
        self.model = model
        self.registry: dict = {}  # shape -> id
        self._terms: list = []  # id -> stored node
        self._by_object: dict = {}  # id() of a registered object -> term id
        self._held: list = []  # registered outside objects, so id() stays unique
        self._texts: dict = {}
        self.init_id = self.register(model.init)

    def intern(self, shape) -> int:
        """The id of the term that ``shape`` (a node over child ids) stands for."""
        found = self.registry.get(shape)
        if found is None:
            found = self.registry[shape] = len(self._terms)
            node = map_children(shape, self._terms.__getitem__)
            self._terms.append(node)
            self._by_object[id(node)] = found
        return found

    def register(self, term: Term) -> int:
        """The id of ``term``, interning it and its subterms if they are new."""
        found = self._by_object.get(id(term))
        if found is None:
            found = self.intern(map_children(term, self.register))
            self._by_object[id(term)] = found
            self._held.append(term)
        return found

    def term_of(self, term_id: int) -> Term:
        return self._terms[term_id]

    def text(self, term_id: int) -> str:
        """Canonical text of a term (:func:`term_key`), rendered once."""
        text = self._texts.get(term_id)
        if text is None:
            text = self._texts[term_id] = term_key(self._terms[term_id])
        return text


def futs_step(ctx: StepContext, term_id: int, relation: str, label: str) -> FinFn:
    """The weight function, over term ids, of term ``term_id`` under
    ``relation``/``label``."""
    lang = ctx.model.lang
    try:
        compute = _DISPATCH[(lang, relation)]
    except KeyError:
        raise ValueError(f"language {lang!r} has no relation {relation!r}") from None
    return compute(ctx, ctx.term_of(term_id), label)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _pair_ctor(ctx: StepContext, cls, actions: frozenset) -> Callable[[int, int], int]:
    """Id builder recombining two continuation states under a binary

    composition operator; injective because ids identify terms.
    """
    return lambda left, right: ctx.intern(cls(actions, left, right))


# ---------------------------------------------------------------------------
# pepa: one rated action relation
# ---------------------------------------------------------------------------


def _pepa_act(ctx: StepContext, term: Term, label: str) -> FinFn:
    zero = ff_zero(NNRAT)
    active: set = set()

    def rec(t: Term) -> FinFn:
        if isinstance(t, Nil):
            return zero
        if isinstance(t, RatedPrefix):
            if t.action != label:
                return zero
            return ff_make(NNRAT, [(ctx.register(t.cont), t.rate)])
        if isinstance(t, Choice):
            return ff_add(rec(t.left), rec(t.right))
        if isinstance(t, Coop):
            ctor = _pair_ctor(ctx, Coop, t.actions)
            left = rec(t.left)
            right = rec(t.right)
            if label not in t.actions:
                moved_left = ff_lift_injective(
                    ctor, left, ff_dirac(NNRAT, ctx.register(t.right))
                )
                moved_right = ff_lift_injective(
                    ctor, ff_dirac(NNRAT, ctx.register(t.left)), right
                )
                return ff_add(moved_left, moved_right)
            total_left = ff_oplus(left)
            total_right = ff_oplus(right)
            if total_left == 0 or total_right == 0:
                return zero
            # the joint rate of a synchronised action is capped by the
            # slower participant: scale the product of the two
            # functions so its total becomes min of the two totals
            factor = min(total_left, total_right) / (total_left * total_right)
            return ff_scale(factor, ff_lift_injective(ctor, left, right))
        return unfold(
            ctx.model, t, active, rec, UnguardedRecursionError, "computing the action step"
        )

    return rec(term)


# ---------------------------------------------------------------------------
# iml / tpc: interactive action relation (boolean)
# ---------------------------------------------------------------------------


def _interactive_act(ctx: StepContext, term: Term, label: str) -> FinFn:
    zero = ff_zero(BOOL)
    active: set = set()

    def rec(t: Term) -> FinFn:
        if isinstance(t, (Nil, RatePrefix, TimePrefix)):
            return zero
        if isinstance(t, ActPrefix):
            if t.action != label:
                return zero
            return ff_make(BOOL, [(ctx.register(t.cont), True)])
        if isinstance(t, Choice):
            return ff_add(rec(t.left), rec(t.right))
        if isinstance(t, Par):
            ctor = _pair_ctor(ctx, Par, t.actions)
            left = rec(t.left)
            right = rec(t.right)
            if label in t.actions:
                return ff_lift_injective(ctor, left, right)
            moved_left = ff_lift_injective(
                ctor, left, ff_dirac(BOOL, ctx.register(t.right))
            )
            moved_right = ff_lift_injective(
                ctor, ff_dirac(BOOL, ctx.register(t.left)), right
            )
            return ff_add(moved_left, moved_right)
        return unfold(
            ctx.model, t, active, rec, UnguardedRecursionError, "computing the action step"
        )

    return rec(term)


# ---------------------------------------------------------------------------
# iml / mal: exponential-delay relation (rates)
# ---------------------------------------------------------------------------


def _delay_step(ctx: StepContext, term: Term, label: str) -> FinFn:
    zero = ff_zero(NNRAT)
    active: set = set()

    def rec(t: Term) -> FinFn:
        if isinstance(t, (Nil, ActPrefix, ProbPrefix)):
            return zero
        if isinstance(t, RatePrefix):
            return ff_make(NNRAT, [(ctx.register(t.cont), t.rate)])
        if isinstance(t, Choice):
            return ff_add(rec(t.left), rec(t.right))
        if isinstance(t, Par):
            # delays always interleave, independent of the action set
            ctor = _pair_ctor(ctx, Par, t.actions)
            moved_left = ff_lift_injective(
                ctor, rec(t.left), ff_dirac(NNRAT, ctx.register(t.right))
            )
            moved_right = ff_lift_injective(
                ctor, ff_dirac(NNRAT, ctx.register(t.left)), rec(t.right)
            )
            return ff_add(moved_left, moved_right)
        return unfold(
            ctx.model, t, active, rec, UnguardedRecursionError, "computing the delay step"
        )

    return rec(term)


# ---------------------------------------------------------------------------
# tpc: deterministic-time relation (sets of tick amounts)
# ---------------------------------------------------------------------------


def _tick_step(ctx: StepContext, term: Term, label: str) -> FinFn:
    zero = ff_zero(NATSET)
    active: set = set()

    def shift(amount: int, fn: FinFn) -> FinFn:
        pairs = []
        for k, v in fn.entries:
            if v is TOP:  # pragma: no cover - semantics never builds TOP
                raise FutsError("cannot shift the all-naturals sentinel")
            pairs.append((k, frozenset(m + amount for m in v)))
        return ff_make(NATSET, pairs)

    def rec(t: Term) -> FinFn:
        if isinstance(t, (Nil, ActPrefix)):
            return zero
        if isinstance(t, TimePrefix):
            cont = ctx.register(t.cont)
            pairs = [
                (ctx.intern(TimePrefix(t.delay - spent, cont)), frozenset({spent}))
                for spent in range(1, t.delay)
            ]
            pairs.append((cont, frozenset({t.delay})))
            through = shift(t.delay, rec(t.cont))
            return ff_add(ff_make(NATSET, pairs), through)
        if isinstance(t, Choice):
            # both sides must agree on the amount of time passed
            return ff_lift_injective(
                lambda left, right: ctx.intern(Choice(left, right)), rec(t.left), rec(t.right)
            )
        if isinstance(t, Par):
            return ff_lift_injective(
                _pair_ctor(ctx, Par, t.actions), rec(t.left), rec(t.right)
            )
        return unfold(
            ctx.model, t, active, rec, DelayCycleError, "computing the timed step"
        )

    return rec(term)


def tpc_max_delay(ctx: StepContext, term_id: int) -> int:
    """The largest amount of time a state can let pass before it must

    act or stop: 0 for inert/action states, delay plus the rest for a
    time prefix, the minimum over branches of a choice or composition.
    """
    active: set = set()

    def rec(t: Term) -> int:
        if isinstance(t, (Nil, ActPrefix)):
            return 0
        if isinstance(t, TimePrefix):
            return t.delay + rec(t.cont)
        if isinstance(t, (Choice, Par)):
            return min(rec(t.left), rec(t.right))
        return unfold(
            ctx.model, t, active, rec, DelayCycleError, "computing the maximal delay"
        )

    return rec(ctx.term_of(term_id))


# ---------------------------------------------------------------------------
# mal: action relation into sets of probability distributions
# ---------------------------------------------------------------------------


def _mal_act(ctx: StepContext, term: Term, label: str) -> FinFn:
    zero = ff_zero(BOOL)
    active: set = set()

    def outer_dirac(inner: FinFn) -> FinFn:
        return ff_make(BOOL, [(inner, True)])

    def rec(t: Term) -> FinFn:
        if isinstance(t, (Nil, RatePrefix)):
            return zero
        if isinstance(t, ProbPrefix):
            if t.action != label:
                return zero
            inner = ff_make(
                NNRAT, [(ctx.register(cont), p) for p, cont in t.branches]
            )
            return outer_dirac(inner)
        if isinstance(t, Choice):
            return ff_add(rec(t.left), rec(t.right))
        if isinstance(t, Par):
            inner_ctor = _pair_ctor(ctx, Par, t.actions)

            def inner_par(mu1: FinFn, mu2: FinFn) -> FinFn:
                return ff_lift_injective(inner_ctor, mu1, mu2)

            left = rec(t.left)
            right = rec(t.right)
            if label in t.actions:
                return ff_lift_injective(inner_par, left, right)
            still_right = outer_dirac(ff_dirac(NNRAT, ctx.register(t.right)))
            still_left = outer_dirac(ff_dirac(NNRAT, ctx.register(t.left)))
            return ff_add(
                ff_lift_injective(inner_par, left, still_right),
                ff_lift_injective(inner_par, still_left, right),
            )
        return unfold(
            ctx.model, t, active, rec, UnguardedRecursionError, "computing the action step"
        )

    return rec(term)


_DISPATCH = {
    ("pepa", ACT): _pepa_act,
    ("iml", ACT): _interactive_act,
    ("iml", DELAY): _delay_step,
    ("tpc", ACT): _interactive_act,
    ("tpc", TICK): _tick_step,
    ("mal", ACT): _mal_act,
    ("mal", DELAY): _delay_step,
}
