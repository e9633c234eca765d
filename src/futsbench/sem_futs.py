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

States are integer term ids of one model's hash-consed term table, a
:class:`StepContext`.  A step walker reads a term's shape (its node over
child ids) and builds every continuation from those ids, never from terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

from .errors import DelayCycleError, UnguardedRecursionError
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


def relation_labels(spec: RelationSpec, model: Model) -> Tuple[str, ...]:
    """The labels of a relation for a concrete model (sorted)."""
    if spec.fixed_labels is not None:
        return spec.fixed_labels
    return tuple(alphabet(model))


class StepContext:
    """The hash-consed term table of one model (Filliatre & Conchon, 2006).

    Each distinct term is stored once, under a dense id, as its *shape*:
    the node with each subterm replaced by its id.  ``registry`` finds a
    term by its shape, so one lookup compares the class, the node's own
    fields and its children's ids.  ``defs`` maps each constant to its
    body's id.  A term's node over stored subterm nodes (:meth:`term_of`)
    and its canonical text are built on first use, once per id.

    The table also memoises steps: :meth:`memo` holds one dict per
    relation and label, from a term id to its step.  A walker fills it
    for every proper structural child of a choice or composition, so the
    operands that states share (equal subterms have one id) are walked
    once per model and a state's step costs the size of its own step.
    The term a walk starts from, and the constants unfolded from it, are
    always recomputed, and a walk that raises stores nothing for the
    terms it could not finish.
    """

    def __init__(self, model: Model):
        relation_specs(model.lang)  # validates the language
        self.model = model
        self.lang = model.lang
        self.registry: dict = {}  # shape -> id
        self._shapes: list = []  # id -> shape
        self._terms: dict = {}  # id -> stored node, built on first use
        self._texts: dict = {}
        self._memos: dict = {}  # (relation, label) -> {term id -> step}
        self.init_id = self.register(model.init)
        self.defs = {name: self.register(body) for name, body in model.defs.items()}

    def intern(self, shape) -> int:
        """The id of the term that ``shape`` (a node over child ids) stands for."""
        found = self.registry.setdefault(shape, len(self._shapes))
        if found == len(self._shapes):
            self._shapes.append(shape)
        return found

    def register(self, term: Term) -> int:
        """The id of ``term``, built outside the table, interning its new subterms."""
        return self.intern(map_children(term, self.register))

    def term_of(self, term_id: int) -> Term:
        node = self._terms.get(term_id)
        if node is None:
            node = self._terms[term_id] = map_children(self._shapes[term_id], self.term_of)
        return node

    def shape(self, term_id: int):
        """The stored term ``term_id`` as a node whose subterms are ids."""
        return self._shapes[term_id]

    def memo(self, relation: str, label: str) -> dict:
        """The memoised steps of one relation (or :data:`MAX_DELAY`) and

        label, by term id.
        """
        found = self._memos.get((relation, label))
        if found is None:
            found = self._memos[relation, label] = {}
        return found

    def text(self, term_id: int) -> str:
        """Canonical text of a term (:func:`term_key`), rendered once."""
        text = self._texts.get(term_id)
        if text is None:
            text = self._texts[term_id] = term_key(self.term_of(term_id))
        return text


def futs_step(ctx: StepContext, term_id: int, relation: str, label: str) -> FinFn:
    """The weight function, over term ids, of term ``term_id`` under
    ``relation``/``label``."""
    lang = ctx.lang
    try:
        compute = _DISPATCH[(lang, relation)]
    except KeyError:
        raise ValueError(f"language {lang!r} has no relation {relation!r}") from None
    return compute(ctx, term_id, label, ctx.memo(relation, label))


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _once(memo: dict, rec: Callable, i: int):
    """``rec(i)``, kept in ``memo``: each term id is walked once per table."""
    found = memo.get(i)
    if found is None:
        found = memo[i] = rec(i)
    return found


def _moves(ctx: StepContext, t) -> Tuple[Callable[[int], int], Callable[[int], int]]:
    """Key renamings into the composition shape ``t`` when only its left,

    or only its right, operand moves.  The operand that stays put would
    be a point mass of weight one, so a renaming replaces the product.
    """
    cls = type(t)
    return (
        lambda x: ctx.intern(cls(t.actions, x, t.right)),
        lambda y: ctx.intern(cls(t.actions, t.left, y)),
    )


# ---------------------------------------------------------------------------
# pepa: one rated action relation
# ---------------------------------------------------------------------------


def _pepa_act(ctx: StepContext, term_id: int, label: str, memo: dict) -> FinFn:
    zero = ff_zero(NNRAT)
    active: set = set()

    def rec(i: int) -> FinFn:
        t = ctx.shape(i)
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
                into_left, into_right = _moves(ctx, t)
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
                lambda x, y: ctx.intern(Coop(t.actions, x, y)), left, right
            )
            return ff_scale(factor, pair)
        return unfold(ctx, t, active, rec, UnguardedRecursionError, "computing the action step")

    return rec(term_id)


# ---------------------------------------------------------------------------
# iml / tpc: interactive action relation (boolean)
# ---------------------------------------------------------------------------


def _interactive_act(ctx: StepContext, term_id: int, label: str, memo: dict) -> FinFn:
    zero = ff_zero(BOOL)
    active: set = set()

    def rec(i: int) -> FinFn:
        t = ctx.shape(i)
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
                    lambda x, y: ctx.intern(Par(t.actions, x, y)), left, right
                )
            into_left, into_right = _moves(ctx, t)
            return ff_add(ff_map_keys(into_left, left), ff_map_keys(into_right, right))
        return unfold(ctx, t, active, rec, UnguardedRecursionError, "computing the action step")

    return rec(term_id)


# ---------------------------------------------------------------------------
# iml / mal: exponential-delay relation (rates)
# ---------------------------------------------------------------------------


def _delay_step(ctx: StepContext, term_id: int, label: str, memo: dict) -> FinFn:
    zero = ff_zero(NNRAT)
    active: set = set()

    def rec(i: int) -> FinFn:
        t = ctx.shape(i)
        if isinstance(t, (Nil, ActPrefix, ProbPrefix)):
            return zero
        if isinstance(t, RatePrefix):
            return ff_make(NNRAT, [(t.cont, t.rate)])
        if isinstance(t, Choice):
            return ff_add(_once(memo, rec, t.left), _once(memo, rec, t.right))
        if isinstance(t, Par):
            # delays always interleave, independent of the action set
            into_left, into_right = _moves(ctx, t)
            return ff_add(
                ff_map_keys(into_left, _once(memo, rec, t.left)),
                ff_map_keys(into_right, _once(memo, rec, t.right)),
            )
        return unfold(ctx, t, active, rec, UnguardedRecursionError, "computing the delay step")

    return rec(term_id)


# ---------------------------------------------------------------------------
# tpc: deterministic-time relation (sets of tick amounts)
# ---------------------------------------------------------------------------


def _tick_step(ctx: StepContext, term_id: int, label: str, memo: dict) -> FinFn:
    zero = ff_zero(NATSET)
    active: set = set()

    def shift(amount: int, fn: FinFn) -> FinFn:
        return ff_make(NATSET, [(k, frozenset(m + amount for m in v)) for k, v in fn.entries])

    def rec(i: int) -> FinFn:
        t = ctx.shape(i)
        if isinstance(t, (Nil, ActPrefix)):
            return zero
        if isinstance(t, TimePrefix):
            pairs = [
                (ctx.intern(TimePrefix(t.delay - spent, t.cont)), frozenset({spent}))
                for spent in range(1, t.delay)
            ]
            pairs.append((t.cont, frozenset({t.delay})))
            through = shift(t.delay, rec(t.cont))
            return ff_add(ff_make(NATSET, pairs), through)
        if isinstance(t, Choice):
            # both sides must agree on the amount of time passed
            return ff_lift_injective(
                lambda x, y: ctx.intern(Choice(x, y)),
                _once(memo, rec, t.left),
                _once(memo, rec, t.right),
            )
        if isinstance(t, Par):
            return ff_lift_injective(
                lambda x, y: ctx.intern(Par(t.actions, x, y)),
                _once(memo, rec, t.left),
                _once(memo, rec, t.right),
            )
        return unfold(ctx, t, active, rec, DelayCycleError, "computing the timed step")

    return rec(term_id)


def tpc_max_delay(ctx: StepContext, term_id: int) -> int:
    """The largest amount of time a state can let pass before it must

    act or stop: 0 for inert/action states, delay plus the rest for a
    time prefix, the minimum over branches of a choice or composition.
    Every term's result, the start's included, is memoised in the table.
    """
    memo = ctx.memo(MAX_DELAY, TICK_LABEL)
    active: set = set()

    def walk(i: int) -> int:
        t = ctx.shape(i)
        if isinstance(t, (Nil, ActPrefix)):
            return 0
        if isinstance(t, TimePrefix):
            return t.delay + rec(t.cont)
        if isinstance(t, (Choice, Par)):
            return min(rec(t.left), rec(t.right))
        return unfold(ctx, t, active, rec, DelayCycleError, "computing the maximal delay")

    def rec(i: int) -> int:
        return _once(memo, walk, i)

    return rec(term_id)


# ---------------------------------------------------------------------------
# mal: action relation into sets of probability distributions
# ---------------------------------------------------------------------------


def _mal_act(ctx: StepContext, term_id: int, label: str, memo: dict) -> FinFn:
    zero = ff_zero(BOOL)
    active: set = set()

    def rec(i: int) -> FinFn:
        t = ctx.shape(i)
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
                pair = partial(ff_lift_injective, lambda x, y: ctx.intern(Par(t.actions, x, y)))
                return ff_lift_injective(pair, left, right)
            # one side moves: rename the targets inside each distribution
            into_left, into_right = _moves(ctx, t)
            return ff_add(
                ff_map_keys(lambda mu: ff_map_keys(into_left, mu), left),
                ff_map_keys(lambda mu: ff_map_keys(into_right, mu), right),
            )
        return unfold(ctx, t, active, rec, UnguardedRecursionError, "computing the action step")

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
