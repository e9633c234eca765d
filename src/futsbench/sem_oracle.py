"""Classical transition-relation semantics, used as an independent oracle.

This module gives each calculus its textbook small-step semantics:
individual transitions (with rates, targets, delays, or probability
distributions) enumerated rule by rule.  It deliberately shares no
code with the state-to-function semantics, so agreement between the two
routes is meaningful evidence of correctness.

That holds for terms too.  The oracle hash-conses terms in a table of
its own, :class:`OracleTerms`, which shares no interning code and no memo
with the model's table: a model's terms come in by their ids there, read
one shape at a time, and the oracle adds nothing to the model.  Each
walker is one rule, run over a table and a term id there by
:func:`.syntax.evaluate`, the children-first traversal that every
per-term walk shares and that decides no transition.  It returns
derivations over ids: ``(rate, target)`` tuples, sets of targets,
``(amount, target)`` sets, or distributions of ``(target, mass)``.  The
table keeps every result it derives, per rule and label, so a target
such as ``Coop(actions, target, right)`` is built in O(1) from its
operands' ids, and a term's derivations cost the size of its operands'
derivations, not of the term.

Derivation tuples keep duplicates: two different proof trees yielding
the same transition both count (their rates add up), which is exactly
what the aggregated quantities defined at the bottom rely on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Dict, FrozenSet, Set, Tuple

from .errors import TimedTransitionCapError
from .syntax import (
    ActPrefix,
    STEP_FORMS,
    TIMED_FORMS,
    Choice,
    Coop,
    Model,
    Par,
    ProbPrefix,
    RatedPrefix,
    RatePrefix,
    TimePrefix,
    evaluate,
    map_children,
    render_cached,
    render_key,
)

TIMED_CAP = 10_000

ZERO = 0


class OracleTerms:
    """The oracle's own hash-consed term table (Filliatre & Conchon, 2006).

    Each distinct term is stored once, under a dense id, as its *shape*:
    the node with each subterm replaced by its id.  A model's terms come in
    by their ids in the model's table (:meth:`of_model`), and the walkers'
    targets as a form and its fields (:meth:`id_of`).  Each id's canonical
    text is rendered once (:meth:`text`).  A table is meant for one
    enumeration: it memoises every walker's result for every subterm it
    reaches (:meth:`derive`).
    """

    def __init__(self, model: Model):
        self._model = model
        self._ids: Dict[tuple, int] = {}  # (form, *fields) of a shape -> id
        self._shapes: list = []  # id -> shape
        self._imported: list = []  # model id -> id, for the model's ids 0, 1, ...
        self._texts: Dict[int, str] = {}
        self._walks: dict = {}  # (rule, label) -> ({term id -> result}, the rule bound)
        if model.defs:
            # importing a term imports every model term with a smaller id too
            self.of_model(max(model.defs.values()))
        # constant name -> its body's id
        self._bodies = {name: self._imported[body] for name, body in model.defs.items()}

    def id_of(self, form: type, *fields) -> int:
        """The id of the term ``form(*fields)``, whose subterm fields are ids;
        the node is built only for a term not yet in the table."""
        shapes = self._shapes
        found = self._ids.setdefault((form, *fields), len(shapes))
        if found == len(shapes):
            shapes.append(form(*fields))
        return found

    def of_model(self, term_id: int) -> int:
        """The id of the model's term ``term_id``.  The model interns children
        before parents, so each model term up to ``term_id`` not imported
        yet is imported in id order, its shape read over the ids of
        subterms imported before it."""
        imported = self._imported
        if term_id >= len(imported):
            ids, shapes, shape_of = self._ids, self._shapes, self._model.shape
            for model_id in range(len(imported), term_id + 1):
                shape = map_children(shape_of(model_id), imported.__getitem__)
                # keyed as in id_of: the form, then its fields in order
                found = ids.setdefault((type(shape), *vars(shape).values()), len(shapes))
                if found == len(shapes):
                    shapes.append(shape)
                imported.append(found)
        return imported[term_id]

    def text(self, term_id: int) -> str:
        """The canonical text of a term (:func:`~futsbench.syntax.term_key`),
        rendered once per id from its subterms' texts."""
        return render_cached(term_id, self._shapes.__getitem__, self._texts, render_key)

    def derive(self, rule, through: tuple, label, term_id: int):
        """``rule``'s result for ``term_id``, kept per rule and label.

        ``rule(table, label, shape, result_of)`` gives a term's result from
        the results of its successors through the forms ``through``
        (:func:`~futsbench.syntax.evaluate`).  A constant is stepped as its
        body, imported from the model by id.
        """
        walk = self._walks.get((rule, label))
        if walk is None:
            walk = self._walks[rule, label] = ({}, partial(rule, self, label))
        memo, bound = walk
        found = memo.get(term_id)
        if found is None:
            found = memo[term_id] = evaluate(
                term_id, self._shapes.__getitem__, self._bodies, through, memo, bound
            )
        return found


# ---------------------------------------------------------------------------
# pepa
# ---------------------------------------------------------------------------


def pepa_apparent_rate(table: OracleTerms, term_id: int, action: str) -> Fraction:
    """Total rate at which a term can perform ``action``, computed
    syntactically: prefixes contribute their rate, choice adds,
    composition adds for free actions and takes the minimum for
    synchronised ones.
    """
    return table.derive(_apparent_rate, STEP_FORMS, action, term_id)


def _apparent_rate(table: OracleTerms, action: str, t, rec) -> Fraction:
    if isinstance(t, RatedPrefix):
        return t.rate if t.action == action else ZERO
    if isinstance(t, Choice):
        return rec(t.left) + rec(t.right)
    if isinstance(t, Coop):
        if action in t.actions:
            return min(rec(t.left), rec(t.right))
        return rec(t.left) + rec(t.right)
    return ZERO  # nil


def pepa_transitions(
    table: OracleTerms, term_id: int, action: str
) -> Tuple[Tuple[Fraction, int], ...]:
    """All rated transitions ``term --action--> target``, one tuple
    element per derivation.
    """
    return table.derive(_pepa_moves, STEP_FORMS, action, term_id)


def _pepa_moves(table: OracleTerms, action: str, t, rec) -> Tuple[Tuple[Fraction, int], ...]:
    if isinstance(t, RatedPrefix):
        if t.action == action:
            return ((t.rate, t.cont),)
        return ()
    if isinstance(t, Choice):
        return rec(t.left) + rec(t.right)
    if isinstance(t, Coop):
        id_of = table.id_of
        left, right = rec(t.left), rec(t.right)
        if action not in t.actions:
            moved = [(rate, id_of(Coop, t.actions, target, t.right)) for rate, target in left]
            moved += [(rate, id_of(Coop, t.actions, t.left, target)) for rate, target in right]
            return tuple(moved)
        if not left or not right:  # a side that cannot take part blocks the action
            return ()
        left_rate = pepa_apparent_rate(table, t.left, action)
        right_rate = pepa_apparent_rate(table, t.right, action)
        capacity = min(left_rate, right_rate)
        out = []
        for rate_l, target_l in left:
            for rate_r, target_r in right:
                # each participant contributes its share of its own
                # capacity; the joint capacity is the smaller one
                rate = Fraction(rate_l * rate_r * capacity, left_rate * right_rate)
                if rate.denominator == 1:  # integral rates are ints
                    rate = rate.numerator
                out.append((rate, id_of(Coop, t.actions, target_l, target_r)))
        return tuple(out)
    return ()  # nil


# ---------------------------------------------------------------------------
# iml / tpc: interactive transitions
# ---------------------------------------------------------------------------


def interactive_transitions(table: OracleTerms, term_id: int, action: str) -> FrozenSet[int]:
    """Targets of ``term --action--> target`` for the languages with
    unrated actions (a plain transition relation, so a set).
    """
    return table.derive(_interactive_moves, STEP_FORMS, action, term_id)


def _interactive_moves(table: OracleTerms, action: str, t, rec) -> FrozenSet[int]:
    if isinstance(t, ActPrefix):
        if t.action == action:
            return frozenset({t.cont})
        return frozenset()
    if isinstance(t, Choice):
        return rec(t.left) | rec(t.right)
    if isinstance(t, Par):
        id_of = table.id_of
        if action in t.actions:
            right = rec(t.right)
            return frozenset(
                id_of(Par, t.actions, target_l, target_r)
                for target_l in rec(t.left)
                for target_r in right
            )
        moved = {id_of(Par, t.actions, target, t.right) for target in rec(t.left)}
        moved |= {id_of(Par, t.actions, t.left, target) for target in rec(t.right)}
        return frozenset(moved)
    return frozenset()  # nil, a delay


# ---------------------------------------------------------------------------
# iml / mal: exponential-delay derivations
# ---------------------------------------------------------------------------


def delay_derivations(table: OracleTerms, term_id: int) -> Tuple[Tuple[Fraction, int], ...]:
    """All rated delay derivations; duplicates count separately."""
    return table.derive(_delay_moves, STEP_FORMS, None, term_id)


def _delay_moves(table: OracleTerms, _, t, rec) -> Tuple[Tuple[Fraction, int], ...]:
    if isinstance(t, RatePrefix):
        return ((t.rate, t.cont),)
    if isinstance(t, Choice):
        return rec(t.left) + rec(t.right)
    if isinstance(t, Par):
        id_of = table.id_of
        moved = [(rate, id_of(Par, t.actions, target, t.right)) for rate, target in rec(t.left)]
        moved += [(rate, id_of(Par, t.actions, t.left, target)) for rate, target in rec(t.right)]
        return tuple(moved)
    return ()  # nil, an action


# ---------------------------------------------------------------------------
# tpc: timed transitions
# ---------------------------------------------------------------------------


def timed_transitions(table: OracleTerms, term_id: int) -> FrozenSet[Tuple[int, int]]:
    """All transitions ``term ==n==> target`` for positive amounts of
    time ``n``.

    A delay prefix can be taken whole, split into a spent and a remaining
    part, or extended by time its continuation can pass; choices and
    compositions advance only in lockstep.  The enumeration is capped at
    :data:`TIMED_CAP` transitions.
    """
    return table.derive(_timed_moves, TIMED_FORMS, None, term_id)


def _capped(result: Set[Tuple[int, int]]) -> FrozenSet[Tuple[int, int]]:
    if len(result) > TIMED_CAP:
        raise TimedTransitionCapError(f"more than {TIMED_CAP} timed transitions from one state")
    return frozenset(result)


def _timed_moves(table: OracleTerms, _, t, rec) -> FrozenSet[Tuple[int, int]]:
    id_of = table.id_of
    if isinstance(t, TimePrefix):
        out = {(t.delay, t.cont)}
        for spent in range(1, t.delay):
            out.add((spent, id_of(TimePrefix, t.delay - spent, t.cont)))
        for amount, target in rec(t.cont):
            out.add((t.delay + amount, target))
        return _capped(out)
    if isinstance(t, (Choice, Par)):
        # both sides wait the same amount, in lockstep
        if isinstance(t, Choice):
            pair = partial(id_of, Choice)
        else:
            pair = partial(id_of, Par, t.actions)
        left, right = rec(t.left), rec(t.right)
        return _capped({(n, pair(x, y)) for n, x in left for m, y in right if n == m})
    return frozenset()  # nil, an action


# ---------------------------------------------------------------------------
# mal: probabilistic action transitions
# ---------------------------------------------------------------------------

Distribution = FrozenSet[Tuple[int, Fraction]]


def merge_distribution(pairs) -> Distribution:
    """Normalise a list of (target, probability) pairs into a
    distribution: probabilities of equal targets add up.  Probabilities
    and their products are positive, so no sum is zero.
    """
    acc: dict = {}
    for target, prob in pairs:
        acc[target] = acc.get(target, ZERO) + prob
    return frozenset(acc.items())


def action_distributions(
    table: OracleTerms, term_id: int, action: str
) -> FrozenSet[Distribution]:
    """The set of probability distributions reachable by one
    ``action`` transition.
    """
    return table.derive(_distribution_moves, STEP_FORMS, action, term_id)


def _distribution_moves(table: OracleTerms, action: str, t, rec) -> FrozenSet[Distribution]:
    if isinstance(t, ProbPrefix):
        if t.action == action:
            return frozenset({merge_distribution((c, p) for p, c in t.branches)})
        return frozenset()
    if isinstance(t, Choice):
        return rec(t.left) | rec(t.right)
    if isinstance(t, Par):
        id_of = table.id_of
        left = rec(t.left)
        right = rec(t.right)
        if action in t.actions:
            return frozenset(
                merge_distribution(
                    (id_of(Par, t.actions, tl, tr), pl * pr)
                    for tl, pl in dist_l
                    for tr, pr in dist_r
                )
                for dist_l in left
                for dist_r in right
            )
        out = {
            merge_distribution((id_of(Par, t.actions, tl, t.right), pl) for tl, pl in dist_l)
            for dist_l in left
        }
        out |= {
            merge_distribution((id_of(Par, t.actions, t.left, tr), pr) for tr, pr in dist_r)
            for dist_r in right
        }
        return frozenset(out)
    return frozenset()  # nil, a delay
