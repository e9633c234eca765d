"""Classical transition-relation semantics, used as an independent oracle.

This module gives each calculus its textbook small-step semantics:
individual transitions (with rates, targets, delays, or probability
distributions) enumerated rule by rule.  It deliberately shares no
code with the state-to-function semantics, so agreement between the two
routes is meaningful evidence of correctness.

That holds for terms too.  The oracle hash-conses terms in a table of
its own, :class:`OracleTerms`, which shares no interning or memo code with
the model's table: a model's terms come in as nodes, and the oracle adds
nothing to the model.  Each walker takes a table and a term id there, and
returns derivations over ids: ``(rate, target)`` tuples, sets of
targets, ``(amount, target)`` sets, or distributions of
``(target, mass)``.  Results are memoised in the table per walker, label
and subterm, so a target such as ``Coop(actions, target, right)`` is
built in O(1) from its operands' ids, and a term's derivations cost the
size of its operands' derivations, not of the term.

Derivation tuples keep duplicates: two different proof trees yielding
the same transition both count (their rates add up), which is exactly
what the aggregated quantities defined at the bottom rely on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, FrozenSet, Set, Tuple

from .errors import TimedTransitionCapError
from .syntax import (
    ActPrefix,
    Choice,
    Const,
    Coop,
    Model,
    Par,
    ProbPrefix,
    RatedPrefix,
    RatePrefix,
    Term,
    TimePrefix,
    children,
    map_children,
    render_key,
)

TIMED_CAP = 10_000

ZERO = Fraction(0)


class OracleTerms:
    """The oracle's own hash-consed term table (Filliatre & Conchon, 2006).

    Each distinct term is stored once, under a dense id, as its *shape*:
    the node with each subterm replaced by its id.  Terms come in as nodes
    (:meth:`add`), and the walkers' targets as a form and its fields
    (:meth:`id_of`).  Each id's canonical text is rendered once
    (:meth:`text`).  A table is meant for one enumeration: it memoises
    every walker's result for every subterm it reaches (:meth:`derive`),
    and holds every node it was given.
    """

    def __init__(self, model: Model):
        self._ids: Dict[tuple, int] = {}  # (form, *fields) of a shape -> id
        self._shapes: list = []  # id -> shape
        self._added: Dict[int, int] = {}  # id(node) -> the node's id
        self._nodes: list = []  # every node added, kept alive so no other object gets its id()
        self._texts: Dict[int, str] = {}
        self._walks: dict = {}  # (rule, label) -> its memoised walk
        self._bodies = model.bodies()  # constant -> its body, a node
        self._body_shapes: Dict[str, Any] = {}

    def id_of(self, form: type, *fields) -> int:
        """The id of the term ``form(*fields)``, whose subterm fields are ids;
        the node is built only for a term not yet in the table."""
        shapes = self._shapes
        found = self._ids.setdefault((form, *fields), len(shapes))
        if found == len(shapes):
            shapes.append(form(*fields))
        return found

    def add(self, term: Term) -> int:
        """The id of ``term``, a node, added children first with an explicit
        stack.  Nodes are known by identity, since hashing one walks all of
        it, so each node object is added once."""
        added, ids, shapes = self._added, self._ids, self._shapes
        if id(term) in added:
            return added[id(term)]

        def id_of_node(node: Term) -> int:
            return added[id(node)]

        stack = [term]
        while stack:
            node = stack[-1]
            if id(node) in added:
                stack.pop()
                continue
            missing = [sub for sub in children(node) if id(sub) not in added]
            if missing:
                stack += missing
                continue
            stack.pop()
            shape = map_children(node, id_of_node)
            # keyed as in id_of: the form, then its fields in order
            found = ids.setdefault((type(shape), *vars(shape).values()), len(shapes))
            if found == len(shapes):
                shapes.append(shape)
            added[id(node)] = found
            self._nodes.append(node)
        return added[id(term)]

    def text(self, term_id: int) -> str:
        """The canonical text of a term (:func:`~futsbench.syntax.term_key`),
        rendered once per id from its subterms' texts, with an explicit stack."""
        shapes, texts = self._shapes, self._texts
        stack = [term_id]
        while stack:
            t = stack.pop()
            if t < 0:  # ~t, whose subterms have their texts
                texts[~t] = render_key(shapes[~t], texts.__getitem__)
            elif t not in texts:
                pending = [sub for sub in children(shapes[t]) if sub not in texts]
                if pending:
                    stack.append(~t)
                    stack += pending
                else:
                    texts[t] = render_key(shapes[t], texts.__getitem__)
        return texts[term_id]

    def _body(self, name: str):
        """The body of constant ``name`` as a shape over ids, built once.

        The body's subterms are added, but not the body itself: it is
        stepped only through its constant, under whose id its results are
        kept."""
        shape = self._body_shapes.get(name)
        if shape is None:
            shape = self._body_shapes[name] = map_children(self._bodies[name], self.add)
        return shape

    def derive(self, rule, label, term_id: int):
        """``rule``'s result for ``term_id``, memoised per rule and label.

        ``rule(shape, rec, table, label)`` gives a term's result, reading
        the results of the shape's subterms through ``rec``, which computes
        each one once.  A constant is stepped as its body.
        """
        rec = self._walks.get((rule, label))
        if rec is None:
            rec = self._walks[rule, label] = self._walk(rule, label)
        return rec(term_id)

    def _walk(self, rule, label):
        done: dict = {}  # term id -> result
        shapes, body = self._shapes, self._body

        def rec(t: int):
            found = done.get(t)
            if found is None:
                shape = shapes[t]
                while isinstance(shape, Const):  # ends: models are guarded
                    shape = body(shape.name)
                found = done[t] = rule(shape, rec, self, label)
            return found

        return rec


# ---------------------------------------------------------------------------
# pepa
# ---------------------------------------------------------------------------


def pepa_apparent_rate(table: OracleTerms, term_id: int, action: str) -> Fraction:
    """Total rate at which a term can perform ``action``, computed

    syntactically: prefixes contribute their rate, choice adds,
    composition adds for free actions and takes the minimum for
    synchronised ones.
    """
    return table.derive(_apparent_rate, action, term_id)


def _apparent_rate(t, rec, table: OracleTerms, action: str) -> Fraction:
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
    return table.derive(_pepa_moves, action, term_id)


def _pepa_moves(t, rec, table: OracleTerms, action: str) -> Tuple[Tuple[Fraction, int], ...]:
    if isinstance(t, RatedPrefix):
        if t.action == action:
            return ((t.rate, t.cont),)
        return ()
    if isinstance(t, Choice):
        return rec(t.left) + rec(t.right)
    if isinstance(t, Coop):
        id_of = table.id_of
        if action not in t.actions:
            moved = [
                (rate, id_of(Coop, t.actions, target, t.right)) for rate, target in rec(t.left)
            ]
            moved += [
                (rate, id_of(Coop, t.actions, t.left, target)) for rate, target in rec(t.right)
            ]
            return tuple(moved)
        left_rate = pepa_apparent_rate(table, t.left, action)
        right_rate = pepa_apparent_rate(table, t.right, action)
        if left_rate == 0 or right_rate == 0:
            return ()
        right = rec(t.right)
        out = []
        for rate_l, target_l in rec(t.left):
            for rate_r, target_r in right:
                # each participant contributes its share of its own
                # capacity; the joint capacity is the smaller one
                rate = (rate_l / left_rate) * (rate_r / right_rate) * min(left_rate, right_rate)
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
    return table.derive(_interactive_moves, action, term_id)


def _interactive_moves(t, rec, table: OracleTerms, action: str) -> FrozenSet[int]:
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
    return table.derive(_delay_moves, None, term_id)


def _delay_moves(t, rec, table: OracleTerms, _) -> Tuple[Tuple[Fraction, int], ...]:
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

    time ``n``.  A delay prefix can be taken whole, split into a spent
    and a remaining part, or extended by time its continuation can
    pass; choices and compositions advance only in lockstep.  The
    enumeration is capped at :data:`TIMED_CAP` transitions.
    """
    return table.derive(_timed_moves, None, term_id)


def _capped(result: Set[Tuple[int, int]]) -> FrozenSet[Tuple[int, int]]:
    if len(result) > TIMED_CAP:
        raise TimedTransitionCapError(f"more than {TIMED_CAP} timed transitions from one state")
    return frozenset(result)


def _timed_moves(t, rec, table: OracleTerms, _) -> FrozenSet[Tuple[int, int]]:
    id_of = table.id_of
    if isinstance(t, TimePrefix):
        out = {(t.delay, t.cont)}
        for spent in range(1, t.delay):
            out.add((spent, id_of(TimePrefix, t.delay - spent, t.cont)))
        for amount, target in rec(t.cont):
            out.add((t.delay + amount, target))
        return _capped(out)
    if isinstance(t, Choice):
        left, right = rec(t.left), rec(t.right)
        return _capped(
            {
                (n, id_of(Choice, target_l, target_r))
                for n, target_l in left
                for m, target_r in right
                if n == m
            }
        )
    if isinstance(t, Par):
        left, right = rec(t.left), rec(t.right)
        return _capped(
            {
                (n, id_of(Par, t.actions, target_l, target_r))
                for n, target_l in left
                for m, target_r in right
                if n == m
            }
        )
    return frozenset()  # nil, an action


# ---------------------------------------------------------------------------
# mal: probabilistic action transitions
# ---------------------------------------------------------------------------

Distribution = FrozenSet[Tuple[int, Fraction]]


def merge_distribution(pairs) -> Distribution:
    """Normalise a list of (target, probability) pairs into a

    distribution: probabilities of equal targets add up.
    """
    acc: dict = {}
    for target, prob in pairs:
        acc[target] = acc.get(target, ZERO) + prob
    return frozenset((target, prob) for target, prob in acc.items() if prob != 0)


def action_distributions(
    table: OracleTerms, term_id: int, action: str
) -> FrozenSet[Distribution]:
    """The set of probability distributions reachable by one

    ``action`` transition.
    """
    return table.derive(_distribution_moves, action, term_id)


def _distribution_moves(t, rec, table: OracleTerms, action: str) -> FrozenSet[Distribution]:
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
