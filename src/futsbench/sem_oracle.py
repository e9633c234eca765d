"""Classical transition-relation semantics, used as an independent oracle.

This module gives each calculus its textbook small-step semantics:
individual transitions (with rates, targets, delays, or probability
distributions) enumerated rule by rule.  It deliberately shares no
code with the state-to-function semantics -- results are plain terms,
fractions, sets, and lists -- so agreement between the two routes is
meaningful evidence of correctness.

Derivation lists keep duplicates: two different proof trees yielding
the same transition both count (their rates add up), which is exactly
what the aggregated quantities defined at the bottom rely on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import FrozenSet, List, Set, Tuple

from .errors import TimedTransitionCapError
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
)

TIMED_CAP = 10_000


# ---------------------------------------------------------------------------
# pepa
# ---------------------------------------------------------------------------


def pepa_apparent_rate(model: Model, term: Term, action: str) -> Fraction:
    """Total rate at which a term can perform ``action``, computed

    syntactically: prefixes contribute their rate, choice adds,
    composition adds for free actions and takes the minimum for
    synchronised ones.
    """
    bodies = model.bodies()

    def rec(t: Term) -> Fraction:
        if isinstance(t, Nil):
            return Fraction(0)
        if isinstance(t, RatedPrefix):
            return t.rate if t.action == action else Fraction(0)
        if isinstance(t, Choice):
            return rec(t.left) + rec(t.right)
        if isinstance(t, Coop):
            if action in t.actions:
                return min(rec(t.left), rec(t.right))
            return rec(t.left) + rec(t.right)
        return rec(bodies[t.name])

    return rec(term)


def pepa_transitions(model: Model, term: Term, action: str) -> List[Tuple[Fraction, Term]]:
    """All rated transitions ``term --action--> target``, one list

    element per derivation.
    """
    bodies = model.bodies()

    def rec(t: Term) -> List[Tuple[Fraction, Term]]:
        if isinstance(t, Nil):
            return []
        if isinstance(t, RatedPrefix):
            if t.action == action:
                return [(t.rate, t.cont)]
            return []
        if isinstance(t, Choice):
            return rec(t.left) + rec(t.right)
        if isinstance(t, Coop):
            if action not in t.actions:
                moved = [
                    (rate, Coop(t.actions, target, t.right)) for rate, target in rec(t.left)
                ]
                moved += [
                    (rate, Coop(t.actions, t.left, target)) for rate, target in rec(t.right)
                ]
                return moved
            left_rate = pepa_apparent_rate(model, t.left, action)
            right_rate = pepa_apparent_rate(model, t.right, action)
            if left_rate == 0 or right_rate == 0:
                return []
            out = []
            for rate_l, target_l in rec(t.left):
                for rate_r, target_r in rec(t.right):
                    # each participant contributes its share of its own
                    # capacity; the joint capacity is the smaller one
                    rate = (rate_l / left_rate) * (rate_r / right_rate) * min(
                        left_rate, right_rate
                    )
                    out.append((rate, Coop(t.actions, target_l, target_r)))
            return out
        return rec(bodies[t.name])

    return rec(term)


# ---------------------------------------------------------------------------
# iml / tpc: interactive transitions
# ---------------------------------------------------------------------------


def interactive_transitions(model: Model, term: Term, action: str) -> FrozenSet[Term]:
    """Targets of ``term --action--> target`` for the languages with

    unrated actions (a plain transition relation, so a set).
    """
    bodies = model.bodies()

    def rec(t: Term) -> FrozenSet[Term]:
        if isinstance(t, (Nil, RatePrefix, TimePrefix)):
            return frozenset()
        if isinstance(t, ActPrefix):
            if t.action == action:
                return frozenset({t.cont})
            return frozenset()
        if isinstance(t, Choice):
            return rec(t.left) | rec(t.right)
        if isinstance(t, Par):
            if action in t.actions:
                return frozenset(
                    Par(t.actions, target_l, target_r)
                    for target_l in rec(t.left)
                    for target_r in rec(t.right)
                )
            moved = {Par(t.actions, target, t.right) for target in rec(t.left)}
            moved |= {Par(t.actions, t.left, target) for target in rec(t.right)}
            return frozenset(moved)
        return rec(bodies[t.name])

    return rec(term)


# ---------------------------------------------------------------------------
# iml / mal: exponential-delay derivations
# ---------------------------------------------------------------------------


def delay_derivations(model: Model, term: Term) -> List[Tuple[Fraction, Term]]:
    """All rated delay derivations; duplicates count separately."""
    bodies = model.bodies()

    def rec(t: Term) -> List[Tuple[Fraction, Term]]:
        if isinstance(t, (Nil, ActPrefix, ProbPrefix)):
            return []
        if isinstance(t, RatePrefix):
            return [(t.rate, t.cont)]
        if isinstance(t, Choice):
            return rec(t.left) + rec(t.right)
        if isinstance(t, Par):
            moved = [(rate, Par(t.actions, target, t.right)) for rate, target in rec(t.left)]
            moved += [(rate, Par(t.actions, t.left, target)) for rate, target in rec(t.right)]
            return moved
        return rec(bodies[t.name])

    return rec(term)


# ---------------------------------------------------------------------------
# tpc: timed transitions
# ---------------------------------------------------------------------------


def timed_transitions(model: Model, term: Term) -> FrozenSet[Tuple[int, Term]]:
    """All transitions ``term ==n==> target`` for positive amounts of

    time ``n``.  A delay prefix can be taken whole, split into a spent
    and a remaining part, or extended by time its continuation can
    pass; choices and compositions advance only in lockstep.  The
    enumeration is capped at :data:`TIMED_CAP` transitions.
    """
    bodies = model.bodies()

    def guard(result: Set[Tuple[int, Term]]) -> FrozenSet[Tuple[int, Term]]:
        if len(result) > TIMED_CAP:
            raise TimedTransitionCapError(
                f"more than {TIMED_CAP} timed transitions from one state"
            )
        return frozenset(result)

    def rec(t: Term) -> FrozenSet[Tuple[int, Term]]:
        if isinstance(t, (Nil, ActPrefix)):
            return frozenset()
        if isinstance(t, TimePrefix):
            out: Set[Tuple[int, Term]] = {(t.delay, t.cont)}
            for spent in range(1, t.delay):
                out.add((spent, TimePrefix(t.delay - spent, t.cont)))
            for amount, target in rec(t.cont):
                out.add((t.delay + amount, target))
            return guard(out)
        if isinstance(t, Choice):
            left = rec(t.left)
            right = rec(t.right)
            out = {
                (n, Choice(target_l, target_r))
                for n, target_l in left
                for m, target_r in right
                if n == m
            }
            return guard(out)
        if isinstance(t, Par):
            left = rec(t.left)
            right = rec(t.right)
            out = {
                (n, Par(t.actions, target_l, target_r))
                for n, target_l in left
                for m, target_r in right
                if n == m
            }
            return guard(out)
        return rec(bodies[t.name])

    return rec(term)


# ---------------------------------------------------------------------------
# mal: probabilistic action transitions
# ---------------------------------------------------------------------------

Distribution = FrozenSet[Tuple[Term, Fraction]]


def merge_distribution(pairs) -> Distribution:
    """Normalise a list of (target, probability) pairs into a

    distribution: probabilities of equal targets add up.
    """
    acc: dict = {}
    for target, prob in pairs:
        acc[target] = acc.get(target, Fraction(0)) + prob
    return frozenset((target, prob) for target, prob in acc.items() if prob != 0)


def action_distributions(model: Model, term: Term, action: str) -> FrozenSet[Distribution]:
    """The set of probability distributions reachable by one

    ``action`` transition.
    """
    bodies = model.bodies()

    def rec(t: Term) -> FrozenSet[Distribution]:
        if isinstance(t, (Nil, RatePrefix)):
            return frozenset()
        if isinstance(t, ProbPrefix):
            if t.action == action:
                return frozenset({merge_distribution((c, p) for p, c in t.branches)})
            return frozenset()
        if isinstance(t, Choice):
            return rec(t.left) | rec(t.right)
        if isinstance(t, Par):
            left = rec(t.left)
            right = rec(t.right)
            if action in t.actions:
                out = set()
                for dist_l in left:
                    for dist_r in right:
                        out.add(
                            merge_distribution(
                                (Par(t.actions, tl, tr), pl * pr)
                                for tl, pl in dist_l
                                for tr, pr in dist_r
                            )
                        )
                return frozenset(out)
            out = {
                merge_distribution((Par(t.actions, tl, t.right), pl) for tl, pl in dist_l)
                for dist_l in left
            }
            out |= {
                merge_distribution((Par(t.actions, t.left, tr), pr) for tr, pr in dist_r)
                for dist_r in right
            }
            return frozenset(out)
        return rec(bodies[t.name])

    return rec(term)
