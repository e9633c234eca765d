"""Bisimilarity for explored function-transition systems.

Two states are bisimilar when, relation by relation and label by label,
their continuation functions assign the same total weight to every class
of a stable partition.  This module computes the coarsest such partition
by worklist refinement over blocks kept as member sets: only predecessors
of states that changed block are re-signed, and the largest part of each
split keeps its block id (after Valmari & Franceschinis, "Simple
O(m log n) time Markov chain lumping", TACAS 2010).  A state's signature
-- its steps pushed forward along the block map -- is the one definition
of its behaviour under a partition: refinement splits on it, a witness is
the first part where two signatures differ, and a quotient's steps are
its blocks' signatures.  Bisimilar states agree on their totals into
every class, so also into the union of all classes: two terms whose
signatures differ under the assignment of every state to one block --
their one-step totals -- are refuted before anything is explored.  The
independent partition from the step-derivation oracle lives in
`crosscheck`, which alone reads it.
"""

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import FutsError, UnknownStateError
from .explore import FutsModel, RelationData, in_printed_order, innermost, key_text
from .explore import relation_tables, store_steps
from .sem_futs import Layers
from .syntax import Model
# unused here, but bench/tracing.py wraps bisim.term_key (ROADMAP item 3)
from .syntax import term_key  # noqa: F401


@dataclass(frozen=True)
class Partition:
    """A block assignment: state id -> block id.

    Block ids are dense (0..k-1) and ordered by least member state id.
    """

    assignment: Tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return max(self.assignment) + 1 if self.assignment else 0


def canonical_assignment(raw: Sequence[int]) -> Tuple[int, ...]:
    """Renumber blocks densely in order of first appearance."""
    seen: Dict[int, int] = {}
    out = []
    for b in raw:
        if b not in seen:
            seen[b] = len(seen)
        out.append(seen[b])
    return tuple(out)


# ---------------------------------------------------------------------------
# Signatures over the explored transition tables
# ---------------------------------------------------------------------------
#
# Refinement reads each step's targets as state ids (see
# explore.RelationData), so each round only touches integers and raw
# weights.  A step is pushed forward one layer of its relation at a time,
# outermost first: a MAL step's distributions each become their block
# totals, and the outer weights of those that fall together add up.
# Weights of different domains can compare equal (True == 1), so a
# signature keeps one slot per relation and label and slots are only ever
# compared with the same slot of another state.  Steps hold only non-zero
# entries and every domain is zero-sum-free (see .semiring), so no total
# is tested against zero.


def _push(step: tuple, layers: Layers, assignment: Sequence[int]) -> tuple:
    """A stored step over ``layers`` pushed forward along ``assignment``:
    each target replaced by its block and each inner function by its push,
    the weights of keys that fall together added up, sorted by key: a
    weight function over block ids, like a state's steps and their inner
    functions."""
    add = layers[0].add
    acc: Dict[Any, Any] = {}
    if len(layers) == 1:  # one loop per case: the block lookup is the hot path
        for target, value in step:
            block = assignment[target]
            acc[block] = add(acc[block], value) if block in acc else value
    else:
        deeper = layers[1:]
        for inner, value in step:
            key = _push(inner, deeper, assignment)
            acc[key] = add(acc[key], value) if key in acc else value
    return tuple(sorted(acc.items()))


def _state_signature(relations, state_id: int, assignment: Sequence[int]):
    """A state's steps pushed forward along ``assignment``: one part per
    relation and label, in that order."""
    parts = []
    for data in relations:
        table, layers = data.transitions, data.layers
        for label in data.labels:
            step = table.get((state_id, label))
            parts.append(() if step is None else _push(step, layers, assignment))
    return tuple(parts)


def _predecessors(relations, n_states: int) -> List[List[int]]:
    """For each state, the states with a step into it under any relation
    and label (a step with inner functions counts each of their targets).
    A source may appear more than once (lists take far less memory than
    sets)."""
    preds: List[List[int]] = [[] for _ in range(n_states)]
    for data in relations:
        for owner, fn in innermost(data.transitions.items(), data.layers):
            source = owner[0]
            for target, _ in fn:
                preds[target].append(source)
    return preds


def refine(fm: FutsModel) -> Partition:
    """Coarsest partition whose per-block continuation totals are stable.

    Worklist refinement: a state is re-signed only when one of its
    successors has changed block.  When a block splits, its largest part
    keeps the block's id and only the states of the other parts move, so
    a signature stays valid against the current assignment until a
    successor moves, and each state moves O(log n) times.  Each block's
    members are a set, so a split costs the size of its re-signed and
    smaller parts.  Untouched members of a block share the block's
    signature; re-signed ones are compared with it.  Signatures are
    recomputed in full, never updated by subtraction, so no semiring
    needs to be cancellative.
    """
    relations = fm.relations
    n_states = len(fm.states)
    preds = _predecessors(relations, n_states)
    assignment = [0] * n_states
    blocks = [set(range(n_states))]  # block id -> its member states
    block_sig: List[Optional[tuple]] = [None]  # no state has signature None
    dirty: Iterable[int] = range(n_states)
    while dirty:
        changed: Dict[int, Dict[tuple, List[int]]] = {}
        for state_id in dirty:
            block = assignment[state_id]
            sig = _state_signature(relations, state_id, assignment)
            if sig != block_sig[block]:
                changed.setdefault(block, {}).setdefault(sig, []).append(state_id)
        moved: List[int] = []
        for block, by_sig in changed.items():
            untouched = blocks[block]
            untouched.difference_update(*by_sig.values())
            parts = [(sig, set(part)) for sig, part in by_sig.items()]
            if untouched:
                parts.append((block_sig[block], untouched))
            parts.sort(key=lambda part: len(part[1]), reverse=True)
            block_sig[block], blocks[block] = parts[0]
            for sig, part in parts[1:]:
                new_block = len(blocks)
                block_sig.append(sig)
                blocks.append(part)
                for state_id in part:
                    assignment[state_id] = new_block
                moved += part
        dirty = {p for state_id in moved for p in preds[state_id]}
    return Partition(canonical_assignment(assignment))


def _check_state_id(fm: FutsModel, state_id: int) -> None:
    if not isinstance(state_id, int) or not (0 <= state_id < len(fm.states)):
        raise UnknownStateError(f"no state with id {state_id!r}")


# ---------------------------------------------------------------------------
# Distinguishing witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """First point, in canonical order, where two states' signatures split."""

    relation: str
    label: str
    # "class of `P`", "all states", or "distribution [class of `P` -> 1/2, ...]"
    subject: str
    left: str
    right: str


ALL_STATES = "all states"  # the one class of the depth-1 check


def _printed_weights(deeper: Layers, key):
    """A signature key in a witness's order: a block, or an inner function
    as its keys in that order paired with their weights' printed text, so
    the reported class does not depend on how raw weights sort."""
    if not deeper:
        return key
    fmt, below = deeper[0].fmt, deeper[1:]
    return tuple((_printed_weights(below, k), fmt(v)) for k, v in key)


def _first_difference(
    relations, left: int, right: int, assignment: Sequence[int], name_of: Callable[[int], str]
) -> Optional[Witness]:
    """The first part, relation by relation and label by label, where the
    two states' signatures under ``assignment`` differ, naming each block
    by ``name_of``; None when they are equal."""
    parts_l = _state_signature(relations, left, assignment)
    parts_r = _state_signature(relations, right, assignment)
    slots = [(data, label) for data in relations for label in data.labels]
    for (data, label), part_l, part_r in zip(slots, parts_l, parts_r):
        sums_l, sums_r = dict(part_l), dict(part_r)
        sr, deeper = data.layers[0], data.layers[1:]
        for key in sorted(sums_l.keys() | sums_r.keys(), key=partial(_printed_weights, deeper)):
            if sums_l.get(key) != sums_r.get(key):
                return Witness(
                    data.name,
                    label,
                    key_text(key, deeper, name_of),
                    sr.fmt(sums_l.get(key, sr.zero)),
                    sr.fmt(sums_r.get(key, sr.zero)),
                )
    return None


def one_step_witness(model: Model, left: int, right: int) -> Optional[Witness]:
    """A witness that terms ``left`` and ``right`` (ids in the model's
    table) differ in their one-step totals, or None when they agree.

    The two terms' steps are stored with every target as state 0, so
    :func:`distinguish`'s walk runs under the assignment of every state to
    block 0: a relation's part is its total weight when its steps have one
    layer, and with two (MAL's actions) its outer values folded over its
    distributions' total masses.  Only the two terms are stepped; nothing
    is explored.
    """
    relations = relation_tables(model)
    for source, term_id in enumerate((left, right)):
        store_steps(model, relations, source, term_id, lambda _: 0)
    return _first_difference(relations, 0, 1, (0, 0), lambda _: ALL_STATES)


def _class_name(fm: FutsModel, assignment: Sequence[int], block: int) -> str:
    # blocks are numbered by least member, so the first state met is it
    least = fm.states[assignment.index(block)]
    return f"class of `{fm.ctx.pretty(least)}`"


def distinguish(fm: FutsModel, left: int, right: int) -> Optional[Witness]:
    """A (relation, label, class) witness for non-bisimilarity, or None.

    A class is named by the readable text of its least member."""
    _check_state_id(fm, left)
    _check_state_id(fm, right)
    assignment = refine(fm).assignment
    if assignment[left] == assignment[right]:
        return None
    witness = _first_difference(
        fm.relations, left, right, assignment, partial(_class_name, fm, assignment)
    )
    if witness is None:
        raise FutsError(
            "internal error: states in different blocks have identical signatures"
        )
    return witness


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def minimize(fm: FutsModel, partition: Partition) -> FutsModel:
    """Quotient system: one state per block, block-sum continuations.

    The partition must be stable (refining it must not split anything);
    each block is represented by its least member state, whose term stays
    in the model's table (``ctx``)."""
    n_states = len(fm.states)
    if len(partition.assignment) != n_states:
        raise FutsError(
            f"partition covers {len(partition.assignment)} states, model has {n_states}"
        )
    assignment = canonical_assignment(partition.assignment)
    # blocks are numbered by least member, so in ascending id order each
    # block is met first at its least member, and in block order
    states: List[int] = []  # block id -> its least member's term id
    block_sig: List[tuple] = []
    for state, term in enumerate(fm.states):
        block = assignment[state]
        sig = _state_signature(fm.relations, state, assignment)
        if block == len(states):
            states.append(term)
            block_sig.append(sig)
        elif block_sig[block] != sig:
            raise FutsError("partition is not stable; refusing to quotient")

    # a block's step is its signature's part: its steps pushed forward
    relations: List[RelationData] = []
    first = 0  # the part of the relation's first label in every signature
    for data in fm.relations:
        quotient = RelationData(data.name, data.layers, data.labels)
        for block, sig in enumerate(block_sig):
            for slot, label in enumerate(data.labels, first):
                if sig[slot]:
                    quotient.transitions[block, label] = in_printed_order(
                        sig[slot], data.layers, lambda b: fm.ctx.text(states[b]), lambda b: b
                    )
        first += len(data.labels)
        relations.append(quotient)

    return FutsModel(fm.ctx, states, relations)

