"""Bisimilarity for explored function-transition systems.

Two states are bisimilar when, relation by relation and label by label,
their continuation functions assign the same total weight to every class
of a stable partition.  This module computes the coarsest such partition
by worklist refinement that re-signs only the predecessors of states that
changed block, with the largest part of each split keeping its block id
(after Valmari & Franceschinis, "Simple O(m log n) time Markov chain
lumping", TACAS 2010).  A state's signature -- its steps pushed forward
along the block map -- is the one definition of its behaviour under a
partition: refinement splits on it, a witness is the first part where
two signatures differ, and a quotient's steps are its blocks'
signatures.  The independent partition from the step-derivation oracle
lives in `crosscheck`, which alone reads that oracle.
"""

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import FutsError, UnknownStateError
from .explore import FutsModel, RelationData, StateInfo
from .fsfun import ff_make
from .semiring import Semiring, semiring_of
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
# weights.  Weights of different domains can compare equal (True == 1),
# so a signature keeps one slot per relation and label and slots are only
# ever compared with the same slot of another state.  Steps hold only
# non-zero entries and every domain is zero-sum-free (see .semiring), so
# no total is tested against zero.

_SimpleEntries = Tuple[Tuple[int, Any], ...]


def _block_sum_sig(entries: _SimpleEntries, assignment: Sequence[int], sr: Semiring):
    """Canonical per-block totals: (block, weight) pairs sorted by block."""
    add = sr.add
    acc: Dict[int, Any] = {}
    for target, value in entries:
        block = assignment[target]
        acc[block] = add(acc[block], value) if block in acc else value
    return tuple(sorted(acc.items()))


def _lifted_sig(entry, assignment: Sequence[int], sr: Semiring, inner_sr: Semiring):
    """Nested functions: classify inner functions by their per-block totals,
    then fold the outer values of inner functions that fall together."""
    acc: Dict[tuple, Any] = {}
    for inner_entries, outer_value in entry:
        inner_sig = _block_sum_sig(inner_entries, assignment, inner_sr)
        acc[inner_sig] = (
            sr.add(acc[inner_sig], outer_value) if inner_sig in acc else outer_value
        )
    return tuple(sorted(acc.items()))


def _state_signature(relations, state_id: int, assignment: Sequence[int]):
    """A state's steps pushed forward along ``assignment``: one part per
    relation and label, in that order."""
    parts = []
    for data in relations:
        table = data.transitions
        sr = semiring_of(data.tag)
        for label in data.labels:
            step = table.get((state_id, label))
            if step is None:
                parts.append(())
            elif data.kind == "simple":
                parts.append(_block_sum_sig(step, assignment, sr))
            else:
                parts.append(_lifted_sig(step, assignment, sr, semiring_of(data.inner_tag)))
    return tuple(parts)


def _predecessors(relations, n_states: int) -> List[List[int]]:
    """For each state, the states with a step into it under any relation
    and label (a nested step counts every inner target).  A source may
    appear more than once (lists take far less memory than sets)."""
    preds: List[List[int]] = [[] for _ in range(n_states)]
    for data in relations:
        for (source, _), step in data.transitions.items():
            if data.kind == "simple":
                for target, _ in step:
                    preds[target].append(source)
            else:
                for inner, _ in step:
                    for target, _ in inner:
                        preds[target].append(source)
    return preds


def refine(fm: FutsModel) -> Partition:
    """Coarsest partition whose per-block continuation totals are stable.

    Worklist refinement: a state is re-signed only when one of its
    successors has changed block.  When a block splits, its largest part
    keeps the block's id and only the states of the other parts move, so
    a signature stays valid against the current assignment until a
    successor moves, and each state moves O(log n) times.  Untouched
    members of a block share the block's signature; re-signed ones are
    compared with it.  Signatures are recomputed in full, never updated
    by subtraction, so no semiring needs to be cancellative.
    """
    relations = fm.relations
    n_states = len(fm.states)
    if n_states == 0:
        return Partition(())
    preds = _predecessors(relations, n_states)
    assignment = [0] * n_states
    # block b is the slice elems[first[b]:end[b]] and loc[s] is the
    # position of state s in elems, so a block's parts are moved to slices
    # of their own in time proportional to their size (Valmari &
    # Franceschinis's refinable partition)
    elems = list(range(n_states))
    loc = list(range(n_states))
    first, end = [0], [n_states]
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
            # gather each part of re-signed states into one slice at the end
            # of the block, so the block's untouched rest is its front
            parts = []
            tail = end[block]
            for sig, part in by_sig.items():
                for state_id in part:
                    tail -= 1
                    pos, other = loc[state_id], elems[tail]
                    elems[pos], loc[other] = other, pos
                    elems[tail], loc[state_id] = state_id, tail
                parts.append((sig, tail, tail + len(part)))
            if tail > first[block]:
                parts.append((block_sig[block], first[block], tail))
            parts.sort(key=lambda part: part[2] - part[1], reverse=True)
            block_sig[block], first[block], end[block] = parts[0]
            for sig, lo, hi in parts[1:]:
                new_block = len(first)
                block_sig.append(sig)
                first.append(lo)
                end.append(hi)
                for state_id in elems[lo:hi]:
                    assignment[state_id] = new_block
                    moved.append(state_id)
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
    subject: str  # "block 3" or "distribution [block 0 -> 1/2, ...]"
    left: str
    right: str


def _describe_inner_sig(text_sig) -> str:
    if not text_sig:
        return "distribution []"
    body = ", ".join(f"block {block} -> {text}" for block, text in text_sig)
    return f"distribution [{body}]"


def distinguish(fm: FutsModel, left: int, right: int) -> Optional[Witness]:
    """A (relation, label, block) witness for non-bisimilarity, or None."""
    _check_state_id(fm, left)
    _check_state_id(fm, right)
    assignment = refine(fm).assignment
    if assignment[left] == assignment[right]:
        return None
    parts_l = _state_signature(fm.relations, left, assignment)
    parts_r = _state_signature(fm.relations, right, assignment)
    slots = [(data, label) for data in fm.relations for label in data.labels]
    for (data, label), part_l, part_r in zip(slots, parts_l, parts_r):
        sums_l, sums_r = dict(part_l), dict(part_r)
        if data.kind == "simple":
            subjects = {block: f"block {block}" for block in sums_l.keys() | sums_r.keys()}
            order = sorted(subjects)
        else:
            # take the inner classes in the order of their printed text, so
            # the reported class does not depend on how raw weights sort
            inner_fmt = semiring_of(data.inner_tag).fmt
            texts = {
                inner_sig: tuple((block, inner_fmt(value)) for block, value in inner_sig)
                for inner_sig in sums_l.keys() | sums_r.keys()
            }
            order = sorted(texts, key=texts.__getitem__)
            subjects = {inner_sig: _describe_inner_sig(text) for inner_sig, text in texts.items()}
        sr = semiring_of(data.tag)
        for key in order:
            if sums_l.get(key) != sums_r.get(key):
                return Witness(
                    data.name,
                    label,
                    subjects[key],
                    sr.fmt(sums_l.get(key, sr.zero)),
                    sr.fmt(sums_r.get(key, sr.zero)),
                )
    raise FutsError(
        "internal error: states in different blocks have identical signatures"
    )


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def minimize(fm: FutsModel, partition: Partition) -> FutsModel:
    """Quotient system: one state per block, block-sum continuations.

    The partition must be stable (refining it must not split anything);
    each block is represented by its least member state."""
    n_states = len(fm.states)
    if len(partition.assignment) != n_states:
        raise FutsError(
            f"partition covers {len(partition.assignment)} states, model has {n_states}"
        )
    assignment = canonical_assignment(partition.assignment)
    # blocks are numbered by least member, so in ascending id order each
    # block is met first at its least member, and in block order
    rep_state: List[StateInfo] = []
    block_sig: List[tuple] = []
    for state in fm.states:
        block = assignment[state.id]
        sig = _state_signature(fm.relations, state.id, assignment)
        if block == len(rep_state):
            rep_state.append(state)
            block_sig.append(sig)
        elif block_sig[block] != sig:
            raise FutsError("partition is not stable; refusing to quotient")

    states = [replace(rep, id=block) for block, rep in enumerate(rep_state)]
    index = {state.key: state.id for state in states}

    # a block's step is its signature's part: block totals, or for nested
    # relations the outer values already folded over equal inner totals
    relations: List[RelationData] = []
    first = 0  # the part of the relation's first label in every signature
    for data in fm.relations:
        quotient = RelationData(data.name, data.kind, data.tag, data.inner_tag, data.labels)
        for block, sig in enumerate(block_sig):
            for slot, label in enumerate(data.labels, first):
                part = sig[slot]
                if data.kind == "nested":
                    part = [(ff_make(data.inner_tag, inner), value) for inner, value in part]
                qfn = ff_make(data.tag, part)
                quotient.store(block, label, qfn, lambda b: states[b].key, lambda b: b)
        first += len(data.labels)
        relations.append(quotient)

    return FutsModel(
        lang=fm.lang,
        states=states,
        index=index,
        relations=relations,
        init_id=assignment[fm.init_id],
        ctx=None,
    )

