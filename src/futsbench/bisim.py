"""Bisimilarity for explored function-transition systems.

Two states are bisimilar when, relation by relation and label by label,
their continuation functions assign the same total weight to every class
of a stable partition.  This module computes the coarsest such partition
by worklist refinement that re-signs only the predecessors of states that
changed block, with the largest part of each split keeping its block id
(after Valmari & Franceschinis, "Simple O(m log n) time Markov chain
lumping", TACAS 2010).  It also provides a brute-force oracle for small
systems, builds an independent partition from the step-derivation oracle
with a deliberately naive round-based loop, and constructs quotient
systems.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import FutsError, SizeLimitError, UnknownStateError
from .explore import FutsModel, RelationData, StateInfo
from .fsfun import ff_make
from .semiring import Semiring, semiring_of
from .sem_oracle import (
    action_distributions,
    delay_derivations,
    interactive_transitions,
    pepa_transitions,
    timed_transitions,
)
from .syntax import term_key

BRUTE_FORCE_MAX = 8
# disjoint_union prefixes right-hand state keys with this; no term key
# can start with it, so the two state spaces' keys cannot collide
UNION_PREFIX = "u2!"


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
# weights.  Weights of different domains can compare equal (True ==
# Fraction(1)), so a signature keeps one slot per relation and label and
# slots are only ever compared with the same slot of another state.

_SimpleEntries = Tuple[Tuple[int, Any], ...]


def _block_sums(
    entries: _SimpleEntries, assignment: Sequence[int], sr: Semiring
) -> Dict[int, Any]:
    """Non-zero total weight per block."""
    add = sr.add
    acc: Dict[int, Any] = {}
    for target, value in entries:
        block = assignment[target]
        acc[block] = add(acc[block], value) if block in acc else value
    return {block: value for block, value in acc.items() if value != sr.zero}


def _block_sum_sig(entries: _SimpleEntries, assignment: Sequence[int], sr: Semiring):
    """Canonical per-block totals: (block, weight) pairs sorted by block."""
    return tuple(sorted(_block_sums(entries, assignment, sr).items()))


def _lifted_sig(entry, assignment: Sequence[int], sr: Semiring, inner_sr: Semiring):
    """Nested functions: classify inner functions by their per-block totals,
    then fold the outer values of inner functions that fall together."""
    acc: Dict[tuple, Any] = {}
    for inner_entries, outer_value in entry:
        inner_sig = _block_sum_sig(inner_entries, assignment, inner_sr)
        acc[inner_sig] = (
            sr.add(acc[inner_sig], outer_value) if inner_sig in acc else outer_value
        )
    return tuple(sorted(kv for kv in acc.items() if kv[1] != sr.zero))


def _state_signature(relations, state_id: int, assignment: Sequence[int]):
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


def _inner_sig_text(inner_sig, fmt: Callable[[Any], str]) -> tuple:
    return tuple((block, fmt(value)) for block, value in inner_sig)


def _describe_inner_sig(text_sig) -> str:
    if not text_sig:
        return "distribution []"
    body = ", ".join(f"block {block} -> {text}" for block, text in text_sig)
    return f"distribution [{body}]"


def distinguish(fm: FutsModel, left: int, right: int) -> Optional[Witness]:
    """A (relation, label, block) witness for non-bisimilarity, or None."""
    _check_state_id(fm, left)
    _check_state_id(fm, right)
    partition = refine(fm)
    if partition.assignment[left] == partition.assignment[right]:
        return None
    assignment = partition.assignment
    for data in fm.relations:
        sr = semiring_of(data.tag)
        fmt, zero = sr.fmt, sr.zero
        for label in data.labels:
            entry_l = data.function_at(left, label)
            entry_r = data.function_at(right, label)
            if data.kind == "simple":
                sums_l = _block_sums(entry_l, assignment, sr)
                sums_r = _block_sums(entry_r, assignment, sr)
                for block in sorted(set(sums_l) | set(sums_r)):
                    if sums_l.get(block) != sums_r.get(block):
                        return Witness(
                            data.name,
                            label,
                            f"block {block}",
                            fmt(sums_l.get(block, zero)),
                            fmt(sums_r.get(block, zero)),
                        )
            else:
                inner_sr = semiring_of(data.inner_tag)
                lift_l = dict(_lifted_sig(entry_l, assignment, sr, inner_sr))
                lift_r = dict(_lifted_sig(entry_r, assignment, sr, inner_sr))
                # search the inner classes in the order of their printed text, so
                # the reported class does not depend on how raw weights sort
                by_text = {
                    _inner_sig_text(inner_sig, inner_sr.fmt): inner_sig
                    for inner_sig in set(lift_l) | set(lift_r)
                }
                for text_sig in sorted(by_text):
                    inner_sig = by_text[text_sig]
                    if lift_l.get(inner_sig) != lift_r.get(inner_sig):
                        return Witness(
                            data.name,
                            label,
                            _describe_inner_sig(text_sig),
                            fmt(lift_l.get(inner_sig, zero)),
                            fmt(lift_r.get(inner_sig, zero)),
                        )
    raise FutsError(
        "internal error: states in different blocks have identical signatures"
    )


# ---------------------------------------------------------------------------
# Brute-force oracle (small systems)
# ---------------------------------------------------------------------------


def _all_assignments(n_states: int):
    """Every partition of {0..n-1}, as canonical dense assignments."""
    assignment = [0] * n_states

    def rec(i: int, used: int):
        if i == n_states:
            yield tuple(assignment)
            return
        for block in range(used):
            assignment[i] = block
            yield from rec(i + 1, used)
        assignment[i] = used
        yield from rec(i + 1, used + 1)

    yield from rec(1, 1)


def brute_force(fm: FutsModel) -> Partition:
    """Coarsest stable partition found by checking every partition.

    Only usable on systems of at most BRUTE_FORCE_MAX states; the result is
    the transitive-closure union of all partitions whose blocks agree on
    per-block continuation totals for every relation and label.
    """
    n_states = len(fm.states)
    if n_states > BRUTE_FORCE_MAX:
        raise SizeLimitError(
            f"brute-force bisimilarity is capped at {BRUTE_FORCE_MAX} states; "
            f"this system has {n_states}"
        )
    if n_states == 0:
        return Partition(())
    # Raw-value signatures (no text rendering, set-based so nothing ever
    # needs to order semiring values) keep the inner loop fast.
    def raw_block_sums(entries, assignment, sr):
        acc: Dict[int, Any] = {}
        for target, value in entries:
            block = assignment[target]
            acc[block] = sr.add(acc[block], value) if block in acc else value
        return frozenset(
            (block, value) for block, value in acc.items() if value != sr.zero
        )

    # Per-state list of (kind, entry, target ids, slot, semiring, inner
    # semiring) for each relation/label.
    per_state: List[List[tuple]] = [[] for _ in range(n_states)]
    label_mask: List[tuple] = []
    for state_id in range(n_states):
        mask = []
        for data in fm.relations:
            sr = semiring_of(data.tag)
            inner_sr = semiring_of(data.inner_tag) if data.inner_tag else None
            for label in data.labels:
                entry = data.transitions.get((state_id, label))
                mask.append(entry is not None)
                if entry is None:
                    continue
                if data.kind == "simple":
                    targets = tuple(sorted({t for t, _ in entry}))
                else:
                    targets = tuple(
                        sorted({t for inner, _ in entry for t, _ in inner})
                    )
                per_state[state_id].append(
                    (data.kind, entry, targets, len(mask) - 1, sr, inner_sr)
                )
        label_mask.append(tuple(mask))

    sig_cache: Dict[tuple, tuple] = {}

    def signature(state_id: int, assignment: Sequence[int]) -> tuple:
        parts = []
        for kind, entry, targets, slot, sr, inner_sr in per_state[state_id]:
            cache_key = (state_id, slot, tuple(assignment[t] for t in targets))
            part = sig_cache.get(cache_key)
            if part is None:
                if kind == "simple":
                    part = raw_block_sums(entry, assignment, sr)
                else:
                    acc: Dict[frozenset, Any] = {}
                    for inner_entries, outer_value in entry:
                        isig = raw_block_sums(inner_entries, assignment, inner_sr)
                        acc[isig] = (
                            sr.add(acc[isig], outer_value)
                            if isig in acc
                            else outer_value
                        )
                    part = frozenset(
                        (isig, value)
                        for isig, value in acc.items()
                        if value != sr.zero
                    )
                sig_cache[cache_key] = part
            parts.append((slot, part))
        return tuple(parts)

    def is_stable(assignment: Sequence[int]) -> bool:
        rep_mask: Dict[int, tuple] = {}
        for state_id in range(n_states):
            block = assignment[state_id]
            mask = label_mask[state_id]
            if rep_mask.setdefault(block, mask) != mask:
                return False
        rep_sig: Dict[int, tuple] = {}
        for state_id in range(n_states):
            block = assignment[state_id]
            sig = signature(state_id, assignment)
            if rep_sig.setdefault(block, sig) != sig:
                return False
        return True

    parent = list(range(n_states))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for assignment in _all_assignments(n_states):
        if is_stable(assignment):
            leaders: Dict[int, int] = {}
            for state_id, block in enumerate(assignment):
                if block in leaders:
                    union(leaders[block], state_id)
                else:
                    leaders[block] = state_id

    merged = canonical_assignment([find(s) for s in range(n_states)])
    if not is_stable(merged):
        raise FutsError(
            "internal error: union of stable partitions is not stable"
        )
    return Partition(merged)


# ---------------------------------------------------------------------------
# Independent partition from the step-derivation oracle
# ---------------------------------------------------------------------------


# The deliberately naive round-based loop that criterion 6 checks the
# worklist engine of `refine` against: every round re-signs every state.
def _refine_loop(n_states: int, sig_of: Callable[[int, Sequence[int]], tuple]) -> Partition:
    """Split blocks by signature until nothing splits any more."""
    if n_states == 0:
        return Partition(())
    assignment = [0] * n_states
    for _ in range(n_states + 1):
        seen: Dict[tuple, int] = {}
        new: List[int] = []
        for state_id in range(n_states):
            key = (assignment[state_id], sig_of(state_id, assignment))
            if key not in seen:
                seen[key] = len(seen)
            new.append(seen[key])
        if new == assignment:
            return Partition(tuple(assignment))
        assignment = new
    raise FutsError("internal error: partition refinement did not stabilise")


def oracle_partition_from(fm: FutsModel) -> Partition:
    """Coarsest behavioural partition computed from step derivations only.

    The state table comes from the exploration (so block ids line up with
    `refine(fm)`), but every signature is built from the derivation-based
    step functions, not from the weight functions."""
    n_states = len(fm.states)
    if n_states == 0:
        return Partition(())
    ctx = fm.ctx
    if ctx is None:
        raise FutsError("oracle partition needs the exploration context")
    model = ctx.model
    terms = [ctx.term_of(state.term) for state in fm.states]

    def state_of(term) -> int:
        key = term_key(term)
        try:
            return fm.index[key]
        except KeyError:
            raise UnknownStateError(
                f"step-derivation target {key!r} is not an explored state"
            ) from None

    act_data = next(data for data in fm.relations if data.name == "act")
    act_labels = act_data.labels

    def fraction_sums(pairs, assignment):
        acc: Dict[int, Fraction] = {}
        for rate, target in pairs:
            block = assignment[target]
            acc[block] = acc.get(block, Fraction(0)) + rate
        return tuple(
            (block, rate)
            for block, rate in sorted(acc.items(), key=lambda kv: kv[0])
            if rate != 0
        )

    lang = fm.lang
    if lang == "pepa":
        moves = [
            {
                action: tuple(
                    (rate, state_of(target))
                    for rate, target in pepa_transitions(model, term, action)
                )
                for action in act_labels
            }
            for term in terms
        ]

        def sig_of(state_id: int, assignment: Sequence[int]) -> tuple:
            return tuple(
                fraction_sums(moves[state_id][action], assignment)
                for action in act_labels
            )

    elif lang in ("iml", "tpc"):
        imoves = [
            {
                action: tuple(
                    sorted(
                        state_of(target)
                        for target in interactive_transitions(model, term, action)
                    )
                )
                for action in act_labels
            }
            for term in terms
        ]
        if lang == "iml":
            dmoves = [
                tuple((rate, state_of(target)) for rate, target in delay_derivations(model, term))
                for term in terms
            ]

            def last_part(state_id: int, assignment: Sequence[int]) -> tuple:
                return fraction_sums(dmoves[state_id], assignment)

        else:
            tmoves = [
                tuple(
                    sorted(
                        (amount, state_of(target))
                        for amount, target in timed_transitions(model, term)
                    )
                )
                for term in terms
            ]

            def last_part(state_id: int, assignment: Sequence[int]) -> tuple:
                return tuple(
                    sorted({(amount, assignment[t]) for amount, t in tmoves[state_id]})
                )

        def sig_of(state_id: int, assignment: Sequence[int]) -> tuple:
            parts = [
                tuple(sorted({assignment[t] for t in imoves[state_id][action]}))
                for action in act_labels
            ]
            parts.append(last_part(state_id, assignment))
            return tuple(parts)

    elif lang == "mal":
        amoves = [
            {
                action: tuple(
                    tuple((state_of(target), mass) for target, mass in dist)
                    for dist in action_distributions(model, term, action)
                )
                for action in act_labels
            }
            for term in terms
        ]
        dmoves = [
            tuple((rate, state_of(target)) for rate, target in delay_derivations(model, term))
            for term in terms
        ]

        def dist_class(dist, assignment):
            acc: Dict[int, Fraction] = {}
            for target, mass in dist:
                block = assignment[target]
                acc[block] = acc.get(block, Fraction(0)) + mass
            return tuple(sorted(acc.items(), key=lambda kv: kv[0]))

        def sig_of(state_id: int, assignment: Sequence[int]) -> tuple:
            parts = [
                tuple(
                    sorted(
                        {
                            dist_class(dist, assignment)
                            for dist in amoves[state_id][action]
                        }
                    )
                )
                for action in act_labels
            ]
            parts.append(fraction_sums(dmoves[state_id], assignment))
            return tuple(parts)

    else:
        raise FutsError(f"unsupported language {lang!r}")

    return _refine_loop(n_states, sig_of)


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
    assignment = list(canonical_assignment(partition.assignment))
    rep_sig: Dict[int, tuple] = {}
    for state_id in range(n_states):
        block = assignment[state_id]
        sig = _state_signature(fm.relations, state_id, assignment)
        if rep_sig.setdefault(block, sig) != sig:
            raise FutsError("partition is not stable; refusing to quotient")

    n_blocks = max(assignment) + 1
    rep_state: List[StateInfo] = [None] * n_blocks  # type: ignore[list-item]
    for state in fm.states:  # ids ascending, so first hit is least member
        block = assignment[state.id]
        if rep_state[block] is None:
            rep_state[block] = state

    states = [replace(rep, id=block) for block, rep in enumerate(rep_state)]
    index = {state.key: state.id for state in states}

    def block_fn(sr: Semiring, entries: _SimpleEntries):
        """The function from each block to the block's total."""
        return ff_make(sr.tag, _block_sums(entries, assignment, sr).items())

    relations: List[RelationData] = []
    for data in fm.relations:
        sr = semiring_of(data.tag)
        quotient = RelationData(data.name, data.kind, data.tag, data.inner_tag, data.labels)
        for block, rep in enumerate(rep_state):
            for label in data.labels:
                step = data.function_at(rep.id, label)
                if data.kind == "simple":
                    qfn = block_fn(sr, step)
                else:
                    inner_sr = semiring_of(data.inner_tag)
                    qfn = ff_make(
                        data.tag,
                        [(block_fn(inner_sr, inner), outer_value) for inner, outer_value in step],
                    )
                quotient.store(block, label, qfn, lambda b: states[b].key, lambda b: b)
        relations.append(quotient)

    return FutsModel(
        lang=fm.lang,
        states=states,
        index=index,
        relations=relations,
        init_id=assignment[fm.init_id],
        ctx=None,
    )


def disjoint_union(left: FutsModel, right: FutsModel) -> FutsModel:
    """Side-by-side union of two explored systems over the same relations.

    The right-hand states follow the left-hand ones, and their keys get
    :data:`UNION_PREFIX`."""
    if left.lang != right.lang:
        raise FutsError("cannot union systems of different languages")
    if len(left.relations) != len(right.relations) or any(
        dl.name != dr.name or dl.kind != dr.kind or dl.labels != dr.labels
        for dl, dr in zip(left.relations, right.relations)
    ):
        raise FutsError("cannot union systems with different relations or labels")

    offset = len(left.states)

    def shifted(pairs) -> tuple:
        return tuple((offset + target, value) for target, value in pairs)

    states = list(left.states) + [
        replace(state, id=offset + state.id, key=UNION_PREFIX + state.key)
        for state in right.states
    ]
    index = {state.key: state.id for state in states}

    relations: List[RelationData] = []
    for dl, dr in zip(left.relations, right.relations):
        merged = RelationData(dl.name, dl.kind, dl.tag, dl.inner_tag, dl.labels)
        merged.transitions = dict(dl.transitions)
        for (source, label), step in dr.transitions.items():
            if dl.kind == "simple":
                step = shifted(step)
            else:
                step = tuple((shifted(inner), value) for inner, value in step)
            merged.transitions[offset + source, label] = step
        relations.append(merged)

    return FutsModel(
        lang=left.lang,
        states=states,
        index=index,
        relations=relations,
        init_id=left.init_id,
        ctx=None,
    )
