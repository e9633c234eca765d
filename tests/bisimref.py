"""Reference algorithms the acceptance criteria compare against.

``brute_force`` finds the coarsest stable partition by checking every
partition of a small system (criterion 7 compares ``refine`` with it).
``disjoint_union`` puts a system and its quotient side by side, so one
refinement can check that every state is bisimilar to its image
(criterion 10).  ``_refine_loop`` is the deliberately naive round-based
loop, re-signing every state each round, that ``refine`` is checked
against, and ``naive_oracle_partition`` runs it on the oracle's
derivations to check ``crosscheck.oracle_partition_from``.
``full_closure_bisimilar`` is the ``bisim`` verdict without the depth-1
check and on everything ``init`` and the two terms reach, which the
command's verdict is checked against.
"""

from fractions import Fraction
from typing import Any, Callable, Dict, List, Sequence

from futsbench.bisim import Partition, canonical_assignment, distinguish
from futsbench.crosscheck import OracleMoves
from futsbench.errors import FutsError
from futsbench.explore import FutsModel, RelationData, explore
from futsbench.semiring import BOOL, NNRAT
from futsbench.syntax import Model

BRUTE_FORCE_MAX = 8


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
        raise ValueError(
            f"brute-force bisimilarity is capped at {BRUTE_FORCE_MAX} states; "
            f"this system has {n_states}"
        )
    if n_states == 0:
        return Partition(())
    # Raw-value signatures (no text rendering, set-based so nothing ever
    # needs to order semiring values) keep the inner loop fast.
    def raw_push(entries, layers, assignment):
        """Targets to blocks, inner functions to their own pushes."""
        sr, deeper = layers[0], layers[1:]
        acc: Dict[Any, Any] = {}
        for key, value in entries:
            key = raw_push(key, deeper, assignment) if deeper else assignment[key]
            acc[key] = sr.add(acc[key], value) if key in acc else value
        return frozenset((key, value) for key, value in acc.items() if value != sr.zero)

    def targets_of(entries, layers) -> set:
        if len(layers) == 1:
            return {t for t, _ in entries}
        return {t for inner, _ in entries for t in targets_of(inner, layers[1:])}

    # Per-state list of (entry, target ids, slot, layers) for each
    # relation/label.
    per_state: List[List[tuple]] = [[] for _ in range(n_states)]
    label_mask: List[tuple] = []
    for state_id in range(n_states):
        mask = []
        for data in fm.relations:
            for label in data.labels:
                entry = data.transitions.get((state_id, label))
                mask.append(entry is not None)
                if entry is None:
                    continue
                targets = tuple(sorted(targets_of(entry, data.layers)))
                per_state[state_id].append((entry, targets, len(mask) - 1, data.layers))
        label_mask.append(tuple(mask))

    sig_cache: Dict[tuple, tuple] = {}

    def signature(state_id: int, assignment: Sequence[int]) -> tuple:
        parts = []
        for entry, targets, slot, layers in per_state[state_id]:
            cache_key = (state_id, slot, tuple(assignment[t] for t in targets))
            part = sig_cache.get(cache_key)
            if part is None:
                part = sig_cache[cache_key] = raw_push(entry, layers, assignment)
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
# Disjoint union
# ---------------------------------------------------------------------------


def disjoint_union(left: FutsModel, right: FutsModel) -> FutsModel:
    """Side-by-side union of two explored systems over the same relations
    and one term table, as a model and its quotient are.

    The right-hand states follow the left-hand ones; a term that is a
    state on both sides is two states of the union."""
    if left.ctx is not right.ctx:
        raise FutsError("cannot union systems over different term tables")
    if len(left.relations) != len(right.relations) or any(
        dl.name != dr.name or dl.layers != dr.layers or dl.labels != dr.labels
        for dl, dr in zip(left.relations, right.relations)
    ):
        raise FutsError("cannot union systems with different relations or labels")

    offset = len(left.states)

    def shifted(step, layers) -> tuple:
        if len(layers) == 1:
            return tuple((offset + target, value) for target, value in step)
        return tuple((shifted(inner, layers[1:]), value) for inner, value in step)

    states = left.states + right.states
    relations: List[RelationData] = []
    for dl, dr in zip(left.relations, right.relations):
        merged = RelationData(dl.name, dl.layers, dl.labels)
        merged.transitions = dict(dl.transitions)
        for (source, label), step in dr.transitions.items():
            merged.transitions[offset + source, label] = shifted(step, dl.layers)
        relations.append(merged)

    return FutsModel(left.ctx, states, relations)


# ---------------------------------------------------------------------------
# Round-based refinement
# ---------------------------------------------------------------------------


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


def _oracle_part(layers, fn: dict, assignment: Sequence[int]) -> frozenset:
    """One slot of a state's signature, read off its folded derivations
    only, by the domain of each layer: a key is pushed to its block, or a
    distribution key to its own part one layer down; then rates and masses
    add up per block, truth values count by presence, and tick amounts go
    as (amount, block) pairs."""
    sr, deeper = layers[0], layers[1:]
    pushed = [
        (_oracle_part(deeper, dict(key), assignment) if deeper else assignment[key], weight)
        for key, weight in fn.items()
    ]
    if sr is NNRAT:
        totals: Dict[Any, Fraction] = {}
        for key, rate in pushed:
            totals[key] = totals.get(key, 0) + rate
        return frozenset(totals.items())
    if sr is BOOL:
        return frozenset(key for key, _ in pushed)
    return frozenset((n, key) for key, amounts in pushed for n in amounts)


def naive_oracle_partition(moves: OracleMoves) -> Partition:
    """The oracle's partition by the round-based loop: every round re-signs
    every state from its derivations."""
    slot_layers = [data.layers for data, _ in moves.slots]
    rows = moves.rows

    def sig_of(state_id: int, assignment: Sequence[int]) -> tuple:
        return tuple(
            _oracle_part(layers, fn, assignment)
            for layers, fn in zip(slot_layers, rows[state_id])
        )

    return _refine_loop(len(rows), sig_of)


# ---------------------------------------------------------------------------
# The full-closure bisim route
# ---------------------------------------------------------------------------


def full_closure_bisimilar(model: Model, left: int, right: int) -> bool:
    """Whether terms ``left`` and ``right`` (ids in the model's table) are
    bisimilar in the closure of ``init`` and both terms, all refined."""
    fm = explore(model, roots=(model.init, left, right))
    return distinguish(fm, fm.states.index(left), fm.states.index(right)) is None
