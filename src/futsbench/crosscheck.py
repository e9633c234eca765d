"""Cross-validation of the weight-function semantics against the
step-derivation oracle, plus structural sanity checks.

`oracle_moves` enumerates the classical oracle once per explored model:
for each state and each (relation, label) slot, the oracle's derivations,
with their targets resolved to state ids and folded into one function,
as the relation's ``layers`` describe a step: a dict from key (a state
id, or for MAL's act a distribution over state ids) to weight.  So every
reader has one case for flat keys and one for distribution keys.  It
walks the states in a table of the oracle's own terms, built for that
one call, and resolves each target to a state by its id there: the
table hash-conses, so equal terms share one id.  A target's text is
rendered only to name one that is not an explored state.  The
apparent-rate, agreement, time-determinism and correspondence checks
all read the moves table that results, and the apparent-rate check the
oracle table it was enumerated in.  The correspondence check builds the
oracle's own partition from it alone, by a worklist loop that re-signs
a state from its derivations whenever one of its targets changes block.
That loop is written apart from `refine`, whose partition it is
compared with, and uses none of its code.

Every check walks all explored states of one model and reports how many
comparisons it made and which ones failed.  The `compare` CLI command and
the acceptance suite both run these.
"""

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .bisim import Partition, canonical_assignment, refine
from .errors import UnknownStateError
from .explore import FutsModel, RelationData
from .sem_futs import Layers, tpc_max_delay
from .sem_oracle import (
    OracleTerms,
    action_distributions,
    delay_derivations,
    interactive_transitions,
    pepa_apparent_rate,
    pepa_transitions,
    timed_transitions,
)
# unused here, but bench/tracing.py wraps crosscheck.term_key (ROADMAP item 3)
from .syntax import term_key  # noqa: F401


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checked: int
    failures: Tuple[str, ...]

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} [{self.checked} checks]"
        return f"FAIL {self.name}: {self.failures[0]}"


def _tally(name: str, outcomes: Iterable[Optional[str]]) -> CheckResult:
    """The result of the check ``name`` from its outcomes, one per
    comparison: None where it held, else the failure message."""
    outcomes = list(outcomes)
    failures = tuple(outcome for outcome in outcomes if outcome is not None)
    return CheckResult(name, not failures, len(outcomes), failures)


def _key(fm: FutsModel, state: int) -> str:
    """A state's canonical text, for a failure message."""
    return fm.ctx.text(fm.states[state])


def _pretty(fm: FutsModel, state: int) -> str:
    """A state's readable text, for a failure message."""
    return fm.ctx.pretty(fm.states[state])


def _relation(fm: FutsModel, name: str):
    for data in fm.relations:
        if data.name == name:
            return data
    return None


# ---------------------------------------------------------------------------
# The oracle's derivations, enumerated once per model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleMoves:
    """The oracle's derivations of every explored state, targets as state ids.

    ``table`` is the oracle's term table they were enumerated in, and
    ``terms[s]`` state ``s``'s id there.  ``slots`` holds one (relation,
    label) for each label of each of the model's relations, in their
    order; ``rows[s][i]`` holds state ``s``'s derivations for slot ``i``
    folded into one function, a dict from key to weight.  A key is a
    target's state id, or, for a relation with an inner layer (MAL's act),
    a distribution: a frozenset of (state id, mass) pairs.
    """

    table: OracleTerms
    terms: Tuple[int, ...]
    slots: Tuple[Tuple[RelationData, str], ...]
    rows: Tuple[Tuple[Dict[Any, Any], ...], ...]


def _fold(pairs: Iterable[tuple], add) -> Dict[Any, Any]:
    """(key, weight) pairs as one function: the weights of equal keys added
    up by ``add``.  Weights are non-zero and every domain is zero-sum-free,
    so no sum is zero."""
    acc: Dict[Any, Any] = {}
    for key, weight in pairs:
        acc[key] = add(acc[key], weight) if key in acc else weight
    return acc


def oracle_moves(fm: FutsModel) -> OracleMoves:
    """Enumerate the classical oracle once for each state and slot, in a
    fresh table of the oracle's own terms, and fold each slot's derivations
    with its relation's outermost ``layers[0].add``.  Each target's state
    is found by its id there; a target's text is rendered only for the
    error that names a target that is not an explored state."""
    table = OracleTerms(fm.ctx)
    terms = tuple(table.of_model(term) for term in fm.states)
    state_ids = {term: state for state, term in enumerate(terms)}
    lang = fm.ctx.lang

    def state_of(target: int) -> int:
        try:
            return state_ids[target]
        except KeyError:
            raise UnknownStateError(
                f"step-derivation target {table.text(target)!r} is not an explored state"
            ) from None

    def derivations(relation: str, term_id: int, label: str) -> Iterable[tuple]:
        """One slot's derivations as (key, weight) pairs, by the walker of
        the language and relation."""
        if relation == "delay":
            return [(state_of(t), rate) for rate, t in delay_derivations(table, term_id)]
        if relation == "tick":
            return [(state_of(t), frozenset([n])) for n, t in timed_transitions(table, term_id)]
        if lang == "pepa":
            return [(state_of(t), rate) for rate, t in pepa_transitions(table, term_id, label)]
        if lang == "mal":
            return [
                (frozenset([(state_of(t), mass) for t, mass in dist]), True)
                for dist in action_distributions(table, term_id, label)
            ]
        return [(state_of(t), True) for t in interactive_transitions(table, term_id, label)]

    slots = tuple((data, label) for data in fm.relations for label in data.labels)
    rows = tuple(
        tuple(
            _fold(derivations(data.name, term_id, label), data.layers[0].add)
            for data, label in slots
        )
        for term_id in terms
    )
    return OracleMoves(table, terms, slots, rows)


# ---------------------------------------------------------------------------
# Total action weight vs syntactic apparent rate (weighted-choice calculus)
# ---------------------------------------------------------------------------


def apparent_rate_check(fm: FutsModel, moves: OracleMoves) -> CheckResult:
    act = _relation(fm, "act")

    def outcomes():
        for state, term_id in enumerate(moves.terms):
            for action in act.labels:
                got = sum(value for _, value in act.function_at(state, action))
                expected = pepa_apparent_rate(moves.table, term_id, action)
                yield None if got == expected else (
                    f"state {state} ({_pretty(fm, state)}) action {action}: "
                    f"total weight {got}, apparent rate {expected}"
                )

    return _tally("apparent-rate totals", outcomes())


# ---------------------------------------------------------------------------
# Target-for-target agreement between the two semantic routes
# ---------------------------------------------------------------------------


def _named(fn: Dict[Any, Any], fm: FutsModel) -> Dict[Any, Any]:
    """A folded function with its states named by their text."""

    def name(key):
        if isinstance(key, frozenset):
            return frozenset((_key(fm, t), mass) for t, mass in key)
        return _key(fm, key)

    return {name(key): weight for key, weight in fn.items()}


def agreement_check(fm: FutsModel, moves: OracleMoves) -> CheckResult:
    def outcomes():
        for state, row in enumerate(moves.rows):
            for (data, label), derived in zip(moves.slots, row):
                step = data.function_at(state, label)
                if len(data.layers) == 1:
                    got = dict(step)
                else:
                    got = {frozenset(inner): weight for inner, weight in step}
                yield None if got == derived else (
                    f"state {state} ({_pretty(fm, state)}) {data.name} {label}: "
                    f"weights {_named(got, fm)} != derivations {_named(derived, fm)}"
                )

    return _tally("per-target semantics agreement", outcomes())


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def tick_singleton_check(fm: FutsModel) -> CheckResult:
    tick = _relation(fm, "tick")

    def outcomes():
        for (source, _), step in tick.transitions.items():
            for target, value in step:
                yield None if isinstance(value, frozenset) and len(value) == 1 else (
                    f"state {source} -> {_key(fm, target)}: "
                    f"amount set {value!r} is not a singleton"
                )

    return _tally("tick values are singletons", outcomes())


def time_determinism_check(fm: FutsModel, moves: OracleMoves) -> CheckResult:
    tick = next(i for i, (data, _) in enumerate(moves.slots) if data.name == "tick")

    def outcomes():
        for state, row in enumerate(moves.rows):
            seen: Dict[int, int] = {}
            for target, amounts in row[tick].items():
                for amount in sorted(amounts):
                    other = seen.setdefault(amount, target)
                    yield None if other == target else (
                        f"state {state} ({_pretty(fm, state)}): waiting {amount} reaches "
                        f"both {_key(fm, other)!r} and {_key(fm, target)!r}"
                    )

    return _tally("oracle time-determinism", outcomes())


def md_descent_check(fm: FutsModel) -> CheckResult:
    """Every tick entry moves to a state whose maximal inactivity time has
    shrunk by exactly the amount waited."""
    ctx = fm.ctx
    tick = _relation(fm, "tick")

    def outcomes():
        for (source, _), step in tick.transitions.items():
            source_md = tpc_max_delay(ctx, fm.states[source])
            for target, value in step:
                target_md = tpc_max_delay(ctx, fm.states[target])
                for amount in sorted(value):
                    yield None if amount >= 1 and target_md == source_md - amount else (
                        f"state {source}: waited {amount}, max delay {source_md} -> {target_md}"
                    )

    return _tally("waiting shrinks the delay budget", outcomes())


def distribution_check(fm: FutsModel) -> CheckResult:
    act = _relation(fm, "act")

    def outcomes():
        for (source, label), step in act.transitions.items():
            for inner, _ in step:
                mass = sum(p for _, p in inner)
                yield None if mass == 1 else (
                    f"state {source} label {label}: branch masses sum to {mass}"
                )

    return _tally("branch distributions sum to one", outcomes())


def _oracle_signature(slot_layers: Sequence[Layers], row: tuple, block_of: Sequence[int]) -> tuple:
    """A state's folded derivations pushed forward along ``block_of``, one
    part per slot: a target becomes its block, a distribution its mass per
    block, and the weights of keys that become equal add up."""
    parts = []
    for layers, fn in zip(slot_layers, row):
        add = layers[0].add
        acc: Dict[Any, Any] = {}
        # `_fold` inlined: this is the oracle partition's inner loop
        for key, weight in fn.items():
            if len(layers) == 1:
                key = block_of[key]
            else:
                key = frozenset(_fold([(block_of[t], m) for t, m in key], layers[1].add).items())
            acc[key] = add(acc[key], weight) if key in acc else weight
        parts.append(frozenset(acc.items()))
    return tuple(parts)


def oracle_partition_from(moves: OracleMoves) -> Partition:
    """Coarsest behavioural partition computed from step derivations only.

    Worklist refinement of its own: a state is re-signed from its
    derivations (`_oracle_signature`) only when one of its targets has
    changed block.  When a block splits, its largest part keeps the
    block's id, so only the states of the other parts move, and each
    state moves O(log n) times; members are kept as sets, so a split
    costs the size of its re-signed and smaller parts.  Signatures are
    recomputed in full, so presence and amounts need no counts and
    nothing is subtracted.  The table's rows follow the exploration's
    state ids, so block ids line up with `refine`."""
    slot_layers = [data.layers for data, _ in moves.slots]
    rows = moves.rows
    n_states = len(rows)
    # for each state, the states with a derivation into it (a distribution
    # counts every branch); a source may appear more than once
    preds: List[List[int]] = [[] for _ in range(n_states)]
    for source, row in enumerate(rows):
        for layers, fn in zip(slot_layers, row):
            if len(layers) == 1:
                for target in fn:
                    preds[target].append(source)
            else:
                for dist in fn:
                    for target, _ in dist:
                        preds[target].append(source)

    block_of = [0] * n_states
    members = [set(range(n_states))]
    block_sig: List[Any] = [None]  # no state has signature None
    dirty: Iterable[int] = range(n_states)
    while dirty:
        changed: Dict[int, Dict[tuple, List[int]]] = {}
        for state in dirty:
            block = block_of[state]
            sig = _oracle_signature(slot_layers, rows[state], block_of)
            if sig != block_sig[block]:
                changed.setdefault(block, {}).setdefault(sig, []).append(state)
        moved: List[int] = []
        for block, by_sig in changed.items():
            # the members left untouched keep the block's signature
            rest = members[block]
            parts = list(by_sig.items())
            for _, part in parts:
                rest.difference_update(part)
            if rest:
                parts.append((block_sig[block], rest))
            parts.sort(key=lambda part: len(part[1]))
            block_sig[block], largest = parts.pop()
            members[block] = largest if largest is rest else set(largest)
            for sig, part in parts:
                new_block = len(members)
                members.append(part if part is rest else set(part))
                block_sig.append(sig)
                for state in part:
                    block_of[state] = new_block
                moved += part
        dirty = {p for state in moved for p in preds[state]}
    return Partition(canonical_assignment(block_of))


def _least_split_pair(left: Partition, right: Partition) -> Tuple[int, int]:
    """The least pair of states, by id, that one of two different
    partitions puts in one block and the other does not."""

    def block_members(partition: Partition) -> List[set]:
        """Each state's block, as the set of its members."""
        members: Dict[int, set] = {}
        for state, block in enumerate(partition.assignment):
            members.setdefault(block, set()).add(state)
        return [members[block] for block in partition.assignment]

    # the first state whose two blocks differ, and the least state in one
    # of them only: no earlier state is in one block with it and not the other
    for state, (in_left, in_right) in enumerate(zip(block_members(left), block_members(right))):
        if in_left != in_right:
            return state, min(in_left ^ in_right)


def correspondence_check(fm: FutsModel, moves: OracleMoves) -> CheckResult:
    fine = refine(fm)
    oracle = oracle_partition_from(moves)
    failures: Tuple[str, ...] = ()
    if fine != oracle:
        s, t = _least_split_pair(fine, oracle)
        joins = "joins" if fine.assignment[s] == fine.assignment[t] else "separates"
        failures = (
            f"refinement found {fine.n_blocks} blocks, "
            f"step-derivation oracle {oracle.n_blocks}: refinement {joins} "
            f"state {s} ({_pretty(fm, s)}) and state {t} ({_pretty(fm, t)}), "
            "the oracle does not",
        )
    return CheckResult("bisimilarity correspondence", not failures, len(fm.states), failures)


# ---------------------------------------------------------------------------
# Per-language suites
# ---------------------------------------------------------------------------


def run_checks(fm: FutsModel) -> List[CheckResult]:
    """All checks that apply to the model's language, in a fixed order."""
    lang = fm.ctx.lang
    results: List[CheckResult] = []
    moves = oracle_moves(fm)
    if lang == "pepa":
        results.append(apparent_rate_check(fm, moves))
    results.append(agreement_check(fm, moves))
    if lang == "tpc":
        results.append(tick_singleton_check(fm))
        results.append(time_determinism_check(fm, moves))
        results.append(md_descent_check(fm))
    if lang == "mal":
        results.append(distribution_check(fm))
    results.append(correspondence_check(fm, moves))
    return results
