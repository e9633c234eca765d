"""Cross-validation of the weight-function semantics against the
step-derivation oracle, plus structural sanity checks.

`oracle_moves` enumerates the classical oracle once per explored model:
for each state and each (relation, label) slot, the oracle's derivations,
with their targets resolved to state ids.  It walks the states in a
table of the oracle's own terms, built for that one call, and resolves
each target id to a state once, through its canonical text.  The
apparent-rate, agreement, time-determinism and correspondence checks all
read the moves table that results, and the apparent-rate check the
oracle table it was enumerated in.  The correspondence check builds the
oracle's own partition from it alone, by a worklist loop that re-signs a
state from its derivations whenever one of its targets changes block.
That loop is written apart from `refine`, whose partition it is compared
with, and uses none of its code.

Every check walks all explored states of one model and reports how many
comparisons it made and which ones failed.  The `compare` CLI command and
the acceptance suite both run these.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from .bisim import Partition, canonical_assignment, refine
from .errors import FutsError, UnknownStateError
from .explore import FutsModel, RelationData
from .sem_futs import tpc_max_delay
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


def _relation(fm: FutsModel, name: str):
    for data in fm.relations:
        if data.name == name:
            return data
    return None


# ---------------------------------------------------------------------------
# The oracle's derivations, enumerated once per model
# ---------------------------------------------------------------------------

# The four shapes of a slot's derivations, by language and relation:
RATED = "rated"  # ((rate, target), ...), one per derivation: PEPA act, IML/MAL delay
SET = "set"  # frozenset of targets: IML/TPC act
TIMED = "timed"  # frozenset of (amount, target): TPC tick
DISTS = "dists"  # frozenset of distributions, frozensets of (target, mass): MAL act


@dataclass(frozen=True)
class OracleMoves:
    """The oracle's derivations of every explored state, targets as state ids.

    ``table`` is the oracle's term table they were enumerated in, and
    ``terms[s]`` state ``s``'s id there.  ``slots`` holds one (relation,
    label, shape) for each label of each of the model's relations, in
    their order; ``rows[s][i]`` holds state ``s``'s derivations for slot
    ``i``.
    """

    table: OracleTerms
    terms: Tuple[int, ...]
    slots: Tuple[Tuple[RelationData, str, str], ...]
    rows: Tuple[tuple, ...]


def oracle_moves(fm: FutsModel) -> OracleMoves:
    """Enumerate the classical oracle once for each state and slot, in a
    fresh table of the oracle's own terms."""
    model = fm.ctx
    if model is None:
        raise FutsError("cross-checks need the exploration context")
    table = OracleTerms(model)
    terms = tuple(table.of_model(state.term) for state in fm.states)
    index = fm.index
    resolved: Dict[int, int] = {}  # oracle id -> state id

    def state_of(target: int) -> int:
        found = resolved.get(target)
        if found is None:
            key = table.text(target)
            try:
                found = resolved[target] = index[key]
            except KeyError:
                raise UnknownStateError(
                    f"step-derivation target {key!r} is not an explored state"
                ) from None
        return found

    slots = []
    for data in fm.relations:
        if data.name == "act":
            shape = {"pepa": RATED, "mal": DISTS}.get(fm.lang, SET)
        else:
            shape = RATED if data.name == "delay" else TIMED
        slots += [(data, label, shape) for label in data.labels]

    rows = []
    for term_id in terms:
        row = []
        for data, label, shape in slots:
            if shape == RATED:
                if data.name == "act":
                    derived = pepa_transitions(table, term_id, label)
                else:
                    derived = delay_derivations(table, term_id)
                row.append(tuple((rate, state_of(target)) for rate, target in derived))
            elif shape == SET:
                targets = interactive_transitions(table, term_id, label)
                row.append(frozenset(state_of(target) for target in targets))
            elif shape == TIMED:
                timed = timed_transitions(table, term_id)
                row.append(frozenset((n, state_of(target)) for n, target in timed))
            else:
                row.append(
                    frozenset(
                        frozenset((state_of(target), mass) for target, mass in dist)
                        for dist in action_distributions(table, term_id, label)
                    )
                )
        rows.append(tuple(row))
    return OracleMoves(table, terms, tuple(slots), tuple(rows))


# ---------------------------------------------------------------------------
# Total action weight vs syntactic apparent rate (weighted-choice calculus)
# ---------------------------------------------------------------------------


def apparent_rate_check(fm: FutsModel, moves: OracleMoves) -> CheckResult:
    table = moves.table
    act = _relation(fm, "act")
    checked = 0
    failures: List[str] = []
    for state, term_id in zip(fm.states, moves.terms):
        for action in act.labels:
            step = act.function_at(state.id, action)
            got = sum(value for _, value in step)
            expected = pepa_apparent_rate(table, term_id, action)
            checked += 1
            if got != expected:
                failures.append(
                    f"state {state.id} ({state.pretty}) action {action}: "
                    f"total weight {got}, apparent rate {expected}"
                )
    return CheckResult("apparent-rate totals", not failures, checked, tuple(failures))


# ---------------------------------------------------------------------------
# Target-for-target agreement between the two semantic routes
# ---------------------------------------------------------------------------


def _fold_rates(pairs) -> Dict[int, Fraction]:
    acc: Dict[int, Fraction] = {}
    for rate, target in pairs:
        acc[target] = acc[target] + rate if target in acc else rate
    return {target: rate for target, rate in acc.items() if rate != 0}


def _named(shape: str, value, keys: Sequence[str]):
    """A slot's value in the agreement check, its states named by their text."""
    if shape == SET:
        return {keys[t] for t in value}
    if shape == DISTS:
        return {frozenset((keys[t], mass) for t, mass in dist) for dist in value}
    return {keys[t]: weight for t, weight in value.items()}


_MISMATCH = {
    RATED: "weights {} != derivations {}",
    SET: "targets {} != {}",
    TIMED: "tick amounts {} != derivations {}",
    DISTS: "distributions {} != {}",
}


def agreement_check(fm: FutsModel, moves: OracleMoves) -> CheckResult:
    keys = [state.key for state in fm.states]
    checked = 0
    failures: List[str] = []
    for state, row in zip(fm.states, moves.rows):
        for (data, label, shape), derived in zip(moves.slots, row):
            step = data.function_at(state.id, label)
            checked += 1
            if shape == RATED:
                got, expected = dict(step), _fold_rates(derived)
            elif shape == SET:
                got, expected = frozenset(t for t, _ in step), derived
            elif shape == TIMED:
                amounts: Dict[int, set] = {}
                for amount, target in derived:
                    amounts.setdefault(target, set()).add(amount)
                got = dict(step)
                expected = {target: frozenset(v) for target, v in amounts.items()}
            else:
                got, expected = {frozenset(inner) for inner, _ in step}, derived
            if got != expected:
                message = ("delay " if data.name == "delay" else "") + _MISMATCH[shape]
                failures.append(
                    f"state {state.id} ({state.pretty}) label {label}: "
                    + message.format(_named(shape, got, keys), _named(shape, expected, keys))
                )
    return CheckResult(
        "per-target semantics agreement", not failures, checked, tuple(failures)
    )


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def tick_singleton_check(fm: FutsModel) -> CheckResult:
    tick = _relation(fm, "tick")
    checked = 0
    failures: List[str] = []
    for (source, _), step in tick.transitions.items():
        for target, value in step:
            checked += 1
            if not isinstance(value, frozenset) or len(value) != 1:
                failures.append(
                    f"state {source} -> {fm.states[target].key}: "
                    f"amount set {value!r} is not a singleton"
                )
    return CheckResult(
        "tick values are singletons", not failures, checked, tuple(failures)
    )


def time_determinism_check(fm: FutsModel, moves: OracleMoves) -> CheckResult:
    keys = [state.key for state in fm.states]
    tick = next(i for i, (_, _, shape) in enumerate(moves.slots) if shape == TIMED)
    checked = 0
    failures: List[str] = []
    for state, row in zip(fm.states, moves.rows):
        seen: Dict[int, int] = {}
        for amount, target in row[tick]:
            checked += 1
            other = seen.setdefault(amount, target)
            if other != target:
                failures.append(
                    f"state {state.id} ({state.pretty}): waiting {amount} reaches "
                    f"both {keys[other]!r} and {keys[target]!r}"
                )
    return CheckResult(
        "oracle time-determinism", not failures, checked, tuple(failures)
    )


def md_descent_check(fm: FutsModel) -> CheckResult:
    """Every tick entry moves to a state whose maximal inactivity time has
    shrunk by exactly the amount waited."""
    ctx = fm.ctx
    if ctx is None:
        raise FutsError("cross-checks need the exploration context")
    tick = _relation(fm, "tick")
    checked = 0
    failures: List[str] = []
    for (source, _), step in tick.transitions.items():
        source_md = tpc_max_delay(ctx, fm.states[source].term)
        for target, value in step:
            target_md = tpc_max_delay(ctx, fm.states[target].term)
            for amount in sorted(value):
                checked += 1
                if amount < 1 or target_md != source_md - amount:
                    failures.append(
                        f"state {source}: waited {amount}, max delay "
                        f"{source_md} -> {target_md}"
                    )
    return CheckResult(
        "waiting shrinks the delay budget", not failures, checked, tuple(failures)
    )


def distribution_check(fm: FutsModel) -> CheckResult:
    act = _relation(fm, "act")
    checked = 0
    failures: List[str] = []
    for (source, label), step in act.transitions.items():
        for inner, _ in step:
            checked += 1
            mass = sum(p for _, p in inner)
            if mass != 1:
                failures.append(
                    f"state {source} label {label}: branch masses sum to {mass}"
                )
    return CheckResult(
        "branch distributions sum to one", not failures, checked, tuple(failures)
    )


def _block_totals(pairs, block_of: Sequence[int]) -> frozenset:
    """The total weight of (weight, target) pairs per block.  Rates and
    masses are positive, so no total is zero."""
    acc: Dict[int, Any] = {}
    for weight, target in pairs:
        block = block_of[target]
        acc[block] = acc[block] + weight if block in acc else weight
    return frozenset(acc.items())


def _oracle_signature(shapes: Sequence[str], row: tuple, block_of: Sequence[int]) -> tuple:
    """A state's derivations pushed forward along ``block_of``, one part per
    slot: a ``rated`` slot's total per block, a ``set`` slot's set of
    blocks, a ``timed`` slot's (amount, block) pairs, and each of a
    ``dists`` slot's distributions as its mass per block."""
    parts = []
    for shape, derived in zip(shapes, row):
        if shape == RATED:
            parts.append(_block_totals(derived, block_of))
        elif shape == SET:
            parts.append(frozenset([block_of[target] for target in derived]))
        elif shape == TIMED:
            parts.append(frozenset([(n, block_of[target]) for n, target in derived]))
        else:
            parts.append(
                frozenset(
                    _block_totals([(mass, target) for target, mass in dist], block_of)
                    for dist in derived
                )
            )
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
    shapes = [shape for _, _, shape in moves.slots]
    rows = moves.rows
    n_states = len(rows)
    # for each state, the states with a derivation into it (a distribution
    # counts every branch); a source may appear more than once
    preds: List[List[int]] = [[] for _ in range(n_states)]
    for source, row in enumerate(rows):
        for shape, derived in zip(shapes, row):
            if shape == SET:
                for target in derived:
                    preds[target].append(source)
            elif shape == DISTS:
                for dist in derived:
                    for target, _ in dist:
                        preds[target].append(source)
            else:
                for _, target in derived:
                    preds[target].append(source)

    block_of = [0] * n_states
    members = [set(range(n_states))]
    block_sig: List[Any] = [None]  # no state has signature None
    dirty: Iterable[int] = range(n_states)
    while dirty:
        changed: Dict[int, Dict[tuple, List[int]]] = {}
        for state in dirty:
            block = block_of[state]
            sig = _oracle_signature(shapes, rows[state], block_of)
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


def correspondence_check(fm: FutsModel, moves: OracleMoves) -> CheckResult:
    fine = refine(fm)
    oracle = oracle_partition_from(moves)
    failures: Tuple[str, ...] = ()
    if fine != oracle:
        failures = (
            f"refinement found {fine.n_blocks} blocks, "
            f"step-derivation oracle {oracle.n_blocks}",
        )
    return CheckResult("bisimilarity correspondence", not failures, len(fm.states), failures)


# ---------------------------------------------------------------------------
# Per-language suites
# ---------------------------------------------------------------------------


def run_checks(fm: FutsModel) -> List[CheckResult]:
    """All checks that apply to the model's language, in a fixed order."""
    lang = fm.lang
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
