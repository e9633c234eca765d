"""Cross-validation of the weight-function semantics against the
step-derivation oracle, plus structural sanity checks.

`oracle_moves` enumerates the classical oracle once per explored model:
for each state and each (relation, label) slot, the oracle's derivations,
with their targets resolved to state ids.  The agreement,
time-determinism and correspondence checks all read that table.  The
correspondence check builds the oracle's own partition from it with a
deliberately naive round-based loop, independent of `refine`.

Every check walks all explored states of one model and reports how many
comparisons it made and which ones failed.  The `compare` CLI command and
the acceptance suite both run these.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .bisim import Partition, refine
from .errors import FutsError, UnknownStateError
from .explore import FutsModel, RelationData
from .sem_futs import tpc_max_delay
from .sem_oracle import (
    action_distributions,
    delay_derivations,
    interactive_transitions,
    pepa_apparent_rate,
    pepa_transitions,
    timed_transitions,
)
from .syntax import term_key


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


def _state_terms(fm: FutsModel):
    ctx = fm.ctx
    if ctx is None:
        raise FutsError("cross-checks need the exploration context")
    return ctx.model, [(state, ctx.term_of(state.term)) for state in fm.states]


# ---------------------------------------------------------------------------
# Total action weight vs syntactic apparent rate (weighted-choice calculus)
# ---------------------------------------------------------------------------


def apparent_rate_check(fm: FutsModel) -> CheckResult:
    model, pairs = _state_terms(fm)
    act = _relation(fm, "act")
    checked = 0
    failures: List[str] = []
    for state, term in pairs:
        for action in act.labels:
            got = sum((value for _, value in act.function_at(state.id, action)), Fraction(0))
            expected = pepa_apparent_rate(model, term, action)
            checked += 1
            if got != expected:
                failures.append(
                    f"state {state.id} ({state.pretty}) action {action}: "
                    f"total weight {got}, apparent rate {expected}"
                )
    return CheckResult("apparent-rate totals", not failures, checked, tuple(failures))


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

    ``slots`` holds one (relation, label, shape) for each label of each of
    the model's relations, in their order; ``rows[s][i]`` holds state
    ``s``'s derivations for slot ``i``.
    """

    slots: Tuple[Tuple[RelationData, str, str], ...]
    rows: Tuple[tuple, ...]


def oracle_moves(fm: FutsModel) -> OracleMoves:
    """Enumerate the classical oracle once for each state and slot."""
    model, pairs = _state_terms(fm)
    index = fm.index

    def state_of(term) -> int:
        key = term_key(term)
        try:
            return index[key]
        except KeyError:
            raise UnknownStateError(
                f"step-derivation target {key!r} is not an explored state"
            ) from None

    slots = []
    for data in fm.relations:
        if data.name == "act":
            shape = {"pepa": RATED, "mal": DISTS}.get(fm.lang, SET)
        else:
            shape = RATED if data.name == "delay" else TIMED
        slots += [(data, label, shape) for label in data.labels]

    rows = []
    for _, term in pairs:
        row = []
        for data, label, shape in slots:
            if shape == RATED:
                if data.name == "act":
                    derived = pepa_transitions(model, term, label)
                else:
                    derived = delay_derivations(model, term)
                row.append(tuple((rate, state_of(target)) for rate, target in derived))
            elif shape == SET:
                targets = interactive_transitions(model, term, label)
                row.append(frozenset(state_of(target) for target in targets))
            elif shape == TIMED:
                timed = timed_transitions(model, term)
                row.append(frozenset((n, state_of(target)) for n, target in timed))
            else:
                row.append(
                    frozenset(
                        frozenset((state_of(target), mass) for target, mass in dist)
                        for dist in action_distributions(model, term, label)
                    )
                )
        rows.append(tuple(row))
    return OracleMoves(tuple(slots), tuple(rows))


# ---------------------------------------------------------------------------
# Target-for-target agreement between the two semantic routes
# ---------------------------------------------------------------------------


def _fold_rates(pairs) -> Dict[int, Fraction]:
    acc: Dict[int, Fraction] = {}
    for rate, target in pairs:
        acc[target] = acc.get(target, Fraction(0)) + rate
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
            for amount in sorted(value):
                checked += 1
                target_md = tpc_max_delay(ctx, fm.states[target].term)
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
            mass = sum((p for _, p in inner), Fraction(0))
            if mass != 1:
                failures.append(
                    f"state {source} label {label}: branch masses sum to {mass}"
                )
    return CheckResult(
        "branch distributions sum to one", not failures, checked, tuple(failures)
    )


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


def _block_totals(pairs, assignment: Sequence[int]) -> frozenset:
    """Non-zero total weight per block of (weight, target) pairs."""
    acc: Dict[int, Fraction] = {}
    for weight, target in pairs:
        block = assignment[target]
        acc[block] = acc[block] + weight if block in acc else weight
    return frozenset(item for item in acc.items() if item[1] != 0)


def _oracle_part(shape: str, derived, assignment: Sequence[int]) -> frozenset:
    """One slot of a state's signature, read off its derivations only."""
    if shape == RATED:
        return _block_totals(derived, assignment)
    if shape == SET:
        return frozenset(assignment[t] for t in derived)
    if shape == TIMED:
        return frozenset((n, assignment[t]) for n, t in derived)
    return frozenset(
        _block_totals(((mass, t) for t, mass in dist), assignment) for dist in derived
    )


def oracle_partition_from(moves: OracleMoves) -> Partition:
    """Coarsest behavioural partition computed from step derivations only.

    The table's rows follow the exploration's state ids (so block ids line
    up with `refine`), but every signature is built from the oracle's
    derivations, not from the weight functions."""
    shapes = [shape for _, _, shape in moves.slots]
    rows = moves.rows

    def sig_of(state_id: int, assignment: Sequence[int]) -> tuple:
        return tuple(
            _oracle_part(shape, derived, assignment)
            for shape, derived in zip(shapes, rows[state_id])
        )

    return _refine_loop(len(rows), sig_of)


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
    if lang == "pepa":
        results.append(apparent_rate_check(fm))
    moves = oracle_moves(fm)
    results.append(agreement_check(fm, moves))
    if lang == "tpc":
        results.append(tick_singleton_check(fm))
        results.append(time_determinism_check(fm, moves))
        results.append(md_descent_check(fm))
    if lang == "mal":
        results.append(distribution_check(fm))
    results.append(correspondence_check(fm, moves))
    return results
