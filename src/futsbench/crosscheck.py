"""Cross-validation of the weight-function semantics against the
step-derivation oracle, plus structural sanity checks.

Every check walks all explored states of one model and reports how many
comparisons it made and which ones failed.  The `compare` CLI command and
the acceptance suite both run these.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .bisim import oracle_partition_from, refine
from .errors import FutsError
from .explore import FutsModel
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
# Target-for-target agreement between the two semantic routes
# ---------------------------------------------------------------------------


def _fold_rates(pairs) -> Dict[str, Fraction]:
    acc: Dict[str, Fraction] = {}
    for rate, target in pairs:
        key = term_key(target)
        acc[key] = acc.get(key, Fraction(0)) + rate
    return {key: rate for key, rate in acc.items() if rate != 0}


def agreement_check(fm: FutsModel) -> CheckResult:
    model, pairs = _state_terms(fm)
    lang = fm.lang
    act = _relation(fm, "act")
    keys = [state.key for state in fm.states]
    checked = 0
    failures: List[str] = []

    def fail(state, label, message):
        failures.append(f"state {state.id} ({state.pretty}) label {label}: {message}")

    for state, term in pairs:
        for action in act.labels:
            step = act.function_at(state.id, action)
            checked += 1
            if lang == "pepa":
                got = {keys[t]: rate for t, rate in step}
                expected = _fold_rates(pepa_transitions(model, term, action))
                if got != expected:
                    fail(state, action, f"weights {got} != derivations {expected}")
            elif lang in ("iml", "tpc"):
                got_set = {keys[t] for t, _ in step}
                expected_set = {
                    term_key(t) for t in interactive_transitions(model, term, action)
                }
                if got_set != expected_set:
                    fail(state, action, f"targets {got_set} != {expected_set}")
            else:  # mal: compare sets of folded distributions
                got_dists = {
                    frozenset((keys[t], mass) for t, mass in inner) for inner, _ in step
                }
                expected_dists = {
                    frozenset(
                        (term_key(t), mass)
                        for t, mass in dist
                        if mass != 0
                    )
                    for dist in action_distributions(model, term, action)
                }
                if got_dists != expected_dists:
                    fail(state, action, f"distributions {got_dists} != {expected_dists}")

        delay = _relation(fm, "delay")
        if delay is not None:
            label = delay.labels[0]
            got = {keys[t]: rate for t, rate in delay.function_at(state.id, label)}
            expected = _fold_rates(delay_derivations(model, term))
            checked += 1
            if got != expected:
                fail(state, label, f"delay weights {got} != derivations {expected}")

        tick = _relation(fm, "tick")
        if tick is not None:
            label = tick.labels[0]
            got = {keys[t]: amounts for t, amounts in tick.function_at(state.id, label)}
            expected_map: Dict[str, set] = {}
            for amount, target in timed_transitions(model, term):
                expected_map.setdefault(term_key(target), set()).add(amount)
            expected = {key: frozenset(v) for key, v in expected_map.items()}
            checked += 1
            if got != expected:
                fail(state, label, f"tick amounts {got} != derivations {expected}")

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


def time_determinism_check(fm: FutsModel) -> CheckResult:
    model, pairs = _state_terms(fm)
    checked = 0
    failures: List[str] = []
    for state, term in pairs:
        seen: Dict[int, str] = {}
        for amount, target in timed_transitions(model, term):
            checked += 1
            key = term_key(target)
            other = seen.setdefault(amount, key)
            if other != key:
                failures.append(
                    f"state {state.id} ({state.pretty}): waiting {amount} reaches "
                    f"both {other!r} and {key!r}"
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


def correspondence_check(fm: FutsModel) -> CheckResult:
    fine = refine(fm)
    oracle = oracle_partition_from(fm)
    if fine == oracle:
        return CheckResult(
            "bisimilarity correspondence", True, len(fm.states), ()
        )
    return CheckResult(
        "bisimilarity correspondence",
        False,
        len(fm.states),
        (
            f"refinement found {fine.n_blocks} blocks, "
            f"step-derivation oracle {oracle.n_blocks}",
        ),
    )


# ---------------------------------------------------------------------------
# Per-language suites
# ---------------------------------------------------------------------------


def run_checks(fm: FutsModel) -> List[CheckResult]:
    """All checks that apply to the model's language, in a fixed order."""
    lang = fm.lang
    results: List[CheckResult] = []
    if lang == "pepa":
        results.append(apparent_rate_check(fm))
    results.append(agreement_check(fm))
    if lang == "tpc":
        results.append(tick_singleton_check(fm))
        results.append(time_determinism_check(fm))
        results.append(md_descent_check(fm))
    if lang == "mal":
        results.append(distribution_check(fm))
    results.append(correspondence_check(fm))
    return results
