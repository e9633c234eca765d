"""Spans and counters recorded from outside the futsbench modules.

The tracer replaces the module attributes that callers use (for example
``futsbench.cli.explore`` or ``futsbench.explore.futs_step``) with
wrappers, and puts the originals back when the traced pass ends.
Nothing inside ``src/`` knows it is being traced.

Three kinds of wrapper, by how often a layer is called:

* ``span``: records name, start, end, parent span and trace id;
* ``timed``: a leaf called too often for one span per call (tens of
  thousands per command).  Calls and seconds are summed per name, and
  the seconds are charged to the enclosing span as *hidden* child time,
  so its self time still excludes them;
* ``counted``: calls only, for the semiring and weight-function
  helpers, which are called millions of times per pass.

A span's self time is its duration minus the part of it that its child
spans cover, minus its hidden child time.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# A span is a list: [id, parent id or None, trace id, name, start, end, hidden].
ID, PARENT, TRACE, NAME, START, END, HIDDEN = range(7)
COMMANDS = ("build", "bisim", "minimize", "compare")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.calls: Counter = Counter()  # every wrapper: name -> calls
        self.seconds: Counter = Counter()  # timed wrappers: name -> seconds
        self.timed_by_command: Counter = Counter()  # (name, command) -> seconds
        self.command = ""
        self.values: Counter = Counter()  # sizes read off results
        self.trace_id = 0
        self._timed_depth = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else None
        span = [len(self.spans), parent, self.trace_id, name, perf_counter(), None, 0.0]
        self.spans.append(span)
        self.stack.append(span)
        self.calls[name] += 1
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    def root(self, command: str, call: Callable[[], int]) -> int:
        """Run one CLI invocation as a new trace with a ``cli.<command>`` root."""
        self.trace_id += 1
        self.command = command
        span = self.open(f"cli.{command}")
        try:
            return call()
        finally:
            self.close(span)

    def span_wrapper(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def timed_wrapper(self, name: str, fn):
        calls, seconds, by_command = self.calls, self.seconds, self.timed_by_command

        def wrapper(*args, **kwargs):
            self._timed_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._timed_depth -= 1
                calls[name] += 1
                seconds[name] += elapsed
                by_command[name, self.command] += elapsed
                # a timed call inside another is already in that one's time
                if self._timed_depth == 0 and self.stack:
                    self.stack[-1][HIDDEN] += elapsed

        return wrapper

    def counted_wrapper(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self, plan: Iterable[Tuple[object, str, str, str, object]]) -> None:
        """Wrap ``owner.attr`` for every (owner, attr, kind, name, hook)."""
        for owner, attr, kind, name, hook in plan:
            original = getattr(owner, attr)
            if kind == "span":
                wrapper = self.span_wrapper(name, original, hook)
            elif kind == "timed":
                wrapper = self.timed_wrapper(name, original)
            else:
                wrapper = self.counted_wrapper(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, handle, pass_index: int) -> None:
        """Append this pass's spans and counters as JSON lines."""
        for span in self.spans:
            handle.write(
                json.dumps(
                    {
                        "pass": pass_index,
                        "id": span[ID],
                        "parent": span[PARENT],
                        "trace": span[TRACE],
                        "name": span[NAME],
                        "start": span[START],
                        "end": span[END],
                        "hidden": span[HIDDEN],
                    }
                )
                + "\n"
            )
        handle.write(
            json.dumps(
                {
                    "pass": pass_index,
                    "calls": dict(self.calls),
                    "seconds": dict(self.seconds),
                    "values": dict(self.values),
                }
            )
            + "\n"
        )


def _on_explore(tracer: Tracer, fm) -> None:
    tracer.values["explore.states"] += len(fm.states)
    for data in fm.relations:
        tracer.values[f"explore.transitions_{data.name}"] += len(data.transitions)
        if data.kind == "nested":
            tracer.values["explore.transitions_nested"] += len(data.transitions)
    tracer.values["sem_futs.registered_terms"] += len(fm.ctx.registry)


def _on_refine(tracer: Tracer, partition) -> None:
    tracer.values["bisim.blocks"] += partition.n_blocks


def _on_checks(tracer: Tracer, results) -> None:
    tracer.values["crosscheck.checks"] += sum(r.checked for r in results)


CHECKS = (
    "apparent_rate_check",
    "agreement_check",
    "tick_singleton_check",
    "time_determinism_check",
    "md_descent_check",
    "distribution_check",
    "correspondence_check",
)
ORACLE = (
    "pepa_transitions",
    "pepa_apparent_rate",
    "interactive_transitions",
    "delay_derivations",
    "timed_transitions",
    "action_distributions",
)


def instrumentation_plan():
    """(owner, attribute, kind, span name, result hook) for every wrapped call.

    Each entry wraps the name the *caller* looks up, so a call is seen
    where it crosses from one module into another.
    """
    from futsbench import bisim, cli, crosscheck, explore, fsfun, sem_futs

    plan = [
        (cli, "load_model", "span", "syntax.load_model", None),
        (cli, "check_guarded", "span", "syntax.check_guarded", None),
        (cli, "parse_term", "span", "syntax.parse_term", None),
        (cli, "explore", "span", "explore.explore", _on_explore),
        (explore, "futs_step", "span", "sem_futs.futs_step", None),
        (cli, "to_json", "span", "explore.to_json", None),
        (cli, "to_dot", "span", "explore.to_dot", None),
        (cli, "refine", "span", "bisim.refine", _on_refine),
        (bisim, "refine", "span", "bisim.refine", _on_refine),
        (crosscheck, "refine", "span", "bisim.refine", _on_refine),
        (cli, "distinguish", "span", "bisim.distinguish", None),
        (cli, "minimize", "span", "bisim.minimize", None),
        (cli, "run_checks", "span", "crosscheck.run_checks", _on_checks),
        (crosscheck, "oracle_partition_from", "span", "bisim.oracle_partition", None),
        (explore.RelationData, "function_at", "timed", "explore.function_at", None),
        (explore, "pretty", "counted", "syntax.pretty", None),
    ]
    plan += [(crosscheck, name, "span", f"crosscheck.{name}", None) for name in CHECKS]
    for owner in (bisim, crosscheck):
        plan += [
            (owner, name, "timed", f"sem_oracle.{name}", None)
            for name in ORACLE
            if hasattr(owner, name)
        ]
    for owner in (sem_futs, cli, crosscheck, bisim):
        plan.append((owner, "term_key", "timed", "syntax.term_key", None))
    for owner in (fsfun, sem_futs, explore, bisim, crosscheck):
        for name in sorted(vars(owner)):
            if name.startswith(("sr_", "make_")) and callable(getattr(owner, name)):
                plan.append((owner, name, "counted", f"semiring.{name}", None))
            elif name.startswith("ff_") and owner is not fsfun:
                plan.append((owner, name, "counted", f"fsfun.{name}", None))
    return plan


# ---------------------------------------------------------------------------
# Self time and the layer table
# ---------------------------------------------------------------------------


def covered(interval: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus covered child time minus hidden child time."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered((span[START], span[END]), children[span[ID]])
        - span[HIDDEN]
        for span in spans
    }


def _command_of(tracer: Tracer) -> Dict[int, str]:
    """Trace id -> the CLI command of its root span."""
    return {
        span[TRACE]: span[NAME].split(".", 1)[1]
        for span in tracer.spans
        if span[PARENT] is None
    }


def layer_rows(tracer: Tracer) -> Dict[str, dict]:
    """Per span or timed name: calls, inclusive and self seconds, overall and
    per CLI command."""
    own = self_times(tracer.spans)
    command_of = _command_of(tracer)
    rows: Dict[str, dict] = {}

    def row(name: str) -> dict:
        return rows.setdefault(
            name,
            {"calls": 0, "incl": 0.0, "self": 0.0, "by_command": defaultdict(float)},
        )

    for span in tracer.spans:
        r = row(span[NAME])
        r["calls"] += 1
        r["incl"] += span[END] - span[START]
        r["self"] += own[span[ID]]
        r["by_command"][command_of[span[TRACE]]] += own[span[ID]]
    for name, seconds in tracer.seconds.items():
        r = row(name)
        r["calls"] = tracer.calls[name]
        r["incl"] = r["self"] = seconds
    for (name, command), seconds in tracer.timed_by_command.items():
        rows[name]["by_command"][command] += seconds
    return rows


def inclusive_by_command(tracer: Tracer, name: str) -> Dict[str, float]:
    """Seconds inside ``name`` spans, per CLI command."""
    command_of = _command_of(tracer)
    totals: Dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        if span[NAME] == name:
            totals[command_of[span[TRACE]]] += span[END] - span[START]
    return totals


def command_seconds(tracer: Tracer) -> Dict[str, float]:
    """Seconds of each CLI command: the sum of its root spans."""
    return {c: sum(inclusive_by_command(tracer, f"cli.{c}").values()) for c in COMMANDS}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by their published names."""
    rows = layer_rows(tracer)

    def incl(name: str) -> float:
        return rows[name]["incl"] if name in rows else 0.0

    def own(name: str) -> float:
        return rows[name]["self"] if name in rows else 0.0

    calls = tracer.calls
    values = tracer.values
    explore_s = incl("explore.explore")
    return {
        "syntax.load_model_s": incl("syntax.load_model"),
        "syntax.check_guarded_s": incl("syntax.check_guarded"),
        "syntax.term_key_calls": calls["syntax.term_key"],
        "syntax.term_key_s": incl("syntax.term_key"),
        "syntax.pretty_calls": calls["syntax.pretty"],
        "sem_futs.futs_step_calls": calls["sem_futs.futs_step"],
        "sem_futs.futs_step_s": incl("sem_futs.futs_step"),
        "sem_futs.registered_terms": values["sem_futs.registered_terms"],
        "sem_futs.state_yield": values["explore.states"]
        / max(values["sem_futs.registered_terms"], 1),
        "explore.explore_self_s": own("explore.explore"),
        "explore.states": values["explore.states"],
        "explore.transitions_act": values["explore.transitions_act"],
        "explore.transitions_delay": values["explore.transitions_delay"],
        "explore.transitions_tick": values["explore.transitions_tick"],
        "explore.transitions_nested": values["explore.transitions_nested"],
        "explore.states_per_s": values["explore.states"] / explore_s if explore_s else 0.0,
        "explore.function_at_calls": calls["explore.function_at"],
        "explore.function_at_s": incl("explore.function_at"),
        "explore.to_json_s": incl("explore.to_json"),
        "semiring.calls": sum(n for k, n in calls.items() if k.startswith("semiring.")),
        "fsfun.calls": sum(n for k, n in calls.items() if k.startswith("fsfun.")),
        "bisim.refine_calls": calls["bisim.refine"],
        "bisim.refine_s": incl("bisim.refine"),
        "bisim.blocks": values["bisim.blocks"],
        "bisim.distinguish_self_s": own("bisim.distinguish"),
        "bisim.minimize_s": incl("bisim.minimize"),
        "bisim.oracle_partition_s": incl("bisim.oracle_partition"),
        "sem_oracle.calls": sum(n for k, n in calls.items() if k.startswith("sem_oracle.")),
        "sem_oracle.s": sum(s for k, s in tracer.seconds.items() if k.startswith("sem_oracle.")),
        "crosscheck.run_checks_self_s": own("crosscheck.run_checks"),
        "crosscheck.agreement_s": incl("crosscheck.agreement_check"),
        "crosscheck.correspondence_self_s": own("crosscheck.correspondence_check"),
        "crosscheck.checks": values["crosscheck.checks"],
        "cli.self_s": sum(own(f"cli.{c}") for c in COMMANDS),
        "trace.spans": len(tracer.spans),
    }


def median_metrics(per_pass: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def format_layer_table(tracer: Tracer, untraced: Dict[str, float]) -> str:
    """Self time, calls and share of every command for each layer, plus the
    tracing overhead against the untraced command times."""
    rows = layer_rows(tracer)
    traced = command_seconds(tracer)
    commands = [c for c in COMMANDS if traced.get(c)]
    head = f"{'layer':38} {'calls':>9} {'self s':>9} {'incl s':>9}"
    head += "".join(f" {c + ' %':>11}" for c in commands)
    lines = [head, "-" * len(head)]
    for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self"]):
        line = f"{name:38} {r['calls']:9d} {r['self']:9.4f} {r['incl']:9.4f}"
        for c in commands:
            line += f" {100 * r['by_command'].get(c, 0.0) / traced[c]:10.1f}%"
        lines.append(line)
    counts = sorted(
        (name, n) for name, n in tracer.calls.items() if name not in rows
    )
    lines.append("")
    lines.append("counted only: " + ", ".join(f"{name} {n}" for name, n in counts))
    lines.append(
        "result sizes: " + ", ".join(f"{k} {v}" for k, v in sorted(tracer.values.items()))
    )
    lines.append("")
    lines.append(f"{'command':10} {'untraced s':>11} {'traced s':>9} {'overhead':>9}")
    for c in commands:
        base = untraced.get(c, 0.0)
        over = f"{100 * (traced[c] / base - 1):8.1f}%" if base else f"{'n/a':>9}"
        lines.append(f"{c:10} {base:11.4f} {traced[c]:9.4f} {over}")
    return "\n".join(lines)


def predicted_split(tracer: Tracer, workload: str) -> List[Tuple[str, bool]]:
    """The per-workload split the benchmark was designed around, evaluated
    on one traced pass: (statement, holds)."""
    traced = command_seconds(tracer)
    explore = inclusive_by_command(tracer, "explore.explore")
    refine = inclusive_by_command(tracer, "bisim.refine")
    oracle = inclusive_by_command(tracer, "bisim.oracle_partition")

    def share(part: Dict[str, float], command: str) -> float:
        return part.get(command, 0.0) / traced[command] if traced.get(command) else 0.0

    if workload == "pepa-par":
        return [
            ("explore (with futs_step) is most of build", share(explore, "build") > 0.5),
            ("refine is under 10% of minimize", share(refine, "minimize") < 0.1),
        ]
    if workload == "pepa-chain":
        return [
            ("explore is under 5% of minimize", share(explore, "minimize") < 0.05),
            (
                "refine plus oracle_partition are most of compare",
                share(refine, "compare") + share(oracle, "compare") > 0.5,
            ),
        ]
    if workload == "mixed-corpus":
        v = tracer.values
        return [
            ("delay relation records transitions", v["explore.transitions_delay"] > 0),
            ("tick relation records transitions", v["explore.transitions_tick"] > 0),
            ("nested act relation records transitions", v["explore.transitions_nested"] > 0),
        ]
    return []
