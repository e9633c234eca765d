"""State-space exploration and serialization.

:func:`explore` computes the breadth-first closure of a model's
initial term under all step relations of its language, producing a
:class:`FutsModel`: an ordered state table (ids assigned in discovery
order) plus, per relation, one transition table keyed by (source state
id, label) that holds every non-zero weight function together with its
targets as state ids.  Zero functions are implicit, so lookups default
to the domain's zero.

Serializers render a model to deterministic JSON (states in
exploration order, entries in canonical key order) or to Graphviz DOT
(one edge per non-zero entry, labelled ``label / value``; transitions
through inner distributions draw one edge per inner target with the
whole distribution inline).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ExplorationLimitError
from .fsfun import FinFn, ff_zero
from .semiring import semiring_of
from .sem_futs import StepContext, futs_step, relation_labels, relation_specs
from .syntax import Model, Term, pretty, term_actions

DEFAULT_MAX_STATES = 10_000


@dataclass(frozen=True)
class StateInfo:
    """One discovered state: dense id, canonical key, readable text."""

    id: int
    key: str
    pretty: str


class Transition(NamedTuple):
    """One non-zero step: the weight function, and its entries again in

    the same order with state ids in place of state keys:
    ``((target id, value), ...)`` for a simple relation, and
    ``((((target id, value), ...), outer value), ...)`` for a nested one.
    """

    fn: FinFn
    targets: tuple


def index_function(fn: FinFn, kind: str, id_of: Callable[[str], int]) -> Transition:
    """Pair ``fn`` with its targets, each state key mapped by ``id_of``."""
    if kind == "simple":
        return Transition(fn, tuple((id_of(key), value) for key, value in fn.entries))
    return Transition(
        fn,
        tuple(
            (tuple((id_of(key), value) for key, value in inner.entries), outer)
            for inner, outer in fn.entries
        ),
    )


@dataclass
class RelationData:
    """One step relation of an explored model."""

    name: str
    kind: str  # "simple" | "nested"
    tag: str
    inner_tag: Optional[str]
    labels: Tuple[str, ...]
    # (source state id, label) -> non-zero step, in discovery order
    transitions: Dict[Tuple[int, str], Transition] = field(default_factory=dict)

    def function_at(self, state_id: int, label: str) -> FinFn:
        step = self.transitions.get((state_id, label))
        return ff_zero(self.tag) if step is None else step.fn


@dataclass
class FutsModel:
    """An explored model: the finite state-to-function system."""

    lang: str
    states: List[StateInfo]
    index: dict  # canonical key -> state id
    relations: List[RelationData]
    init_id: int
    ctx: Optional[StepContext] = None  # kept for callers needing term access


def explore(
    model: Model,
    max_states: int = DEFAULT_MAX_STATES,
    extra_roots: Sequence[Term] = (),
) -> FutsModel:
    """Breadth-first closure of the model's initial term (plus any

    extra root terms) under every relation of its language.
    """
    ctx = StepContext(model)
    specs = relation_specs(model.lang)
    # Action labels must also cover the extra roots, which may mention
    # actions the model's own definitions never use.
    root_actions: set = set()
    for root in extra_roots:
        root_actions.update(term_actions(root))
    relations = []
    for s in specs:
        labels = relation_labels(s, model)
        if s.fixed_labels is None and root_actions:
            labels = tuple(sorted(set(labels) | root_actions))
        relations.append(RelationData(s.name, s.kind, s.tag, s.inner_tag, labels))

    index: dict = {}
    states: List[StateInfo] = []
    queue: deque = deque()

    def discover(key: str) -> int:
        found = index.get(key)
        if found is not None:
            return found
        if len(states) >= max_states:
            raise ExplorationLimitError(
                f"exploration exceeded {max_states} states "
                f"with {len(queue)} states still on the frontier"
            )
        state_id = len(states)
        index[key] = state_id
        states.append(StateInfo(state_id, key, pretty(ctx.term_of(key))))
        queue.append(key)
        return state_id

    init_id = discover(ctx.init_key)
    for root in extra_roots:
        discover(ctx.register(root))

    while queue:
        key = queue.popleft()
        source = index[key]
        for spec, data in zip(specs, relations):
            for label in data.labels:
                fn = futs_step(ctx, key, spec.name, label)
                if fn.entries:
                    data.transitions[source, label] = index_function(fn, spec.kind, discover)

    return FutsModel(model.lang, states, index, relations, init_id, ctx)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _entry_json(fn: FinFn) -> list:
    fmt = semiring_of(fn.tag).fmt
    out = []
    for key, value in fn.entries:
        if isinstance(key, FinFn):
            out.append({"inner": _entry_json(key), "value": fmt(value)})
        else:
            out.append({"target": key, "value": fmt(value)})
    return out


def to_json(fm: FutsModel) -> str:
    """Deterministic JSON rendering of an explored model."""
    doc = {
        "language": fm.lang,
        "init": fm.init_id,
        "states": [{"id": s.id, "term": s.key} for s in fm.states],
        "relations": [
            {
                "labels": list(data.labels),
                "kind": data.kind,
                "semiring": data.tag,
                "transitions": [
                    {
                        "source": source,
                        "label": label,
                        "continuation": _entry_json(fn),
                    }
                    for (source, label), (fn, _) in data.transitions.items()
                ],
            }
            for data in fm.relations
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _inline_distribution(inner: tuple, fmt: Callable[[object], str]) -> str:
    parts = (f"s{target} -> {fmt(value)}" for target, value in inner)
    return "[" + ", ".join(parts) + "]"


def to_dot(fm: FutsModel) -> str:
    """Graphviz rendering: states as nodes (readable term text as the

    node label), one edge per non-zero entry labelled ``label / value``.
    """
    lines = ["digraph model {", "  rankdir=LR;", '  __init [shape=point, label=""];']
    lines.append(f"  __init -> s{fm.init_id};")
    for state in fm.states:
        lines.append(f'  s{state.id} [label="{_dot_escape(state.pretty)}"];')
    for data in fm.relations:
        fmt = semiring_of(data.inner_tag if data.kind == "nested" else data.tag).fmt
        for (source, label), (_, targets) in data.transitions.items():
            if data.kind == "nested":
                for inner, _ in targets:
                    inline = _inline_distribution(inner, fmt)
                    for target, value in inner:
                        lines.append(
                            f"  s{source} -> s{target} "
                            f'[label="{_dot_escape(f"{label} / {fmt(value)} of {inline}")}"];'
                        )
            else:
                for target, value in targets:
                    lines.append(
                        f"  s{source} -> s{target} "
                        f'[label="{_dot_escape(f"{label} / {fmt(value)}")}"];'
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"
