"""State-space exploration and serialization.

:func:`explore` computes the breadth-first closure of a model's
initial term under all step relations of its language, producing a
:class:`FutsModel`: an ordered state table (ids assigned in discovery
order) plus, per relation, one transition table keyed by (source state
id, label) that holds every non-zero step once, as its targets' state
ids and weights in the printed order of the targets.  Zero steps are
implicit.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import ExplorationLimitError
from .fsfun import FinFn
from .semiring import semiring_of
from .sem_futs import StepContext, futs_step, relation_labels, relation_specs
from .syntax import Model, Term, pretty, term_actions

DEFAULT_MAX_STATES = 10_000


@dataclass(frozen=True)
class StateInfo:
    """One discovered state: dense id, canonical key, readable text, and

    its term id in the exploring :class:`StepContext`.
    """

    id: int
    key: str
    pretty: str
    term: int


@dataclass
class RelationData:
    """One step relation of an explored model."""

    name: str
    kind: str  # "simple" | "nested"
    tag: str
    inner_tag: Optional[str]
    labels: Tuple[str, ...]
    # (source state id, label) -> non-zero step, in discovery order: the
    # ``((target id, weight), ...)`` of a simple relation, or the
    # ``((((target id, weight), ...), weight), ...)`` of a nested one
    transitions: Dict[Tuple[int, str], tuple] = field(default_factory=dict)

    def function_at(self, state_id: int, label: str) -> tuple:
        """The step of a state under a label; ``()`` when it is zero."""
        return self.transitions.get((state_id, label), ())

    def store(
        self,
        source: int,
        label: str,
        fn: FinFn,
        text_of: Callable[[int], str],
        id_of: Callable[[int], int],
    ) -> None:
        """Record ``fn`` as the step of ``source`` unless it is zero.

        Entries go in the order of their keys' printed text (``text_of``)
        and then of the printed distributions; each key is mapped to a
        state id by ``id_of`` in that order.
        """
        if not fn.entries:
            return

        def by_text(entry):
            return text_of(entry[0])

        if self.kind == "simple":
            step = tuple((id_of(k), v) for k, v in sorted(fn.entries, key=by_text))
        else:
            fmt = semiring_of(self.inner_tag).fmt
            dists = [(sorted(inner.entries, key=by_text), value) for inner, value in fn.entries]
            dists.sort(
                key=lambda dist: "["
                + ", ".join(f"{text_of(k)} -> {fmt(v)}" for k, v in dist[0])
                + "]"
            )
            step = tuple(
                (tuple((id_of(k), v) for k, v in inner), value) for inner, value in dists
            )
        self.transitions[source, label] = step


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

    state_of: Dict[int, int] = {}  # term id -> state id
    index: dict = {}
    states: List[StateInfo] = []
    queue: deque = deque()

    def discover(term_id: int) -> int:
        found = state_of.get(term_id)
        if found is not None:
            return found
        if len(states) >= max_states:
            raise ExplorationLimitError(
                f"exploration exceeded {max_states} states "
                f"with {len(queue)} states still on the frontier"
            )
        state_id = state_of[term_id] = len(states)
        key = ctx.text(term_id)
        index[key] = state_id
        states.append(StateInfo(state_id, key, pretty(ctx.term_of(term_id)), term_id))
        queue.append(term_id)
        return state_id

    init_id = discover(ctx.init_id)
    for root in extra_roots:
        discover(ctx.register(root))

    while queue:
        term_id = queue.popleft()
        source = state_of[term_id]
        for spec, data in zip(specs, relations):
            for label in data.labels:
                fn = futs_step(ctx, term_id, spec.name, label)
                data.store(source, label, fn, ctx.text, discover)

    return FutsModel(model.lang, states, index, relations, init_id, ctx)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _entry_json(step: tuple, data: RelationData, keys: List[str]) -> list:
    fmt = semiring_of(data.tag).fmt
    if data.kind == "simple":
        return [{"target": keys[t], "value": fmt(v)} for t, v in step]
    inner_fmt = semiring_of(data.inner_tag).fmt
    return [
        {"inner": [{"target": keys[t], "value": inner_fmt(p)} for t, p in inner], "value": fmt(v)}
        for inner, v in step
    ]


def to_json(fm: FutsModel) -> str:
    """Deterministic JSON rendering of an explored model."""
    keys = [s.key for s in fm.states]
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
                        "continuation": _entry_json(step, data, keys),
                    }
                    for (source, label), step in data.transitions.items()
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
        for (source, label), targets in data.transitions.items():
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
