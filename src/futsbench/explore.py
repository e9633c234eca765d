"""State-space exploration and serialization.

:func:`explore` computes the breadth-first closure of a model's
initial term, or of other root terms, under all step relations of its
language, producing a :class:`FutsModel`: its states, each one a term
id in the model's hash-consed table (state ids assigned in discovery
order, the first root as state 0), plus, per relation, one transition
table keyed by (source state id, label) that holds every non-zero step
once, as its targets' state ids and weights in the printed order of the
targets.  Zero steps are implicit.  A state's canonical and readable
texts are read from the table when printed.

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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ExplorationLimitError
from .fsfun import FinFn
from .semiring import semiring_of
from .sem_futs import futs_step, relation_labels, relation_specs
from .syntax import Model
# unused here, but bench/tracing.py wraps explore.pretty (ROADMAP item 3)
from .syntax import pretty  # noqa: F401

DEFAULT_MAX_STATES = 10_000


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
    """An explored model: the finite state-to-function system.

    State ``s`` is term ``states[s]`` of the table ``ctx``, which renders
    its canonical and readable texts (:meth:`.syntax.Model.text`,
    :meth:`.syntax.Model.pretty`); the initial state is state 0.
    """

    ctx: Model
    states: List[int]  # state id -> term id
    relations: List[RelationData]


def relation_tables(model: Model, roots: Iterable[int]) -> List[RelationData]:
    """One empty transition table per relation of the model's language,
    labelled by the actions of the model and of the terms ``roots``."""
    return [
        RelationData(s.name, s.kind, s.tag, s.inner_tag, relation_labels(s, model, roots))
        for s in relation_specs(model.lang)
    ]


def store_steps(
    model: Model,
    relations: List[RelationData],
    source: int,
    term_id: int,
    id_of: Callable[[int], int],
) -> None:
    """Store term ``term_id``'s step under every relation and label as the
    steps of state ``source``, mapping each target term to a state id by
    ``id_of``.

    Labels are stored, and new targets met, in the order of the relation's
    labels, not of the step's dict, so state ids do not depend on how the
    step was built.
    """
    for data in relations:
        steps = futs_step(model, term_id, data.name)
        for label in data.labels:
            fn = steps.get(label)
            if fn is not None:
                data.store(source, label, fn, model.text, id_of)


def explore(
    model: Model,
    max_states: int = DEFAULT_MAX_STATES,
    roots: Optional[Sequence[int]] = None,
) -> FutsModel:
    """Breadth-first closure of the terms ``roots`` (ids in the model's
    table; by default its initial term) under every relation of its
    language.  The roots are the first states, in their order.

    The states' terms, and the steps memoised on the way, are kept in the
    model's table.
    """
    roots = (model.init,) if roots is None else roots
    relations = relation_tables(model, roots)
    state_of: Dict[int, int] = {}  # term id -> state id
    states: List[int] = []
    queue: deque = deque()

    def discover(term_id: int) -> int:
        found = state_of.get(term_id)
        if found is not None:
            return found
        if len(states) >= max_states:
            # the queue still holds the state being expanded
            waiting = len(queue)
            raise ExplorationLimitError(
                f"exploration exceeded {max_states} states with {waiting} "
                f"state{'' if waiting == 1 else 's'} still on the frontier"
            )
        state_id = state_of[term_id] = len(states)
        states.append(term_id)
        queue.append(term_id)
        return state_id

    for root in roots:
        discover(root)

    while queue:
        term_id = queue[0]
        store_steps(model, relations, state_of[term_id], term_id, discover)
        queue.popleft()

    return FutsModel(model, states, relations)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


# The JSON document is written in ``json.dumps(doc, indent=2)``'s layout
# from pieces the C encoder encodes: json.dumps's indented mode runs in
# Python, several times slower.
_str = json.encoder.encode_basestring_ascii  # json.dumps's text for a str


def _array(items: List[str], depth: int) -> str:
    """A JSON array of encoded ``items``, nested ``depth`` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * depth
    # one f-string, so a large array is copied once after its join
    return f"[{pad}  {(',' + pad + '  ').join(items)}{pad}]"


def _object_layout(names: Sequence[str], depth: int) -> str:
    """A %-format for a JSON object with these field names, nested ``depth``
    levels deep; each ``%s`` takes the encoded value of its field."""
    pad = "\n" + "  " * depth
    return "{" + ",".join(f'{pad}  "{name}": %s' for name in names) + pad + "}"


_DOC = _object_layout(("language", "init", "states", "relations"), 0) + "\n"
_STATE = _object_layout(("id", "term"), 2)
_RELATION = _object_layout(("labels", "kind", "semiring", "transitions"), 2)
_TRANSITION = _object_layout(("source", "label", "continuation"), 4)
_ENTRY = _object_layout(("target", "value"), 6)
_DISTRIBUTION = _object_layout(("inner", "value"), 6)
_INNER_ENTRY = _object_layout(("target", "value"), 8)


def _continuation_json(step: tuple, data: RelationData, keys: List[str]) -> str:
    fmt = semiring_of(data.tag).fmt
    if data.kind == "simple":
        return _array([_ENTRY % (keys[t], _str(fmt(v))) for t, v in step], 5)
    inner_fmt = semiring_of(data.inner_tag).fmt
    dists = []
    for inner, v in step:
        entries = [_INNER_ENTRY % (keys[t], _str(inner_fmt(p))) for t, p in inner]
        dists.append(_DISTRIBUTION % (_array(entries, 7), _str(fmt(v))))
    return _array(dists, 5)


def to_json(fm: FutsModel) -> str:
    """Deterministic JSON rendering of an explored model."""
    keys = [_str(fm.ctx.text(term)) for term in fm.states]
    relations = []
    for data in fm.relations:
        labels = [_str(label) for label in data.labels]
        transitions = [
            _TRANSITION % (source, _str(label), _continuation_json(step, data, keys))
            for (source, label), step in data.transitions.items()
        ]
        relations.append(
            _RELATION % (_array(labels, 3), _str(data.kind), _str(data.tag), _array(transitions, 3))
        )
    states = [_STATE % (state, key) for state, key in enumerate(keys)]
    return _DOC % (_str(fm.ctx.lang), 0, _array(states, 1), _array(relations, 1))


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
    lines.append("  __init -> s0;")
    for state, term in enumerate(fm.states):
        lines.append(f'  s{state} [label="{_dot_escape(fm.ctx.pretty(term))}"];')
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
