"""State-space exploration and serialization.

:func:`explore` computes the breadth-first closure of a model's
initial term, or of other root terms, under all step relations of its
language, producing a :class:`FutsModel`: its states, each one a term
id in the model's hash-consed table (state ids assigned in discovery
order, the first root as state 0), plus, per relation, one transition
table keyed by (source state id, label) that holds every non-zero step
once, as its targets' state ids and weights.  Zero steps are implicit.

A step is a function, and its support has no order of its own, so two
orders are kept.  By default a step's targets go in the function's own
key order, term-id order, and new states are numbered in that order:
exploring then renders no text, and a term whose text doubles at each
step costs no more to explore than any other.  Explored ``printed``, a
step's targets go in the order of their canonical texts, the order that
``build`` prints; :func:`canonical` renumbers a model explored in id
order into that one.  Only what names a state calls it: the
serializers here, ``bisim``'s witness and quotient, and ``compare`` once
a check fails.  A state's canonical and readable texts are read from the
table when printed.

A relation's ``layers`` are the weight domains of its steps, outermost
first; one function per concern walks a step through them by recursion
on the layers below the outermost (:func:`in_key_order` and
:func:`in_printed_order`, :func:`innermost`, :func:`step_text`, and
``bisim``'s push).

Serializers render a model to deterministic JSON (states in printed
exploration order, entries in canonical key order, one layout per layer)
or to Graphviz DOT (one edge per non-zero entry, labelled ``label /
value``; transitions through inner distributions draw one edge per inner
target with the whole distribution inline).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ExplorationLimitError
from .sem_futs import Layers, futs_step, relation_labels, relation_specs
from .syntax import Model
# unused here, but bench/tracing.py wraps explore.pretty (ROADMAP item 3)
from .syntax import pretty  # noqa: F401

DEFAULT_MAX_STATES = 10_000


@dataclass
class RelationData:
    """One step relation of an explored model."""

    name: str
    layers: Layers  # the weight domains of a step, outermost first
    labels: Tuple[str, ...]
    # (source state id, label) -> non-zero step, in discovery order: the
    # ``((target id, weight), ...)`` of a step with one layer; with more,
    # each key is such a tuple itself, an inner function over the layers
    # below.  Entries go in their terms' id order, or, in a model explored
    # printed, in their printed order (:func:`in_printed_order`)
    transitions: Dict[Tuple[int, str], tuple] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """``"simple"`` for steps with one layer, else ``"nested"``."""
        return "simple" if len(self.layers) == 1 else "nested"

    def function_at(self, state_id: int, label: str) -> tuple:
        """The step of a state under a label; ``()`` when it is zero."""
        return self.transitions.get((state_id, label), ())


def in_key_order(entries: tuple, layers: Layers, id_of: Callable) -> tuple:
    """The non-zero function ``entries`` over ``layers`` as a stored step,
    its entries in their own order: each target mapped to a state id by
    ``id_of``, in the order of its term id.  Nothing is rendered."""
    if len(layers) == 1:
        return tuple([(id_of(k), v) for k, v in entries])
    deeper = layers[1:]
    return tuple([(in_key_order(k, deeper, id_of), v) for k, v in entries])


def in_printed_order(entries: tuple, layers: Layers, text_of: Callable, id_of: Callable) -> tuple:
    """The non-zero function ``entries`` over ``layers`` as a stored step,
    in the order ``build`` prints it.

    Its entries go in the order of their keys' printed text: a target's by
    ``text_of``, an inner function's by :func:`step_text` with its own
    entries ordered by their keys' :func:`key_text`.  Then each target is
    mapped to a state id by ``id_of``, in the order the step is printed.
    This renders every target's text, so only a model explored printed,
    :func:`canonical` and a quotient order steps so.
    """
    if len(layers) == 1:
        return tuple((id_of(k), v) for k, v in sorted(entries, key=lambda e: text_of(e[0])))
    deeper = layers[1:]

    def printed(entry) -> str:
        inner = sorted(entry[0], key=lambda e: key_text(e[0], deeper[1:], text_of))
        return step_text(inner, deeper, text_of)

    ordered = sorted(entries, key=printed)
    return tuple((in_printed_order(k, deeper, text_of, id_of), v) for k, v in ordered)


def innermost(pairs: Iterable[tuple], layers: Layers) -> Iterable[tuple]:
    """The innermost functions of stored steps over ``layers``, from
    ``(owner, step)`` pairs whose owners are tuples, in order: the pairs
    themselves for steps with one layer, else each inner function paired
    with its owner extended by it."""
    for _ in layers[1:]:
        pairs = [((*owner, inner), inner) for owner, step in pairs for inner, _ in step]
    return pairs


def step_text(entries: Iterable, layers: Layers, name_of: Callable) -> str:
    """The printed form ``[k -> w, ...]`` of the function ``entries`` over
    ``layers``, in the order of ``entries``, each key printed by
    :func:`key_text`."""
    fmt, deeper = layers[0].fmt, layers[1:]
    return "[" + ", ".join(f"{key_text(k, deeper, name_of)} -> {fmt(v)}" for k, v in entries) + "]"


def key_text(key, deeper: Layers, name_of: Callable) -> str:
    """The printed form of a key with the layers ``deeper`` below it: a
    target's ``name_of``, or ``distribution [k -> w, ...]`` for an inner
    function."""
    if not deeper:
        return name_of(key)
    return "distribution " + step_text(key, deeper, name_of)


@dataclass
class FutsModel:
    """An explored model: the finite state-to-function system.

    State ``s`` is term ``states[s]`` of the table ``ctx``, which renders
    its canonical and readable texts (:meth:`.syntax.Model.text`,
    :meth:`.syntax.Model.pretty`).  The first ``roots`` states are the
    roots it was explored from, the initial state first.  ``printed``
    tells whether its steps, and so its state ids, are in printed order
    (:func:`in_printed_order`) or in term-id order (:func:`in_key_order`);
    :func:`canonical` turns the second into the first.
    """

    ctx: Model
    states: List[int]  # state id -> term id
    relations: List[RelationData]
    roots: int = 1
    printed: bool = True


def relation_tables(model: Model) -> List[RelationData]:
    """One empty transition table per relation of the model's language,
    labelled by the actions of the terms in its table (:func:`.syntax.alphabet`)."""
    return [
        RelationData(s.name, s.layers, relation_labels(s, model))
        for s in relation_specs(model.lang)
    ]


def store_steps(
    model: Model,
    relations: List[RelationData],
    source: int,
    term_id: int,
    id_of: Callable[[int], int],
    printed: bool = False,
) -> None:
    """Store term ``term_id``'s step under every relation and label as the
    steps of state ``source``, mapping each target term to a state id by
    ``id_of``.

    Labels are stored, and new targets met, in the order of the relation's
    labels, not of the step's dict, so state ids do not depend on how the
    step was built.  Within a step, targets are met in term-id order
    (:func:`in_key_order`), which renders nothing, or, when ``printed``,
    in printed order (:func:`in_printed_order`).
    """
    text_of = model.text
    for data in relations:
        steps = futs_step(model, term_id, data.name)
        for label in data.labels:
            fn = steps.get(label)
            if fn is not None:
                data.transitions[source, label] = (
                    in_printed_order(fn, data.layers, text_of, id_of)
                    if printed
                    else in_key_order(fn, data.layers, id_of)
                )


def explore(
    model: Model,
    max_states: int = DEFAULT_MAX_STATES,
    roots: Optional[Sequence[int]] = None,
    printed: bool = False,
) -> FutsModel:
    """Breadth-first closure of the terms ``roots`` (ids in the model's
    table; by default its initial term) under every relation of its
    language.  The roots are the first states, in their order.

    Each step's targets, and so the states they discover, go in term-id
    order, and nothing is rendered; ``printed``, they go in printed order,
    which renders every state's canonical text, as :func:`to_json` would.
    The states' terms, and the steps memoised on the way, are kept in the
    model's table.
    """
    roots = (model.init,) if roots is None else roots
    relations = relation_tables(model)
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
    n_roots = len(states)

    while queue:
        term_id = queue[0]
        store_steps(model, relations, state_of[term_id], term_id, discover, printed)
        queue.popleft()

    return FutsModel(model, states, relations, n_roots, printed)


def canonical(fm: FutsModel) -> FutsModel:
    """The model that exploring ``printed`` from the same roots builds:
    ``fm`` renumbered by a breadth-first walk from its roots over its
    stored steps, each in printed order (:func:`in_printed_order`).  A
    model that is printed already is returned as it is."""
    if fm.printed:
        return fm
    ctx, terms = fm.ctx, fm.states
    new_id: Dict[int, int] = {}  # state id in fm -> state id here
    order: List[int] = []  # state id here -> state id in fm

    def discover(state: int) -> int:
        found = new_id.get(state)
        if found is None:
            found = new_id[state] = len(order)
            order.append(state)
        return found

    def text_of(state: int) -> str:
        return ctx.text(terms[state])

    for root in range(fm.roots):
        discover(root)
    relations = [RelationData(data.name, data.layers, data.labels) for data in fm.relations]
    for source, state in enumerate(order):  # the walk appends to ``order``
        for data, renumbered in zip(fm.relations, relations):
            for label in data.labels:
                step = data.transitions.get((state, label))
                if step is not None:
                    renumbered.transitions[source, label] = in_printed_order(
                        step, data.layers, text_of, discover
                    )
    return FutsModel(ctx, [terms[state] for state in order], relations, fm.roots)


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


@cache  # a step's layouts are looked up once per relation and output
def _object_layout(names: Sequence[str], depth: int) -> str:
    """A %-format for a JSON object with these field names, nested ``depth``
    levels deep; each ``%s`` takes the encoded value of its field."""
    pad = "\n" + "  " * depth
    return "{" + ",".join(f'{pad}  "{name}": %s' for name in names) + pad + "}"


_DOC = _object_layout(("language", "init", "states", "relations"), 0) + "\n"
_STATE = _object_layout(("id", "term"), 2)
_RELATION = _object_layout(("labels", "kind", "semiring", "transitions"), 2)
_TRANSITION = _object_layout(("source", "label", "continuation"), 4)


def _continuation_json(layers: Layers, keys: List[str], depth: int = 5) -> Callable:
    """The writer of a stored step over ``layers`` as a JSON array nested
    ``depth`` levels deep: one ``target`` object per entry, with the
    encoded key ``keys[target]``, or, with more layers, one ``inner``
    object per entry, holding its inner function's array."""
    fmt, deeper = layers[0].fmt, layers[1:]
    if not deeper:
        entry = _object_layout(("target", "value"), depth + 1)
        return lambda step: _array([entry % (keys[t], _str(fmt(v))) for t, v in step], depth)
    inner = _continuation_json(deeper, keys, depth + 2)
    entry = _object_layout(("inner", "value"), depth + 1)
    return lambda step: _array([entry % (inner(k), _str(fmt(v))) for k, v in step], depth)


def to_json(fm: FutsModel) -> str:
    """Deterministic JSON rendering of an explored model, numbered as
    :func:`canonical` numbers it."""
    fm = canonical(fm)
    keys = [_str(fm.ctx.text(term)) for term in fm.states]
    relations = []
    for data in fm.relations:
        continuation = _continuation_json(data.layers, keys)
        transitions = [
            _TRANSITION % (source, _str(label), continuation(step))
            for (source, label), step in data.transitions.items()
        ]
        labels = _array([_str(label) for label in data.labels], 3)
        head = (labels, _str(data.kind), _str(data.layers[0].tag))
        relations.append(_RELATION % (*head, _array(transitions, 3)))
    states = [_STATE % (state, key) for state, key in enumerate(keys)]
    return _DOC % (_str(fm.ctx.lang), 0, _array(states, 1), _array(relations, 1))


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(fm: FutsModel) -> str:
    """Graphviz rendering: states as nodes (readable term text as the
    node label), one edge per non-zero entry labelled ``label / value``,
    numbered as :func:`canonical` numbers the model.
    """
    fm = canonical(fm)
    lines = ["digraph model {", "  rankdir=LR;", '  __init [shape=point, label=""];']
    lines.append("  __init -> s0;")
    for state, term in enumerate(fm.states):
        lines.append(f'  s{state} [label="{_dot_escape(fm.ctx.pretty(term))}"];')
    for data in fm.relations:
        last = data.layers[-1:]
        for (source, label, *within), fn in innermost(data.transitions.items(), data.layers):
            # an entry of an inner function is labelled with that function too
            of = "".join(f" of {step_text(inner, last, 's{}'.format)}" for inner in within[-1:])
            for target, value in fn:
                lines.append(
                    f"  s{source} -> s{target} "
                    f'[label="{_dot_escape(f"{label} / {last[0].fmt(value)}{of}")}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
