"""Text views of weight functions keyed by ids.

Steps are keyed by term ids (``futs_step``, one function per label) or
state ids (an explored transition table).  Tests that state expected functions by canonical
term text compare through :func:`as_text`, and name an explored state by
its text through :func:`state_keys` and :func:`state_of`.  A function is
its tuple of non-zero entries, so the zero function is ``()``.
"""

from futsbench.fsfun import ff_make
from futsbench.sem_futs import futs_step, relation_specs
from futsbench.syntax import parse_term


def as_text(layers, entries, text_of):
    """The function ``entries`` over ``layers`` (weight domains, outermost
    first), each id replaced by ``text_of(id)``.

    ``entries`` are ``(id, weight)`` pairs, or, with more layers,
    ``(inner, weight)`` pairs whose inner function is a tuple of pairs over
    the layers below.
    """
    deeper = layers[1:]

    def key(k):
        return as_text(deeper, k, text_of) if deeper else text_of(k)

    return ff_make(layers[0], [(key(k), v) for k, v in entries])


def relation_spec(ctx, relation):
    """The spec of one relation of the model's language."""
    (spec,) = [spec for spec in relation_specs(ctx.lang) if spec.name == relation]
    return spec


def steps_text(ctx, term_id, relation):
    """A freshly computed step of a term under one relation, each label's
    function keyed by term text."""
    layers = relation_spec(ctx, relation).layers
    steps = futs_step(ctx, term_id, relation)
    return {label: as_text(layers, fn, ctx.text) for label, fn in steps.items()}


def step_text(ctx, term_id, relation, label):
    """A freshly computed step of a term under one label, keyed by term
    text; the zero function ``()`` when the term cannot take the label."""
    return steps_text(ctx, term_id, relation).get(label, ())


def state_keys(fm):
    """The canonical text of each explored state, in state id order."""
    return [fm.ctx.text(term) for term in fm.states]


def state_of(fm, text):
    """The id of the explored state whose term is ``text``."""
    return fm.states.index(parse_term(text, fm.ctx))


def stored_text(fm, data, state_id, label):
    """An explored step, keyed by its targets' state keys."""
    step = data.function_at(state_id, label)
    return as_text(data.layers, step, lambda t: fm.ctx.text(fm.states[t]))


def fn_text(layers, fn):
    """Printed form of a text-keyed function over ``layers``, in key order:
    ``[P -> 1/2, Q -> 1/2]``."""
    fmt, deeper = layers[0].fmt, layers[1:]
    parts = sorted((fn_text(deeper, k) if deeper else k, fmt(v)) for k, v in fn)
    return "[" + ", ".join(f"{k} -> {v}" for k, v in parts) + "]"
