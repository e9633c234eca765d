"""Text views of weight functions keyed by ids.

Steps are keyed by term ids (``futs_step``, one function per label) or
state ids (an explored transition table).  Tests that state expected functions by canonical
term text compare through :func:`as_text`, and name an explored state by
its text through :func:`state_keys` and :func:`state_of`.  The zero
function of a domain, which only tests need, is :func:`ff_zero`.
"""

from futsbench.fsfun import FinFn, ff_make
from futsbench.semiring import semiring_of
from futsbench.sem_futs import futs_step, relation_specs
from futsbench.syntax import parse_term


def ff_zero(tag):
    """The constant-zero function of a domain."""
    return ff_make(tag, ())


def as_text(layers, entries, text_of):
    """The function ``entries`` over ``layers`` (weight domains, outermost
    first), each id replaced by ``text_of(id)``.

    ``entries`` are ``(id, weight)`` pairs, or, with more layers,
    ``(inner, weight)`` pairs whose inner function is a ``FinFn`` or a
    tuple of pairs over the layers below.
    """
    deeper = layers[1:]

    def key(k):
        if not deeper:
            return text_of(k)
        return as_text(deeper, k.entries if isinstance(k, FinFn) else k, text_of)

    return ff_make(layers[0].tag, [(key(k), v) for k, v in entries])


def relation_spec(ctx, relation):
    """The spec of one relation of the model's language."""
    (spec,) = [spec for spec in relation_specs(ctx.lang) if spec.name == relation]
    return spec


def steps_text(ctx, term_id, relation):
    """A freshly computed step of a term under one relation, each label's
    function keyed by term text."""
    layers = relation_spec(ctx, relation).layers
    steps = futs_step(ctx, term_id, relation)
    return {label: as_text(layers, fn.entries, ctx.text) for label, fn in steps.items()}


def step_text(ctx, term_id, relation, label):
    """A freshly computed step of a term under one label, keyed by term
    text; the zero function when the term cannot take the label."""
    zero = ff_zero(relation_spec(ctx, relation).layers[0].tag)
    return steps_text(ctx, term_id, relation).get(label, zero)


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


def fn_text(fn):
    """Printed form of a text-keyed function, in key order: ``[P -> 1/2, Q -> 1/2]``."""
    fmt = semiring_of(fn.tag).fmt
    parts = sorted((fn_text(k) if isinstance(k, FinFn) else k, fmt(v)) for k, v in fn.entries)
    return "[" + ", ".join(f"{k} -> {v}" for k, v in parts) + "]"
