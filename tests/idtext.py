"""Text views of weight functions keyed by ids.

Steps are keyed by term ids (``futs_step``, one function per label) or
state ids (an explored transition table).  Tests that state expected functions by canonical
term text compare through :func:`as_text`, and name an explored state by
its text through :func:`state_keys` and :func:`state_of`.
"""

from futsbench.fsfun import FinFn, ff_make, ff_zero
from futsbench.semiring import semiring_of
from futsbench.sem_futs import futs_step, relation_specs
from futsbench.syntax import parse_term


def as_text(tag, entries, text_of, inner_tag=None):
    """The function ``entries`` over domain ``tag``, each id replaced by ``text_of(id)``.

    ``entries`` are ``(id, weight)`` pairs, or ``(inner, weight)`` pairs
    whose inner distribution is a ``FinFn`` or a tuple of ``(id, weight)``
    pairs over ``inner_tag``.
    """

    def key(k):
        if isinstance(k, FinFn):
            return as_text(k.tag, k.entries, text_of)
        if isinstance(k, tuple):
            return as_text(inner_tag, k, text_of)
        return text_of(k)

    return ff_make(tag, [(key(k), v) for k, v in entries])


def steps_text(ctx, term_id, relation):
    """A freshly computed step of a term under one relation, each label's
    function keyed by term text."""
    steps = futs_step(ctx, term_id, relation)
    return {label: as_text(fn.tag, fn.entries, ctx.text) for label, fn in steps.items()}


def step_text(ctx, term_id, relation, label):
    """A freshly computed step of a term under one label, keyed by term
    text; the zero function when the term cannot take the label."""
    (spec,) = [spec for spec in relation_specs(ctx.lang) if spec.name == relation]
    return steps_text(ctx, term_id, relation).get(label, ff_zero(spec.tag))


def state_keys(fm):
    """The canonical text of each explored state, in state id order."""
    return [fm.ctx.text(term) for term in fm.states]


def state_of(fm, text):
    """The id of the explored state whose term is ``text``."""
    return fm.states.index(parse_term(text, fm.ctx))


def stored_text(fm, data, state_id, label):
    """An explored step, keyed by its targets' state keys."""
    step = data.function_at(state_id, label)
    return as_text(data.tag, step, lambda t: fm.ctx.text(fm.states[t]), data.inner_tag)


def fn_text(fn):
    """Printed form of a text-keyed function, in key order: ``[P -> 1/2, Q -> 1/2]``."""
    fmt = semiring_of(fn.tag).fmt
    parts = sorted((fn_text(k) if isinstance(k, FinFn) else k, fmt(v)) for k, v in fn.entries)
    return "[" + ", ".join(f"{k} -> {v}" for k, v in parts) + "]"
