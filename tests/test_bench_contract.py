"""The library names that the benchmark's tracer wraps stay where it looks.

``bench/tracing.py`` replaces module attributes by wrappers, calling
``getattr`` on each when a traced run starts, and its result hooks read
sizes off what the wrapped calls return: an explored model's states,
transition tables and term table, and a partition's blocks.  The benchmark's own tests are not part of
this suite, so these checks keep a rename in the library from breaking a
traced run unnoticed.
"""

import importlib.util
from pathlib import Path

import pytest

from futsbench.bisim import refine
from futsbench.explore import explore
from futsbench.syntax import parse_model

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    plan = load_tracing().instrumentation_plan()
    assert plan
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in plan
        if not hasattr(owner, attr)
    ]
    assert not missing


def test_the_result_hooks_read_an_explored_model_and_its_partition():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    fm = explore(parse_model("P = (a, 1).Q\nQ = (a, 1).P\ninit P <> (b, 1).nil\n", "pepa"))
    tracing._on_explore(tracer, fm)
    tracing._on_refine(tracer, refine(fm))
    # P <> (b, 1).nil, Q <> (b, 1).nil, Q <> nil, P <> nil: P and Q are
    # bisimilar, so only having a b-move splits the states
    assert tracer.values["explore.states"] == 4
    assert tracer.values["explore.transitions_act"] == 6
    assert tracer.values["sem_futs.registered_terms"] == len(fm.ctx.registry)
    assert tracer.values["bisim.blocks"] == 2
    assert tracer.values["explore.transitions_nested"] == 0


def test_the_explore_hook_counts_the_transitions_of_inner_functions():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    # X's act step is one distribution, over nil and 1.X, whose delay leads to X
    fm = explore(parse_model("X = a.{1/2: nil [] 1/2: 1.X}\ninit X\n", "mal"))
    tracing._on_explore(tracer, fm)
    assert tracer.values["explore.states"] == 3
    assert tracer.values["explore.transitions_act"] == 1
    assert tracer.values["explore.transitions_delay"] == 1
    assert tracer.values["explore.transitions_nested"] == 1


def test_an_explored_model_exposes_its_term_table():
    fm = explore(parse_model("P = (a, 1).Q\nQ = (b, 1).P\ninit P\n", "pepa"))
    # Q, (a, 1).Q, P, (b, 1).P: exploring adds no term to the parsed ones
    assert len(fm.ctx.registry) == 4


def test_the_term_table_has_one_entry_per_term():
    # the tracer reports len(registry) as the number of terms, so the
    # registry holds each of the table's n terms once, under ids 0..n-1
    fm = explore(parse_model("P = (a, 1).(b, 2).P\ninit P <> P <a> P\n", "pepa"))
    registry = fm.ctx.registry
    n = len(registry)
    assert n > 10  # exploring added composed targets
    assert sorted(registry.values()) == list(range(n))
    with pytest.raises(IndexError):  # and the table holds no term past them
        fm.ctx.shape(n)
