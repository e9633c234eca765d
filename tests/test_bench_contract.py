"""The library names that the benchmark's tracer wraps stay where it looks.

``bench/tracing.py`` replaces module attributes by wrappers, calling
``getattr`` on each when a traced run starts, and reads the size of the
explored model's term table.  The benchmark's own tests are not part of
this suite, so these checks keep a rename in the library from breaking a
traced run unnoticed.
"""

import importlib.util
from pathlib import Path

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


def test_an_explored_model_exposes_its_term_table():
    fm = explore(parse_model("P = (a, 1).Q\nQ = (b, 1).P\ninit P\n", "pepa"))
    # Q, (a, 1).Q, P, (b, 1).P: exploring adds no term to the parsed ones
    assert len(fm.ctx.registry) == 4
