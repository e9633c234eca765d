"""Property: whatever the input, the command line answers with exit 0, 1
or 2 and never lets an exception escape."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from futsbench.cli import main

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

EXTENSIONS = (".pepa", ".iml", ".tpc", ".mal")

# One small model per language; constants Q and R are left undefined.
MODELS = {
    ".pepa": "P = (a, 1).P + (b, 2).nil\ninit P\n",
    ".iml": "P = a.P + 1/2 . nil\ninit P\n",
    ".tpc": "P = (1).a.P\ninit P\n",
    ".mal": "P = a.{1/2: P [] 1/2: nil} + 1 . P\ninit P\n",
}

TOKENS = (
    "nil", "P", "Q", "R", "a", "b", "init", "(", ")", "+", ".", ",", "<", ">",
    "<a>", "<>", "|[", "]|", "|[a]|", "{", "}", ":", "[]", "1", "2", "1/2",
    "0", "1.5", "-", "|", "=",
)


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def write_model(directory, name, data):
    path = directory / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")
    return str(path)


@FUZZ
@given(
    data=st.one_of(st.text(max_size=120), st.binary(max_size=120)),
    ext=st.sampled_from(EXTENSIONS),
)
def test_any_model_file_gives_an_exit_code(tmp_path_factory, data, ext):
    path = write_model(tmp_path_factory.mktemp("fuzz"), "m" + ext, data)
    assert run(["check", path]) in (0, 2)
    assert run(["build", path, "--max-states", "50"]) in (0, 2)


@FUZZ
@given(
    ext=st.sampled_from(EXTENSIONS),
    left=st.lists(st.sampled_from(TOKENS), max_size=20).map(" ".join),
    right=st.lists(st.sampled_from(TOKENS), max_size=20).map(" ".join),
)
def test_any_bisim_terms_give_an_exit_code(tmp_path_factory, ext, left, right):
    path = write_model(tmp_path_factory.mktemp("fuzz"), "m" + ext, MODELS[ext])
    argv = ["bisim", path, f"--left={left}", f"--right={right}", "--max-states", "50"]
    assert run(argv) in (0, 1, 2)


@FUZZ
@given(
    ext=st.sampled_from(EXTENSIONS),
    tokens=st.lists(st.sampled_from(TOKENS), max_size=20).map(" ".join),
    depth=st.integers(min_value=0, max_value=3000),
)
def test_terms_in_deep_parentheses_give_an_exit_code(tmp_path_factory, ext, tokens, depth):
    term = "(" * depth + tokens + ")" * depth
    directory = tmp_path_factory.mktemp("fuzz")
    path = write_model(directory, "m" + ext, f"init {term}\n")
    assert run(["check", path]) in (0, 2)
    model = write_model(directory, "p" + ext, MODELS[ext])
    argv = ["bisim", model, f"--left={term}", "--right=P", "--max-states", "50"]
    assert run(argv) in (0, 1, 2)
