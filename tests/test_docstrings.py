"""The library's docstrings open with a whole summary.

``help()`` and documentation tools show a docstring's first paragraph as
its summary, so a summary split by a blank line shows half a sentence.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "futsbench"


def split_summaries(source: str):
    """The names of the functions and classes in ``source`` whose docstring
    has more than one paragraph and a first paragraph that does not end in
    ``.`` or ``:``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            paragraphs = (ast.get_docstring(node) or "").split("\n\n")
            if len(paragraphs) > 1 and not paragraphs[0].rstrip().endswith((".", ":")):
                found.append(node.name)
    return found


def test_the_check_finds_a_split_summary():
    source = '''
def split():
    """A summary that runs on

    into the next paragraph.
    """

class Whole:
    """A whole summary.

    Details.
    """

    def method(self):
        """Two lines of summary, joined
        as one paragraph."""
'''
    assert split_summaries(source) == ["split"]


def test_no_library_docstring_splits_its_summary():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}: {name}"
        for path in paths
        for name in split_summaries(path.read_text(encoding="utf-8"))
    ]
    assert not found
