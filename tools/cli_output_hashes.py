"""Hash every CLI output on the benchmark's model files.

    python3 tools/cli_output_hashes.py > hashes.txt

Generates the seed-1 and seed-2 files of every workload with
``bench/workloads.py`` and runs ``futsbench.cli.main`` in-process on each:
``check``, ``build`` (JSON and DOT), ``minimize``, ``compare`` and every
``bisim`` query of the seed.  It also runs ``check`` on seeded single-edit
mutants of each file (one piece deleted, replaced or inserted), so parse
errors, their messages and positions, are hashed too.  Prints one line per
call, sorted: the SHA-256 of the exit status, stdout and stderr, then the
call with its path relative to the generated directory.  ``futsbench`` is
imported from the ``src`` next to this script, so running the script in
two checkouts and diffing the outputs shows whether a change altered any
output.
"""

import contextlib
import hashlib
import io
import os
import random
import re
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from futsbench.cli import main  # noqa: E402

SEEDS = (1, 2)
MUTANTS = 4  # per model file

# a model text's pieces: blanks, words, two-character symbols or single characters
PIECES = re.compile(r"\s+|\w+|\|\[|\]\||\[\]|--|.", re.DOTALL)
# what an edit puts in: tokens, blanks, stray symbols and other characters
VOCABULARY = (
    "nil", "init", "S0_0", "P0", "C1", "a", "b", "(", ")", "{", "}", ":", "+", ".",
    ",", "<", ">", "|[", "]|", "[]", "=", "/", "0", "1", "1/2", "1.5", "|", "[",
    "]", "-", "--", " ", "\n", "_", "é",
)


def mutant(text: str, rng: random.Random) -> str:
    """``text`` with one piece deleted, replaced or inserted."""
    pieces = PIECES.findall(text)
    at = rng.randrange(len(pieces) + 1)
    edit = rng.randrange(3)
    if edit == 0 or at == len(pieces):
        pieces.insert(at, rng.choice(VOCABULARY))
    elif edit == 1:
        pieces[at] = rng.choice(VOCABULARY)
    else:
        del pieces[at]
    return "".join(pieces)


def calls(directory: str):
    """Every call on the files of every workload and seed, as argv lists."""
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            rel = os.path.join(workload, f"seed{seed}")
            models = workloads.draw(workload, seed)
            workloads.write_models(models, os.path.join(directory, rel))
            for spec in models:
                path = os.path.join(rel, spec.filename)
                yield ["check", path]
                yield ["build", path]
                yield ["build", path, "--format", "dot"]
                yield ["minimize", path]
                yield ["compare", path]
                for query in spec.queries:
                    yield ["bisim", path, "--left", query.left, "--right", query.right]
                stem, ext = os.path.splitext(spec.filename)
                rng = random.Random(f"{path}-mutants")
                for k in range(MUTANTS):
                    mutated = os.path.join("mutants", rel, f"{stem}-{k}{ext}")
                    os.makedirs(os.path.join(directory, "mutants", rel), exist_ok=True)
                    with open(os.path.join(directory, mutated), "w", encoding="utf-8") as handle:
                        handle.write(mutant(spec.text, rng))
                    yield ["check", mutated]


def output_hash(argv) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    text = f"{code}\0{stdout.getvalue()}\0{stderr.getvalue()}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main_hashes() -> None:
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)  # relative paths keep any path in the output stable
        lines = [f"{output_hash(argv)} {shlex.join(argv)}" for argv in calls(directory)]
        os.chdir(ROOT)
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main_hashes()
