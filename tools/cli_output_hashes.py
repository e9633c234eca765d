"""Hash every CLI output on the benchmark's model files.

    python3 tools/cli_output_hashes.py > hashes.txt

Generates the seed-1 and seed-2 files of every workload with
``bench/workloads.py`` and runs ``futsbench.cli.main`` in-process on each:
``check``, ``build`` (JSON and DOT), ``minimize``, ``compare`` and every
``bisim`` query of the seed.  It does the same on a few hand-written
models, one per language, whose literals are decimal or reducible
(``2.0``, ``4/2``, ``0.5``) and whose PEPA cooperation synchronises at
non-integral joint rates, and on three more: a MAL distribution chain
``a.{1: a.{1: ... nil}}`` 400 deep, whose steps are nested one level per
state; an IML model of action prefixes only, whose every move counts by
presence, not multiplicity; and a TPC model whose first delay exceeds the
oracle's cap on timed transitions, so that ``compare`` fails on the
oracle side.  One more model per language reaches the paths where a
label is absent: a synchronisation set names an action that no operand
performs, and only one operand of a choice and of a composition takes a
given label.  It also runs ``check`` on seeded single-edit mutants of
each file (one piece deleted, replaced or inserted), so parse
errors, their messages and positions, are hashed too.  On each hand-written
model it runs the command lines that ``argparse`` rejects (a bound below
one, an unknown language, a missing ``--right``, an unknown command) and
one ``bisim`` query whose two terms are both its ``init`` term, and
it runs the ``--help`` of the program and of every command, with
``COLUMNS`` set to 80 so that help text wraps alike on every host.  On a
hand-written PEPA model whose closure is infinite it runs only ``bisim``,
with ``--max-states 20``: one query whose terms differ in their one-step
totals, and one whose terms agree there, so that exploring them overruns
the bound.  It does the same, and runs ``compare`` too, on a PEPA model
whose k-th state's text has about 2^k characters, and runs one ``bisim``
query refuted only after exploring on a model that term-id order and
printed order number differently.  It runs ``build -o`` and ``minimize
-o`` once each, hashing the file written too, and every command on each
of a few files that no command accepts: an empty file, one with no
``init``, one with two, one that defines a constant twice, one with an
unknown extension and one that is not UTF-8 text.  Prints one line per
call, sorted: the SHA-256 of the exit status, stdout and
stderr (and of the file a call writes), then the call with its path
relative to the generated directory.
``futsbench`` is imported from the ``src`` next to this script, so running
the script in two checkouts and diffing the outputs shows whether a change
altered any output.
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

os.environ["COLUMNS"] = "80"  # argparse wraps its help and usage to this width

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from futsbench.cli import main  # noqa: E402

SEEDS = (1, 2)
MUTANTS = 4  # per model file
COMMANDS = ("check", "build", "bisim", "minimize", "compare")

# a model text's pieces: blanks, words, two-character symbols or single characters
PIECES = re.compile(r"\s+|\w+|\|\[|\]\||\[\]|--|.", re.DOTALL)
# what an edit puts in: tokens, blanks, stray symbols and other characters
VOCABULARY = (
    "nil", "init", "S0_0", "P0", "C1", "a", "b", "(", ")", "{", "}", ":", "+", ".",
    ",", "<", ">", "|[", "]|", "[]", "=", "/", "0", "1", "1/2", "1.5", "|", "[",
    "]", "-", "--", " ", "\n", "_", "é",
)

# one hand-written model per language, with decimal and reducible literals,
# then a deep nested chain, a model of presence-only moves, one the oracle
# refuses, and one per language where labels are absent from operands' steps
Model, Query = workloads.ModelSpec, workloads.Query
CHAIN_DEPTH = 400
HAND_WRITTEN = (
    Model(
        "sync",
        "pepa",
        "-- a and b synchronise at non-integral joint rates\n"
        "P0 = (a, 1/3).P1 + (a, 2.0).P0\n"
        "P1 = (b, 0.5).P0 + (a, 4/2).P1\n"
        "Q0 = (a, 3).Q1 + (b, 1.5).Q0\n"
        "Q1 = (a, 0.25).Q0 + (b, 6/4).Q1\n"
        "init P0 <a> Q0 <b> P1\n",
        (
            Query("P0 <a> Q0", "Q0 <a> P0", True),
            Query("(a, 2.0).P0 + (a, 2).P0", "(a, 4/1).P0", True),
            Query("(a, 0.5).P0", "(a, 1/3).P0", False),
        ),
    ),
    Model(
        "rates",
        "iml",
        "S0 = 0.5.S1 + 2.0.S0 + a.S1\n"
        "S1 = 4/2.S0 + b.S1 + 1.5.S1\n"
        "T0 = 1/2.T1 + 2.T0 + a.T1\n"
        "T1 = 2.T0 + b.T1 + 3/2.T1\n"
        "init S0 |[a]| S1\n",
        (
            Query("S0", "T0", True),
            Query("2.0.S0 + 2.S0", "4/1.S0", True),
            Query("1.5.S0", "3/4.S0 + 0.5.S0", False),
        ),
    ),
    Model(
        "delays",
        "tpc",
        "-- this language has integer delays and no rates\n"
        "S0 = (2).a.S1 + (2).b.S0\n"
        "S1 = (1).(3).S0 + (4).a.S1\n"
        "init S0 |[a]| (3).S1\n",
        (
            Query("S0 |[a]| (3).S1", "(3).S1 |[a]| S0", True),
            Query("(2).b.S0", "(3).b.S0", False),
        ),
    ),
    Model(
        "dists",
        "mal",
        "S0 = a.{0.5: S1 [] 2/4: S0} + 2.0.S1\n"
        "S1 = a.{1.0: S0} + b.{1/3: S0 [] 0.25: S1 [] 5/12: S1} + 4/2.S0\n"
        "init S0 |[a]| S1\n",
        (
            Query("a.{0.5: S1 [] 2/4: S0}", "a.{1/2: S0 [] 1/2: S1}", True),
            Query("a.{1.0: S0}", "a.{0.5: S0 [] 0.5: S1}", False),
        ),
    ),
    Model(
        "chain",
        "mal",
        "init " + "a.{1: " * CHAIN_DEPTH + "nil" + "}" * CHAIN_DEPTH + "\n",
        (
            Query("a.{1: a.{1: nil}}", "a.{1/2: a.{1: nil} [] 1/2: a.{1: nil}}", True),
            Query("a.{1: nil}", "a.{1: a.{1: nil}}", False),
        ),
    ),
    Model(
        "presence",
        "iml",
        "-- action prefixes only: a move counts once, however often it is offered\n"
        "S0 = a.S1 + a.S2 + b.S0\n"
        "S1 = a.S3 + b.S0\n"
        "S2 = a.S3 + a.S3 + b.S0\n"
        "S3 = a.S0 + b.nil\n"
        "T0 = a.T1 + b.T0\n"
        "T1 = a.S3 + b.T0\n"
        "init S0 |[a]| T0\n",
        (
            Query("S0", "T0", True),
            Query("a.S1 + a.S2", "a.S1", True),
            Query("S3", "a.S0", False),
        ),
    ),
    Model(
        "cap",
        "tpc",
        "-- the oracle refuses a state with more timed transitions than its cap\n"
        "init (10001).nil |[]| (1).nil\n",
    ),
    Model(
        "absent",
        "pepa",
        "-- c is synchronised but never performed; a waits until Q offers it\n"
        "P = (a, 1).P + (b, 2).nil\n"
        "Q = (d, 3).(a, 2).Q\n"
        "init ((a, 1).P + (b, 2).nil) <a, c> Q\n",
        (
            Query("(a, 1).nil <c> nil", "(a, 1).nil", True),
            Query("(a, 1).nil <a> (b, 2).nil", "(b, 2).nil", True),
            Query("(a, 1).nil <a> (b, 2).nil", "(a, 1).nil", False),
        ),
    ),
    Model(
        "absent",
        "iml",
        "-- c is synchronised but never performed; delays interleave beside actions\n"
        "S0 = a.S1 + 2.S0\n"
        "S1 = b.S0 + 3.nil\n"
        "init (a.S0 + b.nil) |[a, c]| (S1 |[]| d.nil)\n",
        (
            Query("a.nil |[c]| nil", "a.nil", True),
            Query("a.nil |[a]| b.nil", "b.nil", True),
            Query("2.nil |[c]| a.nil", "a.nil", False),
        ),
    ),
    Model(
        "absent",
        "tpc",
        "-- c is synchronised but never performed; one side of a choice acts at once\n"
        "S0 = (2).a.S0 + (1).b.S0\n"
        "init (b.S0 + (1).b.nil) |[a, c]| ((3).a.S0 + (2).d.nil)\n",
        (
            Query("a.nil |[c]| nil", "a.nil", True),
            Query("(1).a.nil + b.nil", "b.nil", True),
            Query("(1).a.nil |[a]| b.nil", "b.nil", True),
        ),
    ),
    Model(
        "absent",
        "mal",
        "-- c is synchronised but never performed; delays interleave beside distributions\n"
        "S0 = a.{1/2: S0 [] 1/2: S1} + 2.S1\n"
        "S1 = b.{1: S0} + 3.nil\n"
        "init (a.{1: S0} + b.{1: nil}) |[a, c]| (S1 |[]| d.{1: nil})\n",
        (
            Query("a.{1: nil} |[c]| nil", "a.{1: nil}", True),
            Query("a.{1: nil} |[a]| b.{1: nil}", "b.{1: nil}", True),
            Query("2.nil |[c]| a.{1: nil}", "a.{1: nil}", False),
        ),
    ),
)


# every unfolding of X adds a copy of X, so nothing explores X's closure
UNBOUNDED = Model(
    "unbounded",
    "pepa",
    "X = (a, 1).(X <> X)\ninit X\n",
    (Query("X", "(a, 2).X", False), Query("X", "(a, 1).X", False)),
)


# each unfolding of P doubles its text, so that P's k-th state's text has
# about 2^k characters
DOUBLING = Model(
    "doubling",
    "pepa",
    "P = (a,1).(P <a> P)\ninit P\n",
    (Query("P", "(a,1).(P <a> P)", True), Query("P", "(a,2).(P <a> P)", False)),
)

# Z is interned before A, so exploring in term-id order numbers Z first and
# in printed order A first; the query agrees at depth one only
NAMED = Model(
    "named",
    "pepa",
    "P = (a, 1).Z + (a, 1).A\nZ = (b, 1).P\nA = (c, 1).P\ninit P\n",
    (Query("P", "(a, 1).A + (a, 1).A", False),),
)


# files that every command refuses, by name, as bytes
BAD_FILES = {
    "empty.pepa": b"",
    "no-init.pepa": b"P = (a, 1).P\n",
    "two-inits.iml": b"init a.nil\ninit b.nil\n",
    "twice-defined.tpc": b"X = a.X\nX = (1).b.X\ninit X\n",
    "unknown.ccs": b"init nil\n",
    "latin-1.mal": "-- é\ninit a.{1: nil}\n".encode("latin-1"),
}


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
    """Every call on the hand-written files, on those of every workload
    and seed and on the refused files, and every ``--help``, as argv lists."""
    yield ["--help"]
    for command in COMMANDS:
        yield [command, "--help"]
    groups = [("hand-written", HAND_WRITTEN)] + [
        (os.path.join(workload, f"seed{seed}"), workloads.draw(workload, seed))
        for workload in workloads.WORKLOADS
        for seed in SEEDS
    ]
    for rel, models in groups:
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
            if models is HAND_WRITTEN:  # command lines argparse rejects
                yield ["build", path, "--max-states", "0"]
                yield ["check", path, "--lang", "ccs"]
                yield ["bisim", path, "--left", "nil"]
                yield ["simulate", path]
                init = spec.text.rpartition("init ")[2].strip()
                yield ["bisim", path, "--left", init, "--right", init]
                if spec.name == "presence":  # output to a file; its quotient is smaller
                    yield ["build", path, "-o", "build-output.json"]
                    yield ["minimize", path, "-o", "minimize-output.json"]
            stem, ext = os.path.splitext(spec.filename)
            rng = random.Random(f"{path}-mutants")
            for k in range(MUTANTS):
                mutated = os.path.join("mutants", rel, f"{stem}-{k}{ext}")
                os.makedirs(os.path.join(directory, "mutants", rel), exist_ok=True)
                with open(os.path.join(directory, mutated), "w", encoding="utf-8") as handle:
                    handle.write(mutant(spec.text, rng))
                yield ["check", mutated]
    workloads.write_models([UNBOUNDED, DOUBLING, NAMED], os.path.join(directory, "hand-written"))
    for spec in (UNBOUNDED, DOUBLING):
        path = os.path.join("hand-written", spec.filename)
        for query in spec.queries:
            yield ["bisim", path, "--max-states", "20", "--left", query.left, "--right", query.right]
    yield ["compare", os.path.join("hand-written", DOUBLING.filename), "--max-states", "20"]
    path = os.path.join("hand-written", NAMED.filename)
    for query in NAMED.queries:
        yield ["bisim", path, "--left", query.left, "--right", query.right]
    os.makedirs(os.path.join(directory, "bad"))
    for name, content in BAD_FILES.items():
        path = os.path.join("bad", name)
        with open(os.path.join(directory, path), "wb") as handle:
            handle.write(content)
        for command in COMMANDS:
            terms = ["--left", "nil", "--right", "nil"] if command == "bisim" else []
            yield [command, path, *terms]


def output_hash(argv) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    text = f"{code}\0{stdout.getvalue()}\0{stderr.getvalue()}"
    if "-o" in argv:
        with open(argv[argv.index("-o") + 1], encoding="utf-8") as handle:
            text += f"\0{handle.read()}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main_hashes() -> None:
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)  # relative paths keep any path in the output stable
        lines = [f"{output_hash(argv)} {shlex.join(argv)}" for argv in calls(directory)]
        os.chdir(ROOT)
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main_hashes()
