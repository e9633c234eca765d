"""Hash every CLI output on the benchmark's model files.

    python3 tools/cli_output_hashes.py > hashes.txt

Generates the seed-1 and seed-2 files of every workload with
``bench/workloads.py`` and runs ``futsbench.cli.main`` in-process on each:
``check``, ``build`` (JSON and DOT), ``minimize``, ``compare`` and every
``bisim`` query of the seed.  Prints one line per call, sorted: the
SHA-256 of the exit status, stdout and stderr, then the call with its
path relative to the generated directory.  ``futsbench`` is imported
from the ``src`` next to this script, so running the script in two
checkouts and diffing the outputs shows whether a change altered any
output.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from futsbench.cli import main  # noqa: E402

SEEDS = (1, 2)


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
