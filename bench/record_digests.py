"""Record the digests of ``build`` and ``minimize`` output for every pool model.

    python3 bench/record_digests.py

The digests pin the JSON output byte for byte, so run this only at the
commit whose output is the reference; afterwards every benchmark run
compares against ``digests.json`` and counts a mismatch as a failure.
"""

import contextlib
import io
import json
import os
import sys

import run
import workloads


def main() -> int:
    cli_main = run.import_cli()
    digests = {}
    for name in workloads.WORKLOADS:
        directory = os.path.join(run.OUT, "models", f"pool-{name}")
        for path, spec in workloads.write_models(workloads.pool(name), directory).items():
            entry = {"model": spec.filename}
            for command in ("build", "minimize"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli_main([command, path])
                if rc != 0:
                    print(f"error: {command} {path} exited with {rc}", file=sys.stderr)
                    return 1
                entry[command] = run.sha256(out.getvalue())
            digests[run.sha256(spec.text)] = entry
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} models in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
