"""futsbench benchmark: CLI time-to-verdict on three model workloads.

    python3 bench/run.py --workload pepa-par --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload
    python3 bench/run.py --family chain --n 1000          # one traced baseline run

One client in one process calls ``futsbench.cli.main(argv)`` in a closed
loop on generated model files and captures its output.  A *pass* runs
``build`` (JSON), ``bisim`` (one query of each verdict per model),
``minimize`` and ``compare`` on every model of the workload, and checks
every answer.  Passes repeat until ``--seconds`` is used up; each timing
is the median over passes of wall time scaled to the host's unloaded speed
(see ``calibration.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics (see
``tracing.py``), prints the layer table and writes the spans to
``bench/out/``.  The last line of standard output is always one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 9

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402
import calibration  # noqa: E402
from tracing import COMMANDS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "bisim_s": "s",
    "minimize_s": "s",
    "compare_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "sem_oracle.s":
        return "s"
    if name in ("sem_futs.state_yield", "trace.overhead_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Invocations and their expected answers
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    command: str
    argv: List[str]
    check: Callable[[int, str], Optional[str]]  # -> None, or what was wrong


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def _json_check(spec, command: str, expected_states, digests):
    recorded = None if digests is None else digests.get(sha256(spec.text), {}).get(command)

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if digests is not None and sha256(out) != recorded:
            return "output digest differs from the one recorded at the seed commit"
        if expected_states is not None:
            got = len(json.loads(out)["states"])
            if got != expected_states:
                return f"{got} states, expected {expected_states}"
        return None

    return check


def _bisim_check(bisimilar: bool):
    code, verdict = (0, "BISIMILAR") if bisimilar else (1, "NOT BISIMILAR")

    def check(rc: int, out: str) -> Optional[str]:
        first = out.splitlines()[0] if out else ""
        if rc != code or first != verdict:
            return f"exit code {rc} and {first!r}, expected {code} and {verdict!r}"
        return None

    return check


def _compare_check(rc: int, out: str) -> Optional[str]:
    lines = out.splitlines()
    if rc != 0 or not lines or not all(line.startswith("PASS ") for line in lines):
        return f"exit code {rc}: {out.strip()[:200]!r}"
    return None


def invocations_for(paths: Dict[str, "workloads.ModelSpec"], digests) -> List[Invocation]:
    """Every CLI call of one pass, grouped by command, with its check.

    ``digests`` is None for models outside the recorded pools (baseline runs).
    """
    out: List[Invocation] = []
    for path, spec in paths.items():
        out.append(
            Invocation("build", ["build", path], _json_check(spec, "build", spec.states, digests))
        )
    for path, spec in paths.items():
        for query in spec.queries:
            out.append(
                Invocation(
                    "bisim",
                    ["bisim", path, "--left", query.left, "--right", query.right],
                    _bisim_check(query.bisimilar),
                )
            )
    for path, spec in paths.items():
        out.append(
            Invocation(
                "minimize", ["minimize", path], _json_check(spec, "minimize", spec.blocks, digests)
            )
        )
    for path in paths:
        out.append(Invocation("compare", ["compare", path], _compare_check))
    return out


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    seconds: Dict[str, float] = field(default_factory=dict)  # command -> scaled total
    wall: Dict[str, float] = field(default_factory=dict)  # command -> wall total
    latencies: Dict[str, List[float]] = field(default_factory=dict)  # scaled, per call
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


def invoke(main, argv: Sequence[str]):
    """One in-process CLI call: (exit code, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            return main(list(argv)), stdout.getvalue()
        except SystemExit as exc:  # argparse rejects the command line
            return (exc.code if isinstance(exc.code, int) else 2), stdout.getvalue()


def unscaled(call):
    """Time ``call`` by the wall clock alone; the result has the shape of
    ``HostSpeed.measure``'s, with a scale of 1."""
    start = perf_counter()
    result = call()
    return result, perf_counter() - start, 1.0


def run_pass(invocations: Sequence[Invocation], main, measure=unscaled, tracer=None) -> PassResult:
    """Every invocation once, in order, each timed by ``measure``."""
    result = PassResult()
    for inv in invocations:
        gc.collect()  # start every call from a clean heap, as a fresh CLI would
        call = functools.partial(invoke, main, inv.argv)
        if tracer is not None:
            call = functools.partial(tracer.root, inv.command, call)
        (rc, out), wall, scale = measure(call)
        result.seconds[inv.command] = result.seconds.get(inv.command, 0.0) + wall * scale
        result.wall[inv.command] = result.wall.get(inv.command, 0.0) + wall
        result.latencies.setdefault(inv.command, []).append(wall * scale)
        result.attempted += 1
        problem = inv.check(rc, out)
        if problem is not None:
            result.failures.append(f"{' '.join(inv.argv)}: {problem}")
    return result


def tail(samples: Sequence[float]):
    """(percentile, value) for the highest of p99/p90/p75/p50 with at least
    ten samples beyond it, or None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, ordered[max(0, math.ceil(p * n / 100) - 1)]
    return None


def keep_running(start: float, passes: int, seconds: float) -> bool:
    """Start another pass only if one more of the average length still fits."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / passes <= seconds


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

_IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "start = time.perf_counter()\n"
    "import futsbench.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, {here!r})\n"
    "from calibration import sample\n"
    "print(elapsed, statistics.median(sample() for _ in range(5)))\n"
)


def measure_setup() -> float:
    """Median time to import ``futsbench.cli`` in a fresh interpreter, scaled
    by calibration samples the same interpreter takes right after it.

    The first import compiles the bytecode cache and is not counted: every
    later CLI start finds it.
    """
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE.format(src=SRC, here=HERE)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        elapsed, loop = map(float, proc.stdout.split())
        if i:
            samples.append(elapsed * calibration.REFERENCE_S / loop)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def import_cli():
    """``futsbench.cli.main`` from this checkout's ``src``; exits 2 without it."""
    if not os.path.isfile(os.path.join(SRC, "futsbench", "cli.py")):
        print(f"error: no futsbench sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import futsbench.cli

    if not os.path.abspath(futsbench.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported futsbench from {futsbench.cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return futsbench.cli.main


def _tail_text(samples: Sequence[float]) -> str:
    t = tail(samples)
    return f"p{t[0]} {t[1]:.4f} s" if t else "none"


def _summary_lines(name: str, passes: Sequence[PassResult]) -> List[str]:
    lines = []
    for command in COMMANDS:
        per_pass = [p.seconds[command] for p in passes]
        calls = [x for p in passes for x in p.latencies[command]]
        wall = statistics.median(p.wall[command] for p in passes)
        lines.append(
            f"{name}: {command}_s median {statistics.median(per_pass):.4f} s over "
            f"{len(passes)} passes (tail {_tail_text(per_pass)}; wall {wall:.4f} s); "
            f"{len(calls)} calls, median {statistics.median(calls):.4f} s, "
            f"tail {_tail_text(calls)}"
        )
    return lines


def _failure_lines(passes: Sequence[PassResult]) -> List[str]:
    failures = [f for p in passes for f in p.failures]
    return [f"FAILED {f}" for f in failures[:20]]


def run_workload(args, main) -> dict:
    models = workloads.draw(args.workload, args.seed)
    directory = os.path.join(OUT, "models", f"{args.workload}-s{args.seed}")
    paths = workloads.write_models(models, directory)
    invocations = invocations_for(paths, load_digests())
    speed = calibration.HostSpeed()

    passes: List[PassResult] = []
    traced: List[PassResult] = []
    tracers: List[tracing.Tracer] = []
    start = perf_counter()
    while True:
        with speed:
            passes.append(run_pass(invocations, main, speed.measure))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(tracing.instrumentation_plan())
            try:
                traced.append(run_pass(invocations, main, tracer=tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        if not keep_running(start, len(passes), args.seconds):
            break

    everything = passes + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(len(p.failures) for p in everything)
    for line in _failure_lines(everything):
        print(line)
    print(
        f"{args.workload}: {len(models)} models, {attempted} invocations, "
        f"{failed} failed, failed_ratio {failed / attempted:.4f}"
    )
    for line in _summary_lines(args.workload, passes):
        print(line)
    print(
        f"{args.workload}: host speed: {len(speed.samples)} calibration samples, median "
        f"{statistics.median(speed.samples) * 1000:.3f} ms (reference "
        f"{calibration.REFERENCE_S * 1000:.3f} ms)"
    )

    if args.trace:
        metrics = tracing.median_metrics([tracing.layer_metrics(t) for t in tracers])
        untraced_total = statistics.median(sum(p.wall.values()) for p in passes)
        traced_total = statistics.median(sum(p.wall.values()) for p in traced)
        metrics["trace.overhead_ratio"] = traced_total / untraced_total - 1
        report_trace(args.workload, args.seed, tracers, passes)
        units = per_layer_unit
    else:
        metrics = {f"{c}_s": statistics.median(p.seconds[c] for p in passes) for c in COMMANDS}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = measure_setup()
        units = END_TO_END_UNITS.get
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {units(name)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units(name)} for name, value in metrics.items()
        },
    }


def report_trace(label: str, seed, tracers, untraced: Sequence[PassResult]) -> None:
    """Write every traced pass's spans; print the last pass's layer table."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{label}-s{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for index, tracer in enumerate(tracers):
            tracer.write(handle, index)
    base = {
        c: statistics.median(p.wall[c] for p in untraced)
        for c in COMMANDS
        if c in untraced[0].wall
    }
    print(f"== layer table: {label}, seed {seed} (last traced pass; spans in {path})")
    print(tracing.format_layer_table(tracers[-1], base))
    for statement, holds in tracing.predicted_split(tracers[-1], label):
        print(f"predicted: {statement}: {'holds' if holds else 'DOES NOT HOLD'}")


def run_family(args, main) -> int:
    """One traced build/minimize/compare of par-N or chain-N, with its layer table."""
    spec = workloads.par_model(args.n) if args.family == "par" else workloads.chain_model(args.n)
    directory = os.path.join(OUT, "models", f"{args.family}-{args.n}")
    paths = workloads.write_models([spec], directory)
    invocations = [i for i in invocations_for(paths, None) if i.command != "bisim"]
    base = run_pass(invocations, main)
    tracer = tracing.Tracer()
    tracer.install(tracing.instrumentation_plan())
    try:
        result = run_pass(invocations, main, tracer=tracer)
    finally:
        tracer.uninstall()
    for line in _failure_lines([base, result]):
        print(line)
    label = f"{args.family}-{args.n}"
    report_trace(label, "-", [tracer], [base])
    for name in ("explore.explore", "bisim.refine", "crosscheck.run_checks", "bisim.oracle_partition"):
        total = tracing.inclusive_by_command(tracer, name)
        print(f"{label}: {name} " + ", ".join(f"{c} {s:.3f} s" for c, s in total.items()))
    return 1 if base.failures or result.failures else 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one table of every metric."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':14} {'metric':34} {'value':>14} unit")
    for name, result in results.items():
        ratio = result["failed"] / result["attempted"]
        print(f"{name:14} {'failed_ratio':34} {ratio:14.6g} ratio "
              f"({result['failed']} of {result['attempted']})")
        for metric, entry in result["metrics"].items():
            print(f"{name:14} {metric:34} {entry['value']:14.6g} {entry['unit']}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"all-s{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
    print(f"results written to {path}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--family", choices=("par", "chain"), help="baseline run instead")
    parser.add_argument("--n", type=int, default=10, help="size of the --family model")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.family is None):
        parser.error("give exactly one of --workload and --family")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli_main = import_cli()
    if args.family is not None:
        return run_family(args, cli_main)
    result = run_workload(args, cli_main)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
