"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import filecmp
import json
import os
import types

import pytest

import run
import tracing
import workloads
from tracing import END, HIDDEN, ID, START


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_write_identical_files_for_a_seed(tmp_path, workload):
    first = workloads.write_models(workloads.draw(workload, 7), str(tmp_path / "a"))
    second = workloads.write_models(workloads.draw(workload, 7), str(tmp_path / "b"))
    names = sorted(os.path.basename(p) for p in first)
    assert names == sorted(os.path.basename(p) for p in second)
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", names, shallow=False
    )
    assert (mismatch, errors) == ([], [])
    assert [s.queries for s in first.values()] == [s.queries for s in second.values()]


def test_every_pool_model_has_recorded_digests():
    digests = run.load_digests()
    for workload in workloads.WORKLOADS:
        for spec in workloads.pool(workload):
            assert set(digests[run.sha256(spec.text)]) == {"model", "build", "minimize"}


def test_mixed_corpus_covers_every_language_and_shape():
    models = workloads.draw("mixed-corpus", 3)
    assert len(models) == 80
    shapes = {(m.lang, m.name.split("-")[1]) for m in models}
    assert len(shapes) == 16
    assert all({q.bisimilar for q in m.queries} == {True, False} for m in models)


def test_wrong_expected_answers_count_as_failures(tmp_path):
    main = run.import_cli()
    spec = workloads.ModelSpec(
        "m",
        "iml",
        "S = a.S + 1.S\ninit S\n",
        queries=(
            # booleans are idempotent, so these two are bisimilar: the
            # expectation below is deliberately wrong
            workloads.Query("a.nil + a.nil", "a.nil", False),
            workloads.Query("1.nil + 1.nil", "1.nil", False),
        ),
        states=1,
        blocks=2,  # wrong as well: one state has one block
    )
    paths = workloads.write_models([spec], str(tmp_path))
    result = run.run_pass(run.invocations_for(paths, None), main)
    assert result.attempted == 5
    assert len(result.failures) == 2
    assert "expected 1 and 'NOT BISIMILAR'" in result.failures[0]
    assert "1 states, expected 2" in result.failures[1]

    # an output that differs from its recorded digest is a failure too
    result = run.run_pass(run.invocations_for(paths, {}), main)
    assert len(result.failures) == 3


def _span(span_id, parent, start, end, hidden=0.0):
    return [span_id, parent, 1, f"s{span_id}", start, end, hidden]


def test_self_time_subtracts_covered_child_intervals_and_hidden_time():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0, hidden=0.5),
        _span(2, 0, 3.0, 6.0),  # overlaps span 1: the union 1..6 counts once
        _span(3, 1, 2.0, 3.0),
        _span(4, 0, 9.0, 12.0),  # runs past its parent: only 9..10 is covered
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10 - 5 - 1, 1: 3 - 1 - 0.5, 2: 3.0, 3: 1.0, 4: 3.0})


def test_timed_calls_are_charged_to_the_enclosing_span_once():
    ns = types.SimpleNamespace()
    ns.leaf = lambda: sum(range(1000))
    ns.inner = lambda: ns.leaf() + ns.leaf()  # timed, and calls a timed leaf
    ns.outer = lambda: ns.inner() + ns.count()
    ns.count = lambda: 1
    tracer = tracing.Tracer()
    tracer.install(
        [
            (ns, "outer", "span", "t.outer", None),
            (ns, "inner", "timed", "t.inner", None),
            (ns, "leaf", "timed", "t.leaf", None),
            (ns, "count", "counted", "t.count", None),
        ]
    )
    try:
        tracer.root("build", ns.outer)
    finally:
        tracer.uninstall()
    assert ns.count() == 1 and not tracer._patches
    assert tracer.calls == {"cli.build": 1, "t.outer": 1, "t.inner": 1, "t.leaf": 2, "t.count": 1}
    outer = tracer.spans[1]
    assert outer[HIDDEN] == tracer.seconds["t.inner"]
    assert tracer.seconds["t.leaf"] < tracer.seconds["t.inner"]
    own = tracing.self_times(tracer.spans)
    assert own[outer[ID]] == pytest.approx(outer[END] - outer[START] - outer[HIDDEN])


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([1.0] * 19) is None
    assert run.tail(list(range(20))) == (50, 9)
    assert run.tail(list(range(100))) == (90, 89)


def test_benchmark_json_names_every_metric_the_runs_print():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(tracing.layer_metrics(tracing.Tracer())) + ["trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in layer_names
    }
