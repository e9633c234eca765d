"""Command-line interface: commands, exit codes, output formats."""

import argparse
import importlib
import itertools
import json
import os
import subprocess
import sys

import pytest

import futsbench
import futsbench.explore as explore_module
from futsbench import cli
from futsbench.bisim import one_step_witness
from futsbench.cli import build_parser, main
from futsbench.syntax import load_model, parse_term

from bisimref import full_closure_bisimilar
from modelgen import bodies, build_corpus, model_text, tree

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_ok(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "P = (a, 1).P\ninit P\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 0
    assert "pepa" in out
    assert err == ""


def test_check_unguarded_names_constant(tmp_path, capsys):
    path = write(tmp_path, "m.iml", "X = X + a.nil\ninit X\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 2
    assert err.startswith("error:")
    assert "X" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text", ["X = (1).X\ninit X\n", "X = (1).X\nY = a.Y\ninit Y\n"], ids=["init", "unreached"]
)
@pytest.mark.parametrize("command", ["check", "build", "compare"])
def test_delay_only_recursion_is_refused_by_every_command(tmp_path, capsys, command, text):
    path = write(tmp_path, "m.tpc", text)
    code, out, err = run_main(capsys, command, path)
    assert (code, out) == (2, "")
    assert err == "error: constant 'X' recurses through delays only: X -> X\n"


@pytest.mark.parametrize(
    "name, text", [("m.tpc", "X = (1).a.X\ninit X\n"), ("m.mal", "Y = 1 . Y\ninit Y\n")]
)
@pytest.mark.parametrize("command", ["check", "build", "compare"])
def test_recursion_through_an_action_or_a_rate_passes(tmp_path, capsys, command, name, text):
    path = write(tmp_path, name, text)
    code, out, err = run_main(capsys, command, path)
    assert (code, err) == (0, "")


def test_check_parse_error_position(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "P = (a, ).P\ninit P\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 2
    assert "error:" in err


def test_lang_override_beats_extension(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "P = a.P\ninit P\n")
    code, _, _ = run_main(capsys, "check", path)
    assert code == 2  # bare action prefix is not weighted-choice syntax
    code, _, _ = run_main(capsys, "check", path, "--lang", "iml")
    assert code == 0


def test_missing_file_is_a_diagnostic(tmp_path, capsys):
    code, out, err = run_main(capsys, "check", str(tmp_path / "absent.pepa"))
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_json_stdout(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "P = (a, 1).P\ninit P\n")
    code, out, err = run_main(capsys, "build", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["language"] == "pepa"
    assert doc["states"] == [{"id": 0, "term": "P"}]


def test_build_dot_output_file(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "P = (a, 1).P\ninit P\n")
    out_path = tmp_path / "m.dot"
    code, out, err = run_main(capsys, "build", path, "--format", "dot", "-o", str(out_path))
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("digraph")
    assert "__init" in text


def test_build_max_states_bound(tmp_path, capsys):
    lines = [f"X{i} = (a, 1).X{i + 1}" for i in range(5)]
    lines.append("X5 = nil")
    lines.append("init X0")
    path = write(tmp_path, "m.pepa", "\n".join(lines) + "\n")
    code, out, err = run_main(capsys, "build", path, "--max-states", "3")
    assert code == 2
    assert "exceeded 3 states" in err


_CHAIN_3001 = "".join(f"X{i} = a.X{i + 1}\n" for i in range(3000)) + "X3000 = nil\ninit X0\n"


@pytest.mark.parametrize(
    "text, bound, waiting",
    [
        # the state being expanded is still on the frontier
        (_CHAIN_3001, 50, "1 state"),
        # as is the one it discovered before the bound was hit
        ("init a.b.nil + b.a.nil\n", 2, "2 states"),
    ],
    ids=["chain", "fan"],
)
def test_max_states_counts_the_frontier(tmp_path, capsys, text, bound, waiting):
    path = write(tmp_path, "m.iml", text)
    code, out, err = run_main(capsys, "build", path, "--max-states", str(bound))
    assert (code, out) == (2, "")
    assert err == (
        f"error: exploration exceeded {bound} states with {waiting} still on the frontier\n"
    )


# ---------------------------------------------------------------------------
# bisim
# ---------------------------------------------------------------------------


def test_bisim_split_choice_positive(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "init nil\n")
    code, out, err = run_main(
        capsys,
        "bisim",
        path,
        "--left",
        "(a,1).nil + (a,1).nil",
        "--right",
        "(a,2).nil",
    )
    assert code == 0
    assert out.strip() == "BISIMILAR"


def test_bisim_multiplicity_negative(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "P = (a, 1).P\ninit P\n")
    code, out, err = run_main(
        capsys,
        "bisim",
        path,
        "--left",
        "(a,1).P",
        "--right",
        "(a,1).P + (a,1).P",
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert lines == [
        "NOT BISIMILAR",
        "witness: relation act, label a, all states: left total 1/1, right total 2/1",
    ]


def test_bisim_witness_names_a_class_by_its_least_member(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "init nil\n")
    code, out, err = run_main(
        capsys, "bisim", path, "--left", "(a,1).(a,1).nil", "--right", "(a,1).(b,1).nil"
    )
    assert (code, err) == (1, "")
    assert out.splitlines()[1] == (
        "witness: relation act, label a, class of `(a, 1).nil`: left total 1/1, right total 0/1"
    )


def test_bisim_idempotent_choice_interactive(tmp_path, capsys):
    path = write(tmp_path, "m.iml", "init nil\n")
    code, out, err = run_main(
        capsys, "bisim", path, "--left", "a.nil + a.nil", "--right", "a.nil"
    )
    assert code == 0
    assert out.strip() == "BISIMILAR"


def test_bisim_state_names_work_as_terms(tmp_path, capsys):
    text = "P = (a, 1).Q\nQ = (a, 1).P\nR = (a, 1).R\ninit P\n"
    path = write(tmp_path, "m.pepa", text)
    code, out, err = run_main(capsys, "bisim", path, "--left", "P", "--right", "R")
    assert code == 0
    assert out.strip() == "BISIMILAR"


def test_bisim_bad_term_is_error(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "init nil\n")
    code, out, err = run_main(capsys, "bisim", path, "--left", "(a,", "--right", "nil")
    assert code == 2
    assert err.startswith("error:")


# the CLI verdict against the full-closure route, on every pair of states,
# a state paired with itself included (both roots are then state 0)
@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_bisim_verdict_agrees_with_the_full_closure_route(tmp_path, capsys, lang):
    corpus = build_corpus(lang, 16, 30, "bisim-verdict", depth=4, min_states=3)
    verdicts = set()
    for n, fm in enumerate(corpus):
        model = fm.ctx
        text = model_text(bodies(model), tree(model, model.init))
        path = write(tmp_path, f"m{n}.{lang}", text)
        for left, right in itertools.combinations_with_replacement(fm.states, 2):
            expected = full_closure_bisimilar(model, left, right)
            refuted = one_step_witness(model, left, right) is not None
            left_key, right_key = model.text(left), model.text(right)
            code, _, err = run_main(capsys, "bisim", path, "--left", left_key, "--right", right_key)
            assert (code, err) == (0 if expected else 1, ""), (path, left_key, right_key)
            verdicts.add("bisimilar" if expected else "refuted" if refuted else "refined")
    # both routes to a negative verdict are taken
    assert verdicts == {"bisimilar", "refuted", "refined"}


def _bench_query(monkeypatch, tmp_path, workload, seed):
    """The model file and negative query of one benchmark draw."""
    monkeypatch.syspath_prepend(BENCH)
    workloads = importlib.import_module("workloads")
    (spec,) = workloads.draw(workload, seed)
    (path,) = workloads.write_models([spec], str(tmp_path))
    (query,) = [q for q in spec.queries if not q.bisimilar]
    return path, query


def test_a_depth_one_negative_steps_only_its_two_roots(tmp_path, capsys, monkeypatch):
    path, query = _bench_query(monkeypatch, tmp_path, "pepa-par", 1)
    stepped = set()
    step = explore_module.futs_step

    def recording(model, term_id, relation):
        stepped.add(model.text(term_id))
        return step(model, term_id, relation)

    def refused(*args, **kwargs):
        raise AssertionError("explore called")

    monkeypatch.setattr(explore_module, "futs_step", recording)
    monkeypatch.setattr(cli, "explore", refused)
    code, out, err = run_main(capsys, "bisim", path, "--left", query.left, "--right", query.right)
    assert (code, err) == (1, "")
    assert ", all states: " in out
    model = load_model(path)
    assert stepped == {model.text(parse_term(t, model)) for t in (query.left, query.right)}


def test_a_chain_negative_explores_the_chains_closure(tmp_path, capsys, monkeypatch):
    # two positions before the chain's end agree on their one-step totals
    path, query = _bench_query(monkeypatch, tmp_path, "pepa-chain", 1)
    explored = []
    explore_states = cli.explore

    def recording(*args, **kwargs):
        fm = explore_states(*args, **kwargs)
        explored.append(len(fm.states))
        return fm

    monkeypatch.setattr(cli, "explore", recording)
    code, out, err = run_main(capsys, "bisim", path, "--left", query.left, "--right", query.right)
    assert (code, err) == (1, "")
    assert explored == [500]


# a chain of 30 states, whose initial term's closure exceeds 20 states
CHAIN_30 = "".join(f"C{i} = (a, 1).C{i + 1}\n" for i in range(29)) + "C29 = (b, 1).C0\ninit C0\n"


@pytest.mark.parametrize(
    "left, right, verdict",
    [("(a,1).nil + (a,1).nil", "(a,2).nil", 0), ("(a,1).(a,1).nil", "(a,1).(b,1).nil", 1)],
)
def test_max_states_bounds_the_closure_of_the_two_terms(tmp_path, capsys, left, right, verdict):
    path = write(tmp_path, "chain.pepa", CHAIN_30)
    assert run_main(capsys, "build", path, "--max-states", "20")[0] == 2
    code, out, err = run_main(
        capsys, "bisim", path, "--max-states", "20", "--left", left, "--right", right
    )
    assert (code, err) == (verdict, "")


# every unfolding of X adds a copy of X, so X's closure is infinite
UNBOUNDED = "X = (a, 1).(X <> X)\ninit X\n"


def test_bisim_refutes_at_depth_one_on_an_unbounded_model(tmp_path, capsys):
    path = write(tmp_path, "grow.pepa", UNBOUNDED)
    code, out, err = run_main(
        capsys, "bisim", path, "--max-states", "20", "--left", "X", "--right", "(a, 2).X"
    )
    assert (code, err) == (1, "")
    assert out == (
        "NOT BISIMILAR\n"
        "witness: relation act, label a, all states: left total 1/1, right total 2/1\n"
    )


def test_bisim_past_depth_one_on_an_unbounded_model_overruns(tmp_path, capsys):
    path = write(tmp_path, "grow.pepa", UNBOUNDED)
    code, out, err = run_main(
        capsys, "bisim", path, "--max-states", "20", "--left", "X", "--right", "(a, 1).X"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: exploration exceeded 20 states")


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


def test_minimize_emits_quotient_json(tmp_path, capsys):
    text = "P = (a, 1).P + (a, 1).Q\nQ = (a, 3).Q\ninit P\n"
    path = write(tmp_path, "m.pepa", text)
    code, out, err = run_main(capsys, "minimize", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["language"] == "pepa"
    assert len(doc["states"]) == 2  # total rates 2 vs 3 keep P and Q apart


def test_minimize_folds_equivalent_constants(tmp_path, capsys):
    text = "P = (a, 1).Q\nQ = (a, 1).P\nR = (a, 1).R\ninit P\n"
    path = write(tmp_path, "m.pepa", text)
    code, out, err = run_main(capsys, "minimize", path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,text",
    [
        ("m.pepa", "P = (a, 1).P + (b, 1/2).Q\nQ = (a, 2).P\ninit P <a> Q\n"),
        ("m.iml", "X = a.X + 1/2 . Y\nY = b.X\ninit X |[a]| Y\n"),
        ("m.tpc", "X = (2).a.X\nY = a.(1).Y\ninit X |[a]| Y\n"),
        ("m.mal", "X = a.{1/2: X [] 1/2: Y} + 1 . X\nY = b.{1: X}\ninit X |[b]| Y\n"),
    ],
)
def test_compare_all_pass_on_well_formed_models(tmp_path, capsys, name, text):
    path = write(tmp_path, name, text)
    code, out, err = run_main(capsys, "compare", path)
    assert code == 0, out + err
    lines = out.strip().splitlines()
    assert lines
    assert all(line.startswith("PASS ") for line in lines)
    assert any("per-target semantics agreement" in line for line in lines)
    assert any("bisimilarity correspondence" in line for line in lines)


def test_compare_language_specific_checks_present(tmp_path, capsys):
    path = write(tmp_path, "m.tpc", "X = (2).a.X\ninit X\n")
    code, out, err = run_main(capsys, "compare", path)
    assert code == 0
    assert "tick values are singletons" in out
    assert "oracle time-determinism" in out
    assert "waiting shrinks the delay budget" in out

    path = write(tmp_path, "m2.mal", "X = a.{1/3: X [] 2/3: nil}\ninit X\n")
    code, out, err = run_main(capsys, "compare", path)
    assert code == 0
    assert "branch distributions sum to one" in out

    path = write(tmp_path, "m3.pepa", "P = (a, 3/2).P\ninit P\n")
    code, out, err = run_main(capsys, "compare", path)
    assert code == 0
    assert "apparent-rate totals" in out


# ---------------------------------------------------------------------------
# Installed entry point behaves like main()
# ---------------------------------------------------------------------------


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "m.pepa", "P = (a, 1).P\ninit P\n")
    # run the package the suite imports, installed or not
    package_root = os.path.dirname(os.path.dirname(futsbench.__file__))
    search = [package_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-m", "futsbench.cli", "check", path],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search))),
    )
    assert proc.returncode == 0
    assert "guarded" in proc.stdout


# ---------------------------------------------------------------------------
# Many calls in one process share one parser and nothing else
# ---------------------------------------------------------------------------


def run_any(capsys, *argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)``, argparse's exits too."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_parsers(monkeypatch):
    """A list of every ``argparse.ArgumentParser`` constructed from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_the_parser_is_built_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "m.pepa", "P = (a, 1).P\ninit P\n")
    assert run_any(capsys, "build", path)[0] == 0
    built = count_parsers(monkeypatch)
    codes = []
    for _ in range(4):
        codes.append(run_any(capsys, "build", path)[0])
        codes.append(run_any(capsys, "bisim", path, "--left", "P", "--right", "(a, 2).P")[0])
    codes.append(run_any(capsys, "build", path, "--max-states", "0")[0])
    codes.append(run_any(capsys, "bisim", path, "--left", "P")[0])
    assert codes == [0, 1] * 4 + [2, 2]
    assert built == []
    # the counter sees a parser and its five subparsers when one is built
    build_parser.__wrapped__()
    assert len(built) == 6


def test_calls_in_one_process_leave_no_state_behind(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "P = (a, 1).Q + (a, 1).P\nQ = (b, 2).P\ninit P <a> Q\n")
    # argparse's rejections and help, a diagnostic and every command, each
    # with its exit code
    calls = [
        (["build", path, "--max-states", "0"], 2),
        (["check", path, "--lang", "ccs"], 2),
        (["bisim", path, "--left", "P"], 2),
        (["simulate", path], 2),
        (["--help"], 0),
        (["build", "--help"], 0),
        (["check", str(tmp_path / "absent.pepa")], 2),
        (["build", path], 0),
        (["bisim", path, "--left", "P", "--right", "Q"], 1),
        (["bisim", path, "--left", "(a, 1).Q + (a, 1).P", "--right", "P"], 0),
        (["minimize", path], 0),
        (["compare", path], 0),
    ]
    forwards = [run_any(capsys, *argv) for argv, _ in calls]
    backwards = [run_any(capsys, *argv) for argv, _ in reversed(calls)][::-1]
    assert [code for code, _, _ in forwards] == [code for _, code in calls]
    for (argv, _), first, second in zip(calls, forwards, backwards):
        assert first == second, argv
    # a rejection is argparse's usage and its error line; the missing file
    # is the CLI's own one-line diagnostic
    for _, out, err in forwards[:4]:
        assert out == "" and err.startswith("usage: futsbench")
        assert err.splitlines()[-1].startswith("futsbench")
    assert forwards[4][1].startswith("usage: futsbench [-h]")
    assert forwards[5][1].startswith("usage: futsbench build [-h]")
    _, out, err = forwards[6]
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first main() call, not at import time
    package_root = os.path.dirname(os.path.dirname(futsbench.__file__))
    script = (
        "import argparse, sys\n"
        f"sys.path.insert(0, {package_root!r})\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import futsbench.cli\n"
        "print(len(built))\n"
        "futsbench.cli.build_parser()\n"
        "print(len(built))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, cwd=package_root
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n6\n", "")


# ---------------------------------------------------------------------------
# Bad input is a diagnostic, never a traceback
# ---------------------------------------------------------------------------


def test_unknown_extension_is_a_diagnostic(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "P = (a, 1).P\ninit P\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 2
    assert err.startswith("error:")
    assert "cannot infer language" in err


def test_non_utf8_file_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "m.pepa"
    path.write_bytes(b"P = (a, 1).P\ninit P \xff\xfe\n")
    code, out, err = run_main(capsys, "check", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "UTF-8" in err


def test_non_ascii_digit_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "P = (a, ²).P\ninit P\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 2
    assert err.startswith("error:")


def test_bisim_undefined_constant_is_a_diagnostic(tmp_path, capsys):
    path = write(tmp_path, "m.pepa", "P = (a, 1).P\ninit P\n")
    code, out, err = run_main(capsys, "bisim", path, "--left", "Q", "--right", "P")
    assert code == 2
    assert err == "error: undefined process constant 'Q' in 'Q'\n"


def test_operands_stepping_into_one_state_add_their_rates(tmp_path, capsys):
    # each side of P <> P moves back to P <> P: the two renamed steps collide
    path = write(tmp_path, "m.pepa", "P = (a, 1).P\ninit P <> P\n")
    code, out, err = run_main(capsys, "build", path)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["states"] == [{"id": 0, "term": "(P <> P)"}]
    (act,) = doc["relations"]
    assert act["transitions"] == [
        {"source": 0, "label": "a", "continuation": [{"target": "(P <> P)", "value": "2/1"}]}
    ]


_DEEP = 3000
_DEEP_MODELS = {
    "prefix": "init " + "a." * _DEEP + "nil\n",
    "choice": "init " + " + ".join(["a.nil"] * _DEEP) + "\n",
    "chain": "".join(f"X{i} = X{i + 1} + a.nil\n" for i in range(_DEEP))
    + f"X{_DEEP} = a.nil\ninit X0\n",
}


@pytest.mark.parametrize("shape, definitions", [("prefix", 0), ("chain", _DEEP + 1)])
def test_deep_prefix_and_constant_chains_pass_check(tmp_path, capsys, shape, definitions):
    # the parser reads a prefix chain in a loop, and the guardedness check
    # keeps its own stack
    path = write(tmp_path, "m.iml", _DEEP_MODELS[shape])
    code, out, err = run_main(capsys, "check", path)
    assert (code, err) == (0, "")
    assert out == f"ok: {definitions} definitions, language iml, guarded\n"


@pytest.mark.parametrize("command", ["build", "minimize"])
def test_deep_prefix_chain_builds_and_minimizes(tmp_path, capsys, command):
    # exploring reads each state's text one level at a time, without recursion
    path = write(tmp_path, "m.iml", _DEEP_MODELS["prefix"])
    code, out, err = run_main(capsys, command, path)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["states"]) == _DEEP + 1
    assert doc["states"][-1]["term"] == "nil"
    (act, delay) = doc["relations"]
    assert len(act["transitions"]) == _DEEP
    assert delay["transitions"] == []


@pytest.mark.parametrize(
    "ext, prefix", [("iml", "a."), ("tpc", "a."), ("pepa", "(a, 1).")], ids=["iml", "tpc", "pepa"]
)
def test_deep_prefix_chain_compares(tmp_path, capsys, ext, prefix):
    # the oracle imports each state from the model's table by id, so
    # compare walks the chain one level at a time on both routes
    path = write(tmp_path, f"m.{ext}", "init " + prefix * _DEEP + "nil\n")
    code, out, err = run_main(capsys, "compare", path)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)
    assert lines[-1] == f"PASS bisimilarity correspondence [{_DEEP + 1} checks]"


# one branch of a deep choice, and a term bisimilar to the whole choice
_BRANCHES = {
    "iml": ("a.nil", "a.nil"),
    "pepa": ("(a, 1).nil", f"(a, {_DEEP}).nil"),
    "tpc": ("(1).a.nil", "(1).a.nil"),
}


@pytest.mark.parametrize("command", ["build", "bisim", "minimize", "compare"])
@pytest.mark.parametrize("ext", ["iml", "pepa", "tpc"])
def test_deep_choice_passes_every_command(tmp_path, capsys, ext, command):
    # each step fills its operands' memo children first, without recursion
    branch, whole = _BRANCHES[ext]
    choice = " + ".join([branch] * _DEEP)
    path = write(tmp_path, f"m.{ext}", f"init {choice}\n")
    extra = ("--left", choice, "--right", whole) if command == "bisim" else ()
    code, out, err = run_main(capsys, command, path, *extra)
    assert (code, err) == (0, "")
    # the choice and nil, and in tpc the choice of a.nil it ticks into
    states = 3 if ext == "tpc" else 2
    if command in ("build", "minimize"):
        assert len(json.loads(out)["states"]) == states
    elif command == "bisim":
        assert out == "BISIMILAR\n"
    else:
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)
        assert lines[-1] == f"PASS bisimilarity correspondence [{states} checks]"


@pytest.mark.parametrize("command", ["build", "bisim", "minimize", "compare"])
def test_deep_constant_chain_passes_every_command(tmp_path, capsys, command):
    # a constant is stepped as its body, and its step kept under its own id
    path = write(tmp_path, "m.iml", _DEEP_MODELS["chain"])
    extra = ("--left", "X0", "--right", "a.nil") if command == "bisim" else ()
    code, out, err = run_main(capsys, command, path, *extra)
    assert (code, err) == (0, "")
    if command == "build":
        states = json.loads(out)["states"]
        assert [state["term"] for state in states] == ["X0", "nil"]
    elif command == "minimize":
        assert len(json.loads(out)["states"]) == 2
    elif command == "bisim":
        assert out == "BISIMILAR\n"
    else:
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)
        assert lines[-1] == "PASS bisimilarity correspondence [2 checks]"


# terms nested _DEEP levels deep in groups: each file, and its number of states
_NESTED = {
    "iml-parens": ("m.iml", "(" * _DEEP + "a.nil" + ")" * _DEEP, 2),
    "pepa-parens": ("m.pepa", "(" * _DEEP + "(a, 1).nil" + ")" * _DEEP, 2),
    "mal-braces": ("m.mal", "a.{1: " * _DEEP + "nil" + "}" * _DEEP, _DEEP + 1),
    "right-choice": ("m.iml", "(a.nil + " * _DEEP + "a.nil" + ")" * _DEEP, 2),
}


@pytest.mark.parametrize("command", ["check", "build", "minimize", "compare"])
@pytest.mark.parametrize("shape", list(_NESTED))
def test_deep_nesting_passes_every_command(tmp_path, capsys, shape, command):
    # the parser keeps each open group's unfinished term on a stack of its own
    name, term, states = _NESTED[shape]
    path = write(tmp_path, name, f"init {term}\n")
    code, out, err = run_main(capsys, command, path)
    assert (code, err) == (0, "")
    if command == "check":
        assert out == f"ok: 0 definitions, language {name[2:]}, guarded\n"
    elif command in ("build", "minimize"):
        # no two states of any of these are bisimilar
        assert len(json.loads(out)["states"]) == states
    else:
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)
        assert lines[-1] == f"PASS bisimilarity correspondence [{states} checks]"


@pytest.mark.parametrize("bound", ["-1", "0"])
def test_max_states_below_one_is_rejected(tmp_path, capsys, bound):
    path = write(tmp_path, "m.pepa", "P = (a, 1).P\ninit P\n")
    with pytest.raises(SystemExit) as exc:
        main(["build", path, "--max-states", bound])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --max-states: must be at least 1" in err
