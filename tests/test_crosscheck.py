"""The cross-checks' oracle table: enumerated once, every target explored,
and the oracle partition built from it alone; and every check's failing
path, by a fault injected into what it reads."""

from fractions import Fraction

import pytest

from futsbench import bisim, crosscheck
from futsbench.cli import main
from futsbench.bisim import Partition
from futsbench.crosscheck import oracle_moves, oracle_partition_from, run_checks
from futsbench.errors import UnknownStateError
from futsbench.explore import explore
from futsbench.sem_oracle import OracleTerms
from futsbench.syntax import Nil, RatedPrefix, parse_model
from modelgen import build_corpus

MODELS = {
    "pepa": "P = (a, 1).Q + (b, 2).P\nQ = (a, 3).P + (c, 1).R\nR = (b, 1/2).P\ninit P <a> Q\n",
    "iml": "X = a.Y + 2 . X\nY = b.X + 1/2 . nil\ninit X |[a]| Y\n",
    "tpc": "X = (2).a.Y + (2).b.X\nY = (1).b.X + (1).a.nil\ninit X |[a]| Y\n",
    "mal": "X = a.{1/2: X [] 1/2: Y} + 2 . Y\nY = b.{1: X}\ninit X |[a]| Y\n",
}

# the oracle functions crosscheck calls, and the relation whose slots each
# one serves, per language (the apparent rate has its own check)
SLOTS = {
    "pepa": {"pepa_apparent_rate": "act", "pepa_transitions": "act"},
    "iml": {"interactive_transitions": "act", "delay_derivations": "delay"},
    "tpc": {"interactive_transitions": "act", "timed_transitions": "tick"},
    "mal": {"action_distributions": "act", "delay_derivations": "delay"},
}
ORACLE = sorted({name for slots in SLOTS.values() for name in slots})


@pytest.mark.parametrize("lang", sorted(MODELS))
def test_oracle_is_enumerated_once_per_compare(lang, monkeypatch):
    fm = explore(parse_model(MODELS[lang], lang))
    calls = dict.fromkeys(ORACLE, 0)

    def counting(name):
        original = getattr(crosscheck, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ORACLE:
        monkeypatch.setattr(crosscheck, name, counting(name))
    results = run_checks(fm)
    assert all(result.passed for result in results)

    labels = {data.name: len(data.labels) for data in fm.relations}
    n_states = len(fm.states)
    assert n_states > 1 and labels["act"] > 1
    expected = dict.fromkeys(ORACLE, 0)
    for name, relation in SLOTS[lang].items():
        expected[name] = n_states * labels[relation]
    assert calls == expected


def test_unexplored_oracle_target_is_a_diagnosed_error(tmp_path, capsys, monkeypatch):
    text = "P = (a, 1).P\ninit P\n"
    model = parse_model(text, "pepa")

    def stray(table, term_id, action):
        # (b, 1).nil, built in the oracle's table only
        return ((Fraction(1), table.id_of(RatedPrefix, "b", Fraction(1), table.id_of(Nil))),)

    monkeypatch.setattr(crosscheck, "pepa_transitions", stray)
    with pytest.raises(UnknownStateError, match="step-derivation target"):
        oracle_moves(explore(model))

    path = tmp_path / "m.pepa"
    path.write_text(text)
    assert main(["compare", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: step-derivation target '(b, 1).nil' is not an explored state\n"
    )


def test_oracle_targets_are_resolved_without_their_texts(monkeypatch):
    corpus = [
        fm
        for lang in sorted(MODELS)
        for fm in build_corpus(lang, 40, 200, "by-id", depth=4, max_par=3, max_def_par=0)
    ]
    depth = 400
    chain = "a.{1: " * depth + "nil" + "}" * depth
    corpus.append(explore(parse_model(f"init {chain}\n", "mal")))

    def refuse(*args, **kwargs):
        raise AssertionError("an explored target must be found by its id, not its text")

    monkeypatch.setattr(OracleTerms, "text", refuse)
    for fm in corpus:
        assert all(result.passed for result in run_checks(fm))


@pytest.mark.parametrize("lang", sorted(MODELS))
def test_oracle_partition_needs_neither_refine_nor_its_signatures(lang, monkeypatch):
    fm = explore(parse_model(MODELS[lang], lang))
    expected = bisim.refine(fm)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle partition must not use the FuTS refinement")

    borrowed = [(bisim, "refine"), (crosscheck, "refine")] + [
        (bisim, name)
        for name in ("_state_signature", "_predecessors", "_push")
    ]
    for module, name in borrowed:
        monkeypatch.setattr(module, name, refuse)
    assert oracle_partition_from(oracle_moves(fm)) == expected


# ---------------------------------------------------------------------------
# Failing paths: no check may pass whatever it reads
# ---------------------------------------------------------------------------


def inject(monkeypatch, name, fault):
    """Replace the oracle function ``crosscheck`` calls as ``name`` by one
    that returns ``fault(derivations, source term id)``."""
    original = getattr(crosscheck, name)

    def faulty(table, term_id, *args):
        return fault(original(table, term_id, *args), term_id)

    monkeypatch.setattr(crosscheck, name, faulty)


def assert_fails(lang, check, message, tmp_path, capsys):
    """The model of ``lang`` fails ``check`` with ``message`` first, in
    ``run_checks`` and in ``compare``, which prints it and exits 1."""
    results = {r.name: r for r in run_checks(explore(parse_model(MODELS[lang], lang)))}
    assert results[check].passed is False
    assert results[check].failures[0] == message
    path = tmp_path / f"m.{lang}"
    path.write_text(MODELS[lang])
    assert main(["compare", str(path)]) == 1
    assert f"FAIL {check}: {message}\n" in capsys.readouterr().out


def back_to_source(derived, source):
    """Every move of a state goes back to the state itself."""
    return frozenset([source]) if derived else derived


AGREEMENT_FAULTS = {
    "pepa": (
        "pepa_transitions",
        lambda derived, _: tuple((2 * rate, target) for rate, target in derived),
        "state 0 (P <a> Q) act a: "
        "weights {'(Q <a> P)': 1} != derivations {'(Q <a> P)': 2}",
    ),
    "iml": (
        "interactive_transitions",
        back_to_source,
        "state 0 (X |[a]| Y) act b: "
        "weights {'(X |[a]| X)': True} != derivations {'(X |[a]| Y)': True}",
    ),
    "iml-delay": (
        "delay_derivations",
        lambda derived, _: tuple((rate + 1, target) for rate, target in derived),
        "state 0 (X |[a]| Y) delay delta: weights {'(X |[a]| Y)': 2, "
        "'(X |[a]| nil)': Fraction(1, 2)} != derivations {'(X |[a]| Y)': 3, "
        "'(X |[a]| nil)': Fraction(3, 2)}",
    ),
    "tpc": (
        "interactive_transitions",
        back_to_source,
        "state 1 ((1).a.Y + (1).b.X |[a]| b.X + a.nil) act b: "
        "weights {'(((1).a.Y + (1).b.X) |[a]| X)': True} != "
        "derivations {'(((1).a.Y + (1).b.X) |[a]| (b.X + a.nil))': True}",
    ),
    "mal": (
        "action_distributions",
        lambda derived, source: frozenset(frozenset([(source, 1)]) for _ in derived),
        "state 0 (X |[a]| Y) act b: weights {frozenset({('(X |[a]| X)', 1)}): True} "
        "!= derivations {frozenset({('(X |[a]| Y)', 1)}): True}",
    ),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_FAULTS))
def test_agreement_check_fails_on_a_wrong_derivation(case, tmp_path, capsys, monkeypatch):
    name, fault, message = AGREEMENT_FAULTS[case]
    inject(monkeypatch, name, fault)
    lang = case.split("-")[0]
    assert_fails(lang, "per-target semantics agreement", message, tmp_path, capsys)


def test_time_determinism_check_fails_when_one_amount_reaches_two_targets(
    tmp_path, capsys, monkeypatch
):
    def also_stay(derived, source):
        """Waiting an amount also stays in the source."""
        return derived | {(amount, source) for amount, _ in derived}

    inject(monkeypatch, "timed_transitions", also_stay)
    message = (
        "state 0 (X |[a]| Y): waiting 1 reaches both "
        "'(X |[a]| Y)' and '(((1).a.Y + (1).b.X) |[a]| (b.X + a.nil))'"
    )
    assert_fails("tpc", "oracle time-determinism", message, tmp_path, capsys)


def test_apparent_rate_check_fails_on_a_wrong_total(tmp_path, capsys, monkeypatch):
    original = crosscheck.pepa_apparent_rate
    monkeypatch.setattr(crosscheck, "pepa_apparent_rate", lambda *args: original(*args) + 1)
    message = "state 0 (P <a> Q) action a: total weight 1, apparent rate 2"
    assert_fails("pepa", "apparent-rate totals", message, tmp_path, capsys)


def explored(lang):
    return explore(parse_model(MODELS[lang], lang))


def assert_result(result, checked, message):
    """``result`` failed, ``message`` first, after ``checked`` comparisons."""
    assert result.passed is False
    assert result.failures[0] == message
    assert result.checked == checked


def test_tick_singleton_check_fails_on_a_two_amount_value():
    fm = explored("tpc")
    tick = crosscheck._relation(fm, "tick")
    # the second of the three tick entries lets one or two units pass
    ((target, _),) = tick.transitions[2, "tick"]
    tick.transitions[2, "tick"] = ((target, frozenset({1, 2})),)
    message = (
        "state 2 -> ((a.Y + b.X) |[a]| ((1).a.Y + (1).b.X)): "
        "amount set frozenset({1, 2}) is not a singleton"
    )
    assert_result(crosscheck.tick_singleton_check(fm), 3, message)


def test_md_descent_check_fails_when_waiting_leaves_the_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(crosscheck, "tpc_max_delay", lambda model, term_id: 3)
    message = "state 0: waited 1, max delay 3 -> 3"
    assert_result(crosscheck.md_descent_check(explored("tpc")), 3, message)
    assert_fails("tpc", "waiting shrinks the delay budget", message, tmp_path, capsys)


def test_distribution_check_fails_on_masses_not_summing_to_one():
    fm = explored("mal")
    act = crosscheck._relation(fm, "act")
    # the second of state 2's two distributions under b loses half its mass
    first, (inner, weight) = act.transitions[2, "b"]
    ((target, _),) = inner
    act.transitions[2, "b"] = (first, (((target, Fraction(1, 2)),), weight))
    message = "state 2 label b: branch masses sum to 1/2"
    assert_result(crosscheck.distribution_check(fm), 5, message)


# per language, the least pair of states that the oracle separates, and the
# least that it joins
SPLIT_PAIRS = {
    "pepa": (
        "state 0 (P <a> Q) and state 2 (P <a> R)",
        "state 0 (P <a> Q) and state 1 (Q <a> P)",
    ),
    "iml": (
        "state 0 (X |[a]| Y) and state 1 (X |[a]| X)",
        "state 0 (X |[a]| Y) and state 4 (Y |[a]| X)",
    ),
    "tpc": (
        "state 0 (X |[a]| Y) and state 1 ((1).a.Y + (1).b.X |[a]| b.X + a.nil)",
        "state 0 (X |[a]| Y) and state 2 ((1).a.Y + (1).b.X |[a]| X)",
    ),
    "mal": (
        "state 0 (X |[a]| Y) and state 1 (X |[a]| X)",
        "state 0 (X |[a]| Y) and state 3 (Y |[a]| X)",
    ),
}


@pytest.mark.parametrize("lang, blocks", [("pepa", 6), ("iml", 6), ("tpc", 2), ("mal", 3)])
def test_correspondence_check_fails_when_the_partitions_differ(
    lang, blocks, tmp_path, capsys, monkeypatch
):
    separated, joined = SPLIT_PAIRS[lang]
    monkeypatch.setattr(crosscheck, "refine", lambda fm: Partition((0,) * len(fm.states)))
    message = (
        f"refinement found 1 blocks, step-derivation oracle {blocks}: "
        f"refinement joins {separated}, the oracle does not"
    )
    assert_fails(lang, "bisimilarity correspondence", message, tmp_path, capsys)
    # every state alone: the least pair that the oracle joins
    monkeypatch.setattr(crosscheck, "refine", lambda fm: Partition(tuple(range(len(fm.states)))))
    n_states = len(explore(parse_model(MODELS[lang], lang)).states)
    message = (
        f"refinement found {n_states} blocks, step-derivation oracle {blocks}: "
        f"refinement separates {joined}, the oracle does not"
    )
    assert_fails(lang, "bisimilarity correspondence", message, tmp_path, capsys)
