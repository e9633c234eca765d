"""The cross-checks' oracle table: enumerated once, every target explored,
and the oracle partition built from it alone."""

from fractions import Fraction

import pytest

from futsbench import bisim, crosscheck
from futsbench.cli import main
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
