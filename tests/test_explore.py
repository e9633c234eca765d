"""Unit tests for exploration and serialization.

The 4-state probabilistic model below is the package's golden model:
its six non-zero weight functions are frozen here exactly.
"""

import json
from fractions import Fraction

import pytest

from futsbench.errors import ExplorationLimitError
from futsbench.explore import explore, to_dot, to_json
from futsbench.fsfun import ff_make, ff_oplus, ff_zero
from futsbench.semiring import semiring_of
from futsbench.syntax import LANGUAGES, Model, parse_model, parse_term, pretty, term_key

from idtext import stored_text
from modelgen import build_corpus

GOLDEN_PEPA = """\
S0 = (a, 1/2).S0 + (a, 1/2).S1
S1 = (a, 1/2).S1 + (a, 1/2).S2 + (b, 1/6).S0 + (b, 1/2).S2 + (b, 1/3).S3
S2 = (a, 1/2).S2 + (a, 1/2).S3
S3 = (a, 1/2).S0 + (a, 1/2).S3
init S0
"""


def golden_model():
    return explore(parse_model(GOLDEN_PEPA, "pepa"))


def rat_fn(pairs):
    return ff_make("NNRAT", [(k, Fraction(v)) for k, v in pairs])


def test_single_state_inert_model():
    for lang in ("pepa", "iml", "tpc", "mal"):
        fm = explore(parse_model("init nil\n", lang))
        assert [s.key for s in fm.states] == ["nil"]
        assert fm.init_id == 0
        assert all(data.transitions == {} for data in fm.relations)


def test_self_loop_collapses_to_one_state():
    fm = explore(parse_model("X = a.X\ninit X\n", "iml"))
    assert [s.key for s in fm.states] == ["X"]
    act, delay = fm.relations
    fn = stored_text(fm, act, 0, "a")
    assert fn == ff_make("BOOL", [("X", True)])
    assert stored_text(fm, delay, 0, "delta") == ff_zero("NNRAT")


def test_golden_model_states_and_functions():
    fm = golden_model()
    assert [s.key for s in fm.states] == ["S0", "S1", "S2", "S3"]
    assert fm.init_id == 0
    (act,) = fm.relations
    assert act.labels == ("a", "b")

    def fn_at(state, label):
        return stored_text(fm, act, state, label)

    assert fn_at(0, "a") == rat_fn([("S0", "1/2"), ("S1", "1/2")])
    assert fn_at(1, "a") == rat_fn([("S1", "1/2"), ("S2", "1/2")])
    assert fn_at(2, "a") == rat_fn([("S2", "1/2"), ("S3", "1/2")])
    assert fn_at(3, "a") == rat_fn([("S0", "1/2"), ("S3", "1/2")])
    assert fn_at(1, "b") == rat_fn(
        [("S0", "1/6"), ("S2", "1/2"), ("S3", "1/3")]
    )
    for state in (0, 2, 3):
        assert fn_at(state, "b") == ff_zero("NNRAT")
    # every state's a-behaviour is a probability distribution
    for state in range(4):
        assert ff_oplus(fn_at(state, "a")) == Fraction(1)


def test_closure_every_support_key_is_a_state():
    text = "X = a.{1/2: nil [] 1/2: Y}\nY = 1.X\ninit X |[]| Y\n"
    fm = explore(parse_model(text, "mal"))
    for data in fm.relations:
        for step in data.transitions.values():
            if data.kind == "nested":
                for inner, _ in step:
                    for target, _ in inner:
                        assert 0 <= target < len(fm.states)
            else:
                for target, _ in step:
                    assert 0 <= target < len(fm.states)


def test_exploration_limit():
    with pytest.raises(ExplorationLimitError, match="exceeded 3 states"):
        explore(parse_model(GOLDEN_PEPA, "pepa"), max_states=3)


def test_extra_roots_are_explored():
    model = parse_model(GOLDEN_PEPA, "pepa")
    left = parse_term("S2", model)
    right = parse_term("(a, 1).nil", model)
    fm = explore(model, extra_roots=[left, right])
    assert "(a, 1).nil" in fm.index
    assert "S2" in fm.index
    assert fm.states[fm.init_id].key == "S0"


def test_json_output_is_deterministic_and_schema_shaped():
    fm = golden_model()
    text = to_json(fm)
    assert text == to_json(golden_model())
    doc = json.loads(text)
    assert doc["language"] == "pepa"
    assert doc["init"] == 0
    assert doc["states"][1] == {"id": 1, "term": "S1"}
    (relation,) = doc["relations"]
    assert relation["labels"] == ["a", "b"]
    assert relation["kind"] == "simple"
    assert relation["semiring"] == "NNRAT"
    b_moves = [t for t in relation["transitions"] if t["label"] == "b"]
    assert b_moves == [
        {
            "source": 1,
            "label": "b",
            "continuation": [
                {"target": "S0", "value": "1/6"},
                {"target": "S2", "value": "1/2"},
                {"target": "S3", "value": "1/3"},
            ],
        }
    ]


def test_json_of_nested_relation():
    fm = explore(parse_model("X = 1.X\ninit a.{1/2: nil [] 1/2: X}\n", "mal"))
    doc = json.loads(to_json(fm))
    act = doc["relations"][0]
    assert act["kind"] == "nested"
    assert act["semiring"] == "BOOL"
    (move,) = act["transitions"]
    assert move["continuation"] == [
        {
            "inner": [
                {"target": "X", "value": "1/2"},
                {"target": "nil", "value": "1/2"},
            ],
            "value": "true",
        }
    ]
    delay = doc["relations"][1]
    assert delay["labels"] == ["delta"]
    assert {t["source"] for t in delay["transitions"]} == {fm.index["X"]}


def test_dot_output():
    fm = golden_model()
    dot = to_dot(fm)
    assert 's1 -> s0 [label="b / 1/6"]' in dot
    assert "__init -> s0;" in dot
    assert dot.startswith("digraph model {")
    # every state has a node line with its readable label
    assert 's0 [label="S0"];' in dot


def test_dot_nested_inlines_the_distribution():
    fm = explore(parse_model("X = 1.X\ninit a.{1/2: nil [] 1/2: X}\n", "mal"))
    dot = to_dot(fm)
    x_id = fm.index["X"]
    nil_id = fm.index["nil"]
    inline = f"[s{x_id} -> 1/2, s{nil_id} -> 1/2]"
    assert f'[label="a / 1/2 of {inline}"];' in dot


def _reference_json_doc(fm):
    """The document ``to_json`` writes, built as dicts and lists."""

    def continuation(step, data):
        fmt = semiring_of(data.tag).fmt
        if data.kind == "simple":
            return [{"target": keys[t], "value": fmt(v)} for t, v in step]
        inner_fmt = semiring_of(data.inner_tag).fmt
        return [
            {
                "inner": [{"target": keys[t], "value": inner_fmt(p)} for t, p in inner],
                "value": fmt(v),
            }
            for inner, v in step
        ]

    keys = [s.key for s in fm.states]
    return {
        "language": fm.lang,
        "init": fm.init_id,
        "states": [{"id": s.id, "term": s.key} for s in fm.states],
        "relations": [
            {
                "labels": list(data.labels),
                "kind": data.kind,
                "semiring": data.tag,
                "transitions": [
                    {"source": source, "label": label, "continuation": continuation(step, data)}
                    for (source, label), step in data.transitions.items()
                ],
            }
            for data in fm.relations
        ],
    }


def _json_cases():
    for lang in LANGUAGES:
        yield from build_corpus(lang, 12, 60, "json", depth=3, max_par=2)
        # no labels and no transitions: empty arrays
        yield explore(parse_model("init nil\n", lang))
    # a constant name outside ASCII, which the lexer accepts, is escaped
    yield explore(parse_model("Pé = (a, 1).Qü\nQü = (b, 2).Pé\ninit Pé\n", "pepa"))
    yield golden_model()


def test_json_matches_the_standard_encoder_byte_for_byte():
    seen = set()
    for fm in _json_cases():
        expected = json.dumps(_reference_json_doc(fm), indent=2) + "\n"
        assert to_json(fm) == expected
        seen.update(data.kind for data in fm.relations if data.transitions)
        seen.update("no labels" for data in fm.relations if not data.labels)
        seen.update("non-ASCII" for s in fm.states if not s.key.isascii())
    assert seen == {"simple", "nested", "no labels", "non-ASCII"}


@pytest.mark.parametrize("lang", LANGUAGES)
def test_explore_never_builds_a_term_tree(lang, monkeypatch):
    # exploring costs each state its step: texts are rendered one level at
    # a time from the table, and no state's whole term is built as a tree
    def no_trees(self, term_id):
        raise AssertionError(f"explore built the tree of term {term_id}")

    with monkeypatch.context() as patch:
        patch.setattr(Model, "term_of", no_trees)
        corpus = build_corpus(lang, 20, 100, "no-trees", depth=4, max_par=3, max_def_par=0)
    for fm in corpus:
        for state in fm.states:
            term = fm.ctx.term_of(state.term)
            assert state.key == term_key(term)
            assert state.pretty == pretty(term)
