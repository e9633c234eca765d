"""Acceptance suite: ten binding criteria, one test per criterion.

`pytest -v tests/test_acceptance.py` prints one PASSED/FAILED line per
criterion (and per companion test of a criterion).  Every test pins its
own wall-clock budget and uses exact (rational/set/boolean) equality
throughout — no tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from futsbench.bisim import minimize, refine
from futsbench.cli import main as cli_main
from futsbench.crosscheck import (
    agreement_check,
    apparent_rate_check,
    distribution_check,
    md_descent_check,
    oracle_moves,
    oracle_partition_from,
    tick_singleton_check,
    time_determinism_check,
)
from futsbench.explore import explore, to_json
from futsbench.fsfun import ff_make, ff_oplus
from futsbench.semiring import NNRAT
from futsbench.sem_futs import futs_step, relation_labels, relation_specs
from futsbench.syntax import parse_model, parse_term

from bisimref import brute_force, disjoint_union
from idtext import as_text, fn_text, state_keys, steps_text, stored_text
from modelgen import SEMIRINGS, bodies, build_corpus, fresh_copy, model_text, random_value, tree

LANGS = ("pepa", "iml", "tpc", "mal")

GOLDEN_PEPA = """\
S0 = (a, 1/2).S0 + (a, 1/2).S1
S1 = (a, 1/2).S1 + (a, 1/2).S2 + (b, 1/6).S0 + (b, 1/2).S2 + (b, 1/3).S3
S2 = (a, 1/2).S2 + (a, 1/2).S3
S3 = (a, 1/2).S0 + (a, 1/2).S3
init S0
"""


# ---------------------------------------------------------------------------
# Shared deterministic corpora (built once, reused across criteria)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def small_corpus(lang):
    """At least 100 guarded models per language, explored to <= 2000 states."""
    return tuple(
        build_corpus(
            lang, 100, 2000, "small", depth=5, max_consts=5, max_par=4, max_def_par=0
        )
    )


@lru_cache(maxsize=None)
def medium_corpus(lang):
    """At least 200 models per language, each with <= 200 states."""
    return tuple(
        build_corpus(
            lang,
            200,
            200,
            "medium",
            depth=5,
            max_consts=5,
            max_par=4,
            max_def_par=0,
            min_states=2,
        )
    )


@lru_cache(maxsize=None)
def tiny_corpus(lang):
    """125 models per language with <= 8 states each (500 total)."""
    return tuple(build_corpus(lang, 125, 8, "tiny", depth=2, max_consts=2))


# ---------------------------------------------------------------------------
# Criterion 1 — semiring laws on 1000 random triples per weight domain
# ---------------------------------------------------------------------------


def test_criterion_01_semiring_laws():
    start = time.monotonic()
    rng = random.Random("criterion-1-semiring-laws")
    for sr in SEMIRINGS:
        zero, one, add, mul = sr.zero, sr.one, sr.add, sr.mul
        for _ in range(1000):
            x = random_value(rng, sr)
            y = random_value(rng, sr)
            z = random_value(rng, sr)
            # additive commutative monoid
            assert add(add(x, y), z) == add(x, add(y, z))
            assert add(x, y) == add(y, x)
            assert add(x, zero) == x
            # multiplicative monoid
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, one) == x
            assert mul(one, x) == x
            # distributivity, both sides
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
            assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
            # annihilating zero
            assert mul(x, zero) == zero
            assert mul(zero, x) == zero
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"semiring laws took {elapsed:.1f}s (budget 5s)"
    print(f"criterion 1: PASS — 3000 random triples, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2 — the golden probabilistic model, reproduced exactly
# ---------------------------------------------------------------------------


def test_criterion_02_golden_model_exact():
    fm = explore(parse_model(GOLDEN_PEPA, "pepa"))
    assert state_keys(fm) == ["S0", "S1", "S2", "S3"]

    def rat_fn(pairs):
        return ff_make(NNRAT, [(k, Fraction(v)) for k, v in pairs])

    act = fm.relations[0]

    def fn_at(state, label):
        return stored_text(fm, act, state, label)

    # the five non-zero weight functions, frozen
    assert fn_at(0, "a") == rat_fn([("S0", "1/2"), ("S1", "1/2")])
    assert fn_at(1, "a") == rat_fn([("S1", "1/2"), ("S2", "1/2")])
    assert fn_at(2, "a") == rat_fn([("S2", "1/2"), ("S3", "1/2")])
    assert fn_at(3, "a") == rat_fn([("S0", "1/2"), ("S3", "1/2")])
    assert fn_at(1, "b") == rat_fn(
        [("S0", "1/6"), ("S2", "1/2"), ("S3", "1/3")]
    )
    # and the displayed zero functions: no b-behaviour anywhere else
    for state in (0, 2, 3):
        assert fn_at(state, "b") == ()
    # every continuation is a probability distribution (total weight 1)
    for state in range(4):
        assert ff_oplus(NNRAT, fn_at(state, "a")) == Fraction(1)
    assert ff_oplus(NNRAT, fn_at(1, "b")) == Fraction(1)
    print("criterion 2: PASS — golden model reproduced exactly")


# ---------------------------------------------------------------------------
# Criterion 3 — totality and determinism on random corpora
# ---------------------------------------------------------------------------


def printed_image(fm, data, fn, state_of):
    """``fn`` over state ids, each distribution's targets and then the
    distributions in the order of their printed text."""

    def simple(entries):
        pairs = ((state_of[t], v) for t, v in entries)
        return tuple(sorted(pairs, key=lambda pair: key(pair[0])))

    def key(state):
        return fm.ctx.text(fm.states[state])

    if len(data.layers) == 1:
        return simple(fn)

    def printed(dist):
        deeper = data.layers[1:]
        return fn_text(deeper, as_text(deeper, dist[0], key))

    return tuple(sorted(((simple(inner), v) for inner, v in fn), key=printed))


def test_criterion_03_totality_and_determinism():
    for lang in LANGS:
        start = time.monotonic()
        corpus = small_corpus(lang)
        assert len(corpus) >= 100
        for fm in corpus:
            # one stored continuation per (state, label), keyed by the table:
            # a valid source and label, and non-zero
            for data in fm.relations:
                for (source, label), step in data.transitions.items():
                    assert 0 <= source < len(fm.states) and label in data.labels
                    assert step
            # total: every (state, relation) evaluates to exactly one map
            # from labels to non-zero functions, evaluating again recomputes
            # a structurally identical result, and for every label the table
            # stores that function's state-id image (zero when the label is
            # absent), in the printed order of its targets
            model = fm.ctx
            specs = relation_specs(lang)
            state_of = {term: state for state, term in enumerate(fm.states)}
            for state, term in enumerate(fm.states):
                for spec, data in zip(specs, fm.relations):
                    once = futs_step(model, term, spec.name)
                    again = futs_step(model, term, spec.name)
                    assert once == again and once is not again
                    labels = relation_labels(spec, model)
                    assert set(once) <= set(labels)
                    assert all(once.values())
                    for label in labels:
                        fn = once.get(label, ())
                        assert data.function_at(state, label) == printed_image(
                            fm, data, fn, state_of
                        )
            # deterministic end to end: a fresh exploration is byte-identical
            assert to_json(explore(fresh_copy(model), max_states=2000)) == to_json(fm)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"{lang}: {elapsed:.1f}s (budget 60s per language)"
        print(f"criterion 3 [{lang}]: PASS — {len(corpus)} models, {elapsed:.1f}s")


def test_warm_step_memo_agrees_with_a_cold_one():
    # the exploring table has memoised the steps of every shared subterm;
    # the same model parsed into a fresh table walks each state's term from
    # scratch.  The memo is kept per relation, and one walk gives every
    # label, so one fresh table per state leaves each of its steps cold.
    # Ids differ between tables, so steps compare by target text.
    for lang in LANGS:
        start = time.monotonic()
        for fm in small_corpus(lang):
            warm = fm.ctx
            text = model_text(bodies(warm), tree(warm, warm.init))
            specs = relation_specs(lang)
            for term in fm.states:
                cold = parse_model(text, lang)
                cold_id = parse_term(warm.text(term), cold)
                for spec in specs:
                    assert steps_text(warm, term, spec.name) == steps_text(
                        cold, cold_id, spec.name
                    )
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"{lang}: {elapsed:.1f}s (budget 60s per language)"


# ---------------------------------------------------------------------------
# Criterion 4 — total action weight equals the syntactic apparent rate
# ---------------------------------------------------------------------------


def test_criterion_04_apparent_rate_totals():
    checked = 0
    for fm in small_corpus("pepa") + medium_corpus("pepa"):
        result = apparent_rate_check(fm, oracle_moves(fm))
        assert result.passed, result.failures[0]
        checked += result.checked
    assert checked > 0
    print(f"criterion 4: PASS — {checked} exact rate comparisons")


# ---------------------------------------------------------------------------
# Criterion 5 — target-for-target agreement of the two semantic routes
# ---------------------------------------------------------------------------


def test_criterion_05_semantics_agreement():
    for lang in LANGS:
        checked = 0
        for fm in small_corpus(lang) + medium_corpus(lang):
            result = agreement_check(fm, oracle_moves(fm))
            assert result.passed, f"{lang}: {result.failures[0]}"
            checked += result.checked
        assert checked > 0
        print(f"criterion 5 [{lang}]: PASS — {checked} function comparisons")


# ---------------------------------------------------------------------------
# Criterion 6 — refinement equals the derivation-oracle partition
# ---------------------------------------------------------------------------


def test_criterion_06_bisimilarity_correspondence():
    for lang in LANGS:
        start = time.monotonic()
        corpus = medium_corpus(lang)
        assert len(corpus) >= 200
        for fm in corpus:
            assert len(fm.states) <= 200
            assert refine(fm) == oracle_partition_from(oracle_moves(fm)), fm.ctx.pretty(fm.states[0])
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"{lang}: {elapsed:.1f}s (budget 120s per language)"
        print(f"criterion 6 [{lang}]: PASS — {len(corpus)} models, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 7 — refinement equals brute-force partition enumeration
# ---------------------------------------------------------------------------


def test_criterion_07_refinement_vs_brute_force():
    start = time.monotonic()
    total = 0
    nested_seen = 0
    for lang in LANGS:
        for fm in tiny_corpus(lang):
            assert len(fm.states) <= 8
            assert refine(fm) == brute_force(fm)
            total += 1
            if any(len(d.layers) > 1 and d.transitions for d in fm.relations):
                nested_seen += 1
    elapsed = time.monotonic() - start
    assert total >= 500
    assert nested_seen > 0, "corpus must include nested weight functions"
    assert elapsed < 60.0, f"{elapsed:.1f}s (budget 60s)"
    print(
        f"criterion 7: PASS — {total} models ({nested_seen} with nested "
        f"functions), {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 8 — structural invariants, zero violations
# ---------------------------------------------------------------------------


def test_criterion_08_structural_invariants():
    singleton = determinism = descent = 0
    for fm in small_corpus("tpc") + medium_corpus("tpc"):
        result = tick_singleton_check(fm)
        assert result.passed, result.failures[0]
        singleton += result.checked
        result = time_determinism_check(fm, oracle_moves(fm))
        assert result.passed, result.failures[0]
        determinism += result.checked
        result = md_descent_check(fm)
        assert result.passed, result.failures[0]
        descent += result.checked
    masses = 0
    for fm in small_corpus("mal") + medium_corpus("mal"):
        result = distribution_check(fm)
        assert result.passed, result.failures[0]
        masses += result.checked
    assert min(singleton, determinism, descent, masses) > 0
    print(
        "criterion 8: PASS — "
        f"{singleton} singleton checks, {determinism} timed moves, "
        f"{descent} descent checks, {masses} distributions"
    )


# ---------------------------------------------------------------------------
# Criterion 9 — multiplicity semantics through the command line
# ---------------------------------------------------------------------------


def test_criterion_09_cli_multiplicity(tmp_path, capsys):
    pepa_file = tmp_path / "m.pepa"
    pepa_file.write_text("P = (a, 1).P\ninit P\n")

    code = cli_main(
        [
            "bisim",
            str(pepa_file),
            "--left",
            "(a,1).P",
            "--right",
            "(a,1).P + (a,1).P",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0] == "NOT BISIMILAR"

    iml_file = tmp_path / "m.iml"
    iml_file.write_text("init nil\n")
    code = cli_main(
        ["bisim", str(iml_file), "--left", "a.nil + a.nil", "--right", "a.nil"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "BISIMILAR"

    code = cli_main(
        [
            "bisim",
            str(tmp_path / "m.pepa"),
            "--left",
            "(a,1).nil + (a,1).nil",
            "--right",
            "(a,2).nil",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "BISIMILAR"
    print("criterion 9: PASS — CLI verdicts and exit codes as specified")


# ---------------------------------------------------------------------------
# Criterion 10 — quotient soundness
# ---------------------------------------------------------------------------


def test_criterion_10_quotient_soundness():
    total = 0
    for lang in LANGS:
        for fm in medium_corpus(lang)[:25]:
            partition = refine(fm)
            quotient = minimize(fm, partition)
            union = refine(disjoint_union(fm, quotient))
            offset = len(fm.states)
            for state in range(offset):
                image = offset + partition.assignment[state]
                assert union.assignment[state] == union.assignment[image]
            # the quotient admits no further refinement
            assert refine(quotient).n_blocks == len(quotient.states)
            total += 1
    assert total == 100
    print(f"criterion 10: PASS — {total} models quotiented and re-checked")
