"""Bisimilarity: refinement, brute force, oracle partition, quotients."""

import random

import pytest

from futsbench import bisim, crosscheck
from futsbench.bisim import (
    Partition,
    Witness,
    _state_signature,
    canonical_assignment,
    distinguish,
    minimize,
    refine,
)
from futsbench.crosscheck import oracle_moves, oracle_partition_from
from futsbench.errors import ExplorationLimitError, FutsError, UnknownStateError
from futsbench.explore import explore
from futsbench.syntax import parse_model, parse_term

from bisimref import (
    BRUTE_FORCE_MAX,
    _refine_loop,
    brute_force,
    disjoint_union,
    naive_oracle_partition,
)
from idtext import fn_text, stored_text
from modelgen import build_corpus, random_model

GOLDEN_PEPA = """
S0 = (a, 1/2).S0 + (a, 1/2).S1
S1 = (a, 1/2).S1 + (a, 1/2).S2 + (b, 1/6).S0 + (b, 1/2).S2 + (b, 1/3).S3
S2 = (a, 1/2).S2 + (a, 1/2).S3
S3 = (a, 1/2).S0 + (a, 1/2).S3
init S0
"""


def explored(text, lang, roots=()):
    model = parse_model(text, lang)
    root_terms = [parse_term(t, model) for t in roots]
    fm = explore(model, extra_roots=root_terms)
    ids = [fm.index[model.text(t)] for t in root_terms]
    return fm, ids


# ---------------------------------------------------------------------------
# Partition plumbing
# ---------------------------------------------------------------------------


def test_canonical_assignment_orders_blocks_by_least_member():
    assert canonical_assignment([5, 2, 5, 7, 2]) == (0, 1, 0, 2, 1)


def test_partition_accessors_and_json():
    p = Partition((0, 1, 0, 2))
    assert p.n_blocks == 3


# ---------------------------------------------------------------------------
# Rate-aware equalities and inequalities (weighted choice)
# ---------------------------------------------------------------------------


def test_pepa_split_choice_equals_double_rate():
    fm, (l, r) = explored(
        "init nil\n", "pepa", roots=["(a,1).nil + (a,1).nil", "(a,2).nil"]
    )
    assert distinguish(fm, l, r) is None


def test_pepa_split_choice_not_equal_to_single_rate():
    fm, (l, r) = explored(
        "init nil\n", "pepa", roots=["(a,1).nil + (a,1).nil", "(a,1).nil"]
    )
    assert distinguish(fm, l, r) is not None


def test_pepa_self_loop_doubling_detected():
    text = "P = (a, 1).P\ninit P\n"
    fm, (l, r) = explored(text, "pepa", roots=["(a,1).P", "(a,1).P + (a,1).P"])
    w = distinguish(fm, l, r)
    assert w is not None
    assert w.relation == "act"
    assert w.label == "a"
    assert w.subject.startswith("block ")
    assert {w.left, w.right} == {"1/1", "2/1"}


def test_chain_witness_takes_the_lowest_numbered_block():
    fm = chain_model(12)
    c1, c9 = fm.index["C1"], fm.index["C9"]
    # block 2 holds C2 and block 10 holds C10; as text, "block 10" sorts first
    assert distinguish(fm, c1, c9) == Witness("act", "a", "block 2", "1/1", "0/1")
    assert distinguish(fm, c9, c1) == Witness("act", "a", "block 2", "0/1", "1/1")


def test_pepa_prefix_term_equals_constant_unfolding():
    text = "P = (a, 1).P\ninit P\n"
    fm, (l,) = explored(text, "pepa", roots=["(a,1).P"])
    assert distinguish(fm, l, fm.init_id) is None


def test_golden_model_blocks():
    fm, _ = explored(GOLDEN_PEPA, "pepa")
    p = refine(fm)
    s = {k: p.assignment[fm.index[k]] for k in ("S0", "S1", "S2", "S3")}
    # S1 is the only state with b-moves, so it sits alone.
    assert [s["S0"], s["S2"], s["S3"]].count(s["S1"]) == 0
    assert p == brute_force(fm)
    assert p == oracle_partition_from(oracle_moves(fm))


# ---------------------------------------------------------------------------
# Interactive idempotence, delay rates, timed lockstep
# ---------------------------------------------------------------------------


def test_iml_choice_idempotent_for_actions():
    fm, (l, r) = explored("init nil\n", "iml", roots=["a.nil + a.nil", "a.nil"])
    assert distinguish(fm, l, r) is None


def test_iml_delay_rates_add_up():
    fm, ids = explored(
        "init nil\n",
        "iml",
        roots=["1/2 . nil + 1/2 . nil", "1 . nil", "1/2 . nil"],
    )
    both, single, half = ids
    assert distinguish(fm, both, single) is None
    w = distinguish(fm, both, half)
    assert w is not None
    assert w.relation == "delay"
    assert w.label == "delta"
    assert {w.left, w.right} == {"1/1", "1/2"}


def test_iml_witness_takes_the_first_differing_part():
    fm, (l, r) = explored("init nil\n", "iml", roots=["a.nil + 1 . nil", "b.nil + 2 . nil"])
    # the a, b and delay parts all differ; relations come first, then labels
    assert distinguish(fm, l, r) == Witness("act", "a", "block 0", "true", "false")


def test_tpc_sequential_delays_flatten():
    fm, (l, r) = explored("init nil\n", "tpc", roots=["(1).(2).nil", "(3).nil"])
    assert distinguish(fm, l, r) is None


def test_tpc_choice_of_equal_delays():
    fm, (l, r) = explored("init nil\n", "tpc", roots=["(2).nil + (2).nil", "(2).nil"])
    assert distinguish(fm, l, r) is None
    assert refine(fm) == brute_force(fm)


def test_tpc_different_delays_distinguished():
    fm, (l, r) = explored("init nil\n", "tpc", roots=["(2).a.nil", "(3).a.nil"])
    assert distinguish(fm, l, r) == Witness("tick", "tick", "block 1", "{}", "{1}")


# ---------------------------------------------------------------------------
# Nested lifting (distributions compared by per-block mass)
# ---------------------------------------------------------------------------

MAL_LIFT = """
B1 = c.{1: nil}
B2 = c.{1: nil} + c.{1: nil}
A = a.{1/2: B1 [] 1/2: B2}
C = a.{1: B1}
D = a.{1/2: B1 [] 1/2: nil}
init A
"""


def test_mal_lifting_identifies_blockwise_equal_distributions():
    fm, ids = explored(MAL_LIFT, "mal", roots=["B1", "B2", "A", "C", "D"])
    b1, b2, a, c, d = ids
    assert distinguish(fm, b1, b2) is None
    assert distinguish(fm, a, c) is None
    w = distinguish(fm, a, d)
    assert w is not None
    assert w.relation == "act"
    assert w.label == "a"
    assert w.subject.startswith("distribution [")


def test_mal_witness_takes_classes_in_printed_order():
    fm, (l, r) = explored(
        "X = b.{1: nil}\ninit nil\n",
        "mal",
        roots=["a.{1/2: nil [] 1/2: X} + a.{1/3: nil [] 2/3: X}", "a.{1/4: nil [] 3/4: X}"],
    )
    w = distinguish(fm, l, r)
    # nil (block 0) has mass 1/2, 1/3 and 1/4 in the three distributions;
    # "1/2" comes first as text, though not as a number
    assert w.subject == "distribution [block 0 -> 1/2, block 3 -> 1/2]"
    assert (w.left, w.right) == ("true", "false")


def test_mal_refine_matches_brute_force_and_oracle():
    fm, _ = explored(MAL_LIFT, "mal", roots=["B1", "B2", "A", "C", "D"])
    p = refine(fm)
    assert p == brute_force(fm)
    assert p == oracle_partition_from(oracle_moves(fm))


# ---------------------------------------------------------------------------
# The oracle partition's first split and signature rules
# ---------------------------------------------------------------------------


def oracle_partition(fm):
    """The oracle's partition, checked against `refine`'s."""
    p = oracle_partition_from(oracle_moves(fm))
    assert p == refine(fm)
    return p


def test_oracle_first_split_separates_a_distribution_from_deadlock():
    # the one distribution has mass 1 into the one first block, like every
    # distribution, so only the first signatures tell it from deadlock
    roots = ["c.{2/5: X0 [] 3/5: X0}", "X0"]
    fm, _ = explored("X0 = nil\ninit X0\n", "mal", roots=roots)
    assert oracle_partition(fm).n_blocks == len(fm.states) == 2


def test_oracle_interactive_moves_count_presence_not_multiplicity():
    text = "X = b.X\nY = b.Y\ninit X\n"
    fm, (both, one, x, y) = explored(text, "iml", roots=["a.X + a.Y", "a.X", "X", "Y"])
    p = oracle_partition(fm)
    assert p.n_blocks == 2
    assert p.assignment[x] == p.assignment[y]
    assert p.assignment[both] == p.assignment[one]


def test_oracle_tick_amounts_into_one_block_match():
    text = "X = a.X\nY = a.Y\ninit X\n"
    fm, (wx, wy, longer) = explored(text, "tpc", roots=["(1).X", "(1).Y", "(2).X"])
    a = oracle_partition(fm).assignment
    assert a[wx] == a[wy]
    assert a[longer] != a[wx]


# ---------------------------------------------------------------------------
# Brute force guard rails
# ---------------------------------------------------------------------------


def test_brute_force_size_cap():
    text = "\n".join(f"X{i} = (a, 1).X{i + 1}" for i in range(BRUTE_FORCE_MAX + 2))
    text += f"\nX{BRUTE_FORCE_MAX + 2} = nil\ninit X0\n"
    fm = explore(parse_model(text, "pepa"))
    assert len(fm.states) > BRUTE_FORCE_MAX
    with pytest.raises(ValueError):
        brute_force(fm)


def test_invalid_state_ids_rejected():
    fm, _ = explored("init nil\n", "pepa")
    with pytest.raises(UnknownStateError):
        distinguish(fm, 0, 5)
    with pytest.raises(UnknownStateError):
        distinguish(fm, -1, 0)


# ---------------------------------------------------------------------------
# Random agreement: refine == brute force == oracle partition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_refine_agrees_with_brute_force_on_small_models(lang):
    checked = 0
    seed = 0
    while checked < 25:
        seed += 1
        model = random_model(random.Random(f"{lang}-{seed}-bf"), lang, max_consts=2, depth=2)
        try:
            fm = explore(model, max_states=BRUTE_FORCE_MAX)
        except ExplorationLimitError:
            continue
        p = refine(fm)
        assert p == brute_force(fm), f"{lang} seed {seed}"
        checked += 1


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_refine_agrees_with_oracle_partition(lang):
    checked = 0
    seed = 0
    while checked < 25:
        seed += 1
        model = random_model(
            random.Random(f"{lang}-{seed}-oracle"), lang, max_consts=3, depth=3
        )
        try:
            fm = explore(model, max_states=200)
        except ExplorationLimitError:
            continue
        assert refine(fm) == oracle_partition_from(oracle_moves(fm)), f"{lang} seed {seed}"
        checked += 1


# ---------------------------------------------------------------------------
# The worklist engine against the round-based reference loop
# ---------------------------------------------------------------------------


def reference_partition(fm):
    return _refine_loop(
        len(fm.states), lambda state_id, a: _state_signature(fm.relations, state_id, a)
    )


def chain_model(n):
    """One PEPA cycle of n distinct states, C0 -a-> C1 -a-> ... -b-> C0."""
    lines = [f"C{i} = (a, 1).C{i + 1}" for i in range(n - 1)]
    lines.append(f"C{n - 1} = (b, 1).C0")
    return explore(parse_model("\n".join(lines) + "\ninit C0\n", "pepa"))


def mal_chain_model(depth):
    """One MAL distribution chain a.{1: a.{1: ... nil}} (depth + 1 blocks)."""
    term = "a.{1: " * depth + "nil" + "}" * depth
    return explore(parse_model(f"init {term}\n", "mal"))


def par_model(n):
    """n independent two-state PEPA components (2^n states, n + 1 blocks)."""
    lines = []
    for i in range(n):
        lines += [f"P{i} = (a, 1).Q{i}", f"Q{i} = (b, 2).P{i}"]
    lines.append("init " + " <> ".join(f"P{i}" for i in range(n)))
    return explore(parse_model("\n".join(lines) + "\n", "pepa"))


@pytest.mark.parametrize("lang", ["pepa", "iml", "tpc", "mal"])
def test_refine_agrees_with_reference_loop_on_corpora(lang):
    corpus = build_corpus(lang, 60, 8, "worklist-tiny", depth=2, max_consts=2)
    corpus += build_corpus(
        lang, 60, 200, "worklist", depth=5, max_consts=5, max_par=4, max_def_par=0,
        min_states=2,
    )
    for fm in corpus:
        assert refine(fm) == reference_partition(fm), fm.states[0].pretty
        moves = oracle_moves(fm)
        assert oracle_partition_from(moves) == naive_oracle_partition(moves), (
            fm.states[0].pretty
        )
    if lang == "mal":
        assert any(
            data.kind == "nested" and data.transitions
            for fm in corpus
            for data in fm.relations
        )


@pytest.mark.parametrize(
    "make, n, blocks", [(chain_model, 300, 300), (par_model, 7, 8), (mal_chain_model, 300, 301)]
)
def test_refine_agrees_with_reference_loop_beyond_brute_force(make, n, blocks):
    fm = make(n)
    assert len(fm.states) > BRUTE_FORCE_MAX
    p = refine(fm)
    assert p.n_blocks == blocks
    assert p == reference_partition(fm)
    moves = oracle_moves(fm)
    assert oracle_partition_from(moves) == naive_oracle_partition(moves)


@pytest.mark.parametrize(
    "make, n, blocks",
    [(chain_model, 1000, 1000), (par_model, 10, 11), (mal_chain_model, 1000, 1001)],
)
def test_oracle_partition_beyond_the_reference_loop(make, n, blocks):
    assert oracle_partition(make(n)).n_blocks == blocks


def test_refine_re_signs_only_predecessors_of_moved_states(monkeypatch):
    n = 2000
    fm = chain_model(n)
    calls = 0

    def counting(relations, state_id, assignment):
        nonlocal calls
        calls += 1
        return _state_signature(relations, state_id, assignment)

    monkeypatch.setattr(bisim, "_state_signature", counting)
    p = refine(fm)
    assert p.n_blocks == n
    # one full pass, then one predecessor per split; a round-based loop
    # re-signs all n states in each of about n rounds
    assert calls <= 4 * n


def test_oracle_partition_re_signs_only_predecessors_of_moved_states(monkeypatch):
    signature = crosscheck._oracle_signature
    calls = 0

    def counting(shapes, row, block_of):
        nonlocal calls
        calls += 1
        return signature(shapes, row, block_of)

    monkeypatch.setattr(crosscheck, "_oracle_signature", counting)

    def signed(fm, blocks):
        nonlocal calls
        calls = 0
        assert oracle_partition_from(oracle_moves(fm)).n_blocks == blocks
        return calls

    # one level of a nested chain splits off at a time; the work must stay
    # linear in the depth, not grow with depth times the number of splits
    counts = [signed(mal_chain_model(depth), depth + 1) for depth in (500, 1000, 2000)]
    assert all(later <= 2.5 * earlier for earlier, later in zip(counts, counts[1:]))
    n = 2000
    assert signed(chain_model(n), n) <= 4 * n


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def test_minimize_folds_split_choice():
    fm, (root,) = explored("init nil\n", "pepa", roots=["(a,1).nil + (a,1).nil"])
    p = refine(fm)
    q = minimize(fm, p)
    assert len(q.states) == p.n_blocks
    qid = p.assignment[root]
    fn = stored_text(q, q.relations[0], qid, "a")
    assert len(fn.entries) == 1
    key, value = fn.entries[0]
    assert key == "nil"
    assert value == 2


def test_minimize_rejects_unstable_partition():
    fm, ids = explored("init nil\n", "pepa", roots=["(a,1).nil"])
    n = len(fm.states)
    assert n >= 2
    with pytest.raises(FutsError, match="not stable"):
        minimize(fm, Partition(tuple([0] * n)))


def test_minimize_rejects_wrong_size():
    fm, _ = explored("init nil\n", "pepa")
    with pytest.raises(FutsError, match="covers"):
        minimize(fm, Partition((0, 0)))


def test_quotient_is_already_minimal():
    fm, _ = explored(GOLDEN_PEPA, "pepa")
    p = refine(fm)
    q = minimize(fm, p)
    assert refine(q).n_blocks == len(q.states)


def test_quotient_states_bisimilar_to_their_images():
    for lang in ("pepa", "iml", "tpc", "mal"):
        fm = None
        for seed in range(1, 40):
            model = random_model(
                random.Random(f"{lang}-{seed}-quot"), lang, max_consts=3, depth=3
            )
            try:
                candidate = explore(model, max_states=150)
            except ExplorationLimitError:
                continue
            if len(candidate.states) >= 2:
                fm = candidate
                break
        assert fm is not None, f"no usable {lang} model found"
        p = refine(fm)
        q = minimize(fm, p)
        u = disjoint_union(fm, q)
        pu = refine(u)
        offset = len(fm.states)
        for state in fm.states:
            image = offset + p.assignment[state.id]
            assert pu.assignment[state.id] == pu.assignment[image]


def test_disjoint_union_rejects_mismatched_systems():
    fm_pepa, _ = explored("init nil\n", "pepa")
    fm_iml, _ = explored("init nil\n", "iml")
    with pytest.raises(FutsError):
        disjoint_union(fm_pepa, fm_iml)


def test_nested_quotient_merges_inner_targets():
    fm, ids = explored(MAL_LIFT, "mal", roots=["B1", "B2", "A", "C"])
    p = refine(fm)
    q = minimize(fm, p)
    a_block = p.assignment[ids[2]]
    fn = stored_text(q, q.relations[0], a_block, "a")
    assert len(fn.entries) == 1
    inner, outer = fn.entries[0]
    # Both halves of A's distribution landed in the same block.
    assert len(inner.entries) == 1
    assert inner.entries[0][1] == 1

    # two distributions that differ only in bisimilar targets fold into one
    fm, (a,) = explored(
        "B1 = c.{1: nil}\nB2 = c.{1: nil} + c.{1: nil}\n"
        "A = a.{1/2: B1 [] 1/2: nil} + a.{1/2: B2 [] 1/2: nil}\ninit A\n",
        "mal",
        roots=["A"],
    )
    p = refine(fm)
    assert (len(fm.states), p.n_blocks) == (4, 3)
    q = minimize(fm, p)
    fn = stored_text(q, q.relations[0], p.assignment[a], "a")
    assert [(fn_text(inner), outer) for inner, outer in fn.entries] == [
        ("[B1 -> 1/2, nil -> 1/2]", True)
    ]
