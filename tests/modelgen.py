"""Seeded random generators shared by the test suite.

Everything here is deterministic given the caller's ``random.Random``
instance, so failures reproduce exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from futsbench.semiring import BOOL, NATSET, NNRAT, TOP


# every weight domain, for tests that run on each
SEMIRINGS = (BOOL, NNRAT, NATSET)


def random_value(rng: random.Random, sr):
    """A random payload of the weight domain ``sr``, in the library's form
    (a rational is an ``int`` when integral)."""
    if sr is BOOL:
        return rng.random() < 0.5
    if sr is NNRAT:
        value = Fraction(rng.randint(0, 20), rng.randint(1, 12))
        return value.numerator if value.denominator == 1 else value
    if sr is NATSET:
        roll = rng.random()
        if roll < 0.1:
            return TOP
        size = rng.randint(0, 5)
        return frozenset(rng.randint(0, 9) for _ in range(size))
    raise ValueError(sr)


def random_fn(rng: random.Random, sr, keys=None) -> tuple:
    """A random finite-support function over ``sr`` and string keys."""
    from futsbench.fsfun import ff_make

    if keys is None:
        keys = [f"P{i}" for i in range(8)]
    size = rng.randint(0, 4)
    pairs = [(rng.choice(keys), random_value(rng, sr)) for _ in range(size)]
    return ff_make(sr, pairs)


# ---------------------------------------------------------------------------
# Random process terms and models
# ---------------------------------------------------------------------------
#
# Generated models are guarded by construction: a constant reference is
# either protected by a prefix that the semantics never unfolds through,
# or it may only point to an earlier constant, so every reference chain
# terminates.  For the timed language, deterministic-delay prefixes are
# treated like unprotected positions (their timed behaviour unfolds
# through the continuation), which also rules out delay-only recursion.

from futsbench.syntax import (
    ActPrefix,
    Choice,
    Const,
    Coop,
    Model,
    Nil,
    Par,
    ProbPrefix,
    RatedPrefix,
    RatePrefix,
    TimePrefix,
    children,
    map_children,
    parse_model,
    term_key,
)

ACTIONS = ("a", "b", "c")


def _random_rate(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 4))


def _random_action_set(rng: random.Random) -> frozenset:
    return frozenset(a for a in ACTIONS if rng.random() < 0.35)


def _random_distribution(rng: random.Random, size: int):
    weights = [rng.randint(1, 5) for _ in range(size)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_term(
    rng: random.Random,
    lang: str,
    n_consts: int,
    cur_index: int,
    guarded: bool = False,
    depth: int = 3,
):
    """A random term of the given language.

    ``guarded`` is true when the position is protected by a prefix the
    semantics never unfolds through; only then may the term reference
    constants with index >= ``cur_index``.
    """

    def leaf():
        limit = n_consts if guarded else cur_index
        if limit > 0 and rng.random() < 0.5:
            return Const(f"X{rng.randint(0, limit - 1)}")
        return Nil()

    if depth <= 0 or rng.random() < 0.2:
        return leaf()

    def sub(g: bool = None, d: int = None):
        return random_term(
            rng,
            lang,
            n_consts,
            cur_index,
            guarded if g is None else g,
            depth - 1 if d is None else d,
        )

    if lang == "pepa":
        kinds = ("rated", "rated", "choice", "coop")
    elif lang == "iml":
        kinds = ("act", "act", "rate", "choice", "par")
    elif lang == "tpc":
        kinds = ("act", "act", "time", "choice", "par")
    elif lang == "mal":
        kinds = ("prob", "prob", "rate", "choice", "par")
    else:
        raise ValueError(lang)
    kind = rng.choice(kinds)
    if kind == "rated":
        return RatedPrefix(rng.choice(ACTIONS), _random_rate(rng), sub(g=True))
    if kind == "act":
        return ActPrefix(rng.choice(ACTIONS), sub(g=True))
    if kind == "rate":
        return RatePrefix(_random_rate(rng), sub(g=True))
    if kind == "time":
        # the timed step unfolds through the continuation, so delay
        # prefixes do not count as protection
        return TimePrefix(rng.randint(1, 3), sub())
    if kind == "prob":
        size = rng.randint(1, 3)
        probs = _random_distribution(rng, size)
        branches = tuple((p, sub(g=True)) for p in probs)
        return ProbPrefix(rng.choice(ACTIONS), branches)
    if kind == "choice":
        return Choice(sub(), sub())
    if kind == "coop":
        return Coop(_random_action_set(rng), sub(), sub())
    if kind == "par":
        return Par(_random_action_set(rng), sub(), sub())
    raise AssertionError(kind)


def random_model_terms(rng: random.Random, lang: str, max_consts: int = 4, depth: int = 3):
    """The definitions (by name) and initial term of a random well-formed,

    guarded model, as trees.
    """
    n_consts = rng.randint(1, max_consts)
    defs = {}
    for i in range(n_consts):
        defs[f"X{i}"] = random_term(rng, lang, n_consts, i, guarded=False, depth=depth)
    init = random_term(rng, lang, n_consts, n_consts, guarded=False, depth=depth)
    return defs, init


def model_text(defs: dict, init) -> str:
    """The model file with these definitions and initial term (trees)."""
    lines = [f"{name} = {term_key(body)}\n" for name, body in defs.items()]
    return "".join(lines) + f"init {term_key(init)}\n"


def model_of(lang: str, defs: dict, init) -> Model:
    """The model with these definitions and initial term, parsed from their

    canonical text, so its table interns every node.
    """
    return parse_model(model_text(defs, init), lang)


def tree(model: Model, term_id: int):
    """The term ``term_id`` of ``model``'s table as a tree of nodes, built
    recursively: the reference that the table's texts are checked against.
    The library reads terms one shape at a time and never builds one."""
    return map_children(model.shape(term_id), lambda sub: tree(model, sub))


def bodies(model: Model) -> dict:
    """Each constant's body as a tree (:func:`tree`), by name."""
    return {name: tree(model, body) for name, body in model.defs.items()}


def fresh_copy(model: Model) -> Model:
    """The same model parsed again, into a table of its own."""
    return model_of(model.lang, bodies(model), tree(model, model.init))


def random_model(
    rng: random.Random, lang: str, max_consts: int = 4, depth: int = 3
) -> Model:
    """A random well-formed, guarded model."""
    return model_of(lang, *random_model_terms(rng, lang, max_consts, depth))


# ---------------------------------------------------------------------------
# Deterministic corpora of explored models
# ---------------------------------------------------------------------------


def count_parallel(terms) -> int:
    """How many parallel-composition nodes the trees ``terms`` contain."""
    count = 0
    stack = list(terms)
    while stack:
        term = stack.pop()
        count += isinstance(term, (Coop, Par))
        stack.extend(children(term))
    return count


def build_corpus(
    lang: str,
    count: int,
    max_states: int,
    tag: str,
    depth: int = 3,
    max_consts: int = 3,
    max_par: int = 2,
    max_def_par: int = None,
    min_states: int = 1,
):
    """Explore `count` random models of the language, deterministically.

    Models that exceed the state bound are skipped.  Interleaving is the
    only source of combinatorial blowup, and a parallel composition inside
    a recursive definition can re-compose with itself on every unfolding,
    so a single continuation function may become astronomically wide long
    before the state cap can trigger.  Caps on the syntactic parallel
    degree (and, for larger corpora, a ban on parallelism inside
    definitions via ``max_def_par=0``) keep the cost of generating and
    rejecting candidates predictable.
    """
    from futsbench.errors import ExplorationLimitError
    from futsbench.explore import explore

    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        defs, init = random_model_terms(
            random.Random(f"{lang}-{tag}-{seed}"), lang, max_consts=max_consts, depth=depth
        )
        if count_parallel([*defs.values(), init]) > max_par:
            continue
        if max_def_par is not None and count_parallel(defs.values()) > max_def_par:
            continue
        try:
            fm = explore(model_of(lang, defs, init), max_states=max_states)
        except ExplorationLimitError:
            continue
        if len(fm.states) < min_states:
            continue
        out.append(fm)
    return out
