"""Seeded model generators and the expected answers for every workload.

Each workload draws its models from a fixed *pool*.  A pool entry is
model text that never changes, so the digests of its ``build`` and
``minimize`` JSON can be recorded once (``digests.json``) and checked on
every later run.  The seed picks the pool entry (the two rates of
``pepa-par`` and ``pepa-chain``), the ``bisim`` queries,
and the order of the files; the same seed always gives the same files.
``mixed-corpus`` runs its whole pool of 80 models on every seed: a
random subset would move the pass cost by about 5% from seed to seed,
more than a third of the bound on its timings.

Every ``bisim`` query has a verdict known by construction:

* ``pepa-par``: states of N independent two-state components are
  bisimilar exactly when the same number of components is in its second
  state (N+1 blocks over 2^N states);
* ``pepa-chain``: a constant is bisimilar to its own unfolding, and no
  two chain positions are bisimilar (N blocks over N states);
* ``mixed-corpus``: reordering the operands of a composition keeps the
  verdict positive; a duplicated prefix doubles a Markovian weight
  (negative) but is idempotent for booleans (positive), as in the
  CLI multiplicity criterion.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("pepa-par", "pepa-chain", "mixed-corpus")
LANGS = ("pepa", "iml", "tpc", "mal")

PAR_N = 10
CHAIN_N = 500
# the (a, b) rate pairs a seed chooses from, for par-N and chain-N alike
RATES = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1))
MIXED_PER_SHAPE = 5  # models per (language, component count): 4 x 4 x 5 = 80


@dataclass(frozen=True)
class Query:
    left: str
    right: str
    bisimilar: bool


@dataclass(frozen=True)
class ModelSpec:
    """One generated model file and what the CLI must answer about it."""

    name: str  # file stem, unique within a workload
    lang: str  # also the file extension
    text: str
    queries: Tuple[Query, ...] = ()
    states: Optional[int] = None  # hand-derived count, where one exists
    blocks: Optional[int] = None

    @property
    def filename(self) -> str:
        return f"{self.name}.{self.lang}"


# ---------------------------------------------------------------------------
# par-N and chain-N (the ROADMAP baseline families)
# ---------------------------------------------------------------------------


def par_text(n: int, rate_a: int = 1, rate_b: int = 2) -> str:
    lines = []
    for i in range(n):
        lines.append(f"P{i} = (a, {rate_a}).Q{i}")
        lines.append(f"Q{i} = (b, {rate_b}).P{i}")
    lines.append("init " + " <> ".join(f"P{i}" for i in range(n)))
    return "\n".join(lines) + "\n"


def chain_text(n: int, rate_a: int = 1, rate_b: int = 1) -> str:
    lines = [f"C{i} = (a, {rate_a}).C{i + 1}" for i in range(n - 1)]
    lines.append(f"C{n - 1} = (b, {rate_b}).C0")
    lines.append("init C0")
    return "\n".join(lines) + "\n"


def par_model(n: int, rates: Tuple[int, int] = (1, 2)) -> ModelSpec:
    return ModelSpec(
        f"par{n}-a{rates[0]}-b{rates[1]}",
        "pepa",
        par_text(n, *rates),
        states=2**n,
        blocks=n + 1,
    )


def chain_model(n: int, rates: Tuple[int, int] = (1, 1)) -> ModelSpec:
    # One rate on every link keeps the states locally alike, so refinement
    # needs about n rounds to tell them apart by their distance to ``b``.
    return ModelSpec(
        f"chain{n}-a{rates[0]}-b{rates[1]}",
        "pepa",
        chain_text(n, *rates),
        states=n,
        blocks=n,
    )


def _par_queries(rng: random.Random, n: int) -> Tuple[Query, ...]:
    def state(k: int) -> str:
        chosen = set(rng.sample(range(n), k))
        return " <> ".join(f"Q{i}" if i in chosen else f"P{i}" for i in range(n))

    # positive: two different states with the same number of Q components
    k = rng.randint(1, n - 1)
    left = state(k)
    right = state(k)
    while right == left:
        right = state(k)
    # negative: different numbers of Q components
    k1, k2 = rng.sample(range(n + 1), 2)
    return (Query(left, right, True), Query(state(k1), state(k2), False))


def _chain_queries(rng: random.Random, n: int, rate_a: int) -> Tuple[Query, ...]:
    i = rng.randrange(n - 1)
    positive = Query(f"C{i}", f"(a, {rate_a}).C{i + 1}", True)
    i, j = rng.sample(range(n), 2)
    return (positive, Query(f"C{i}", f"C{j}", False))


# ---------------------------------------------------------------------------
# mixed-corpus: small multi-component models in all four languages
# ---------------------------------------------------------------------------

_RATES = ("1", "2", "3", "1/2", "3/2")
_DISTS = (("1",), ("1/2", "1/2"), ("1/3", "2/3"), ("1/4", "3/4"))
_SYNC = "a"  # the shared action every composition synchronises on
_LOCAL = ("a", "b", "c")
# States per component, by component count: keeps products small, so that
# no single model dominates the corpus and the draw barely moves its cost.
_MAX_SIZE = {1: 4, 2: 4, 3: 3, 4: 2}


def _pepa_body(rng, const) -> str:
    return " + ".join(
        f"({rng.choice(_LOCAL)}, {rng.choice(_RATES)}).{const()}"
        for _ in range(rng.randint(1, 2))
    )


def _iml_body(rng, const) -> str:
    parts = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            parts.append(f"{rng.choice(_LOCAL)}.{const()}")
        else:
            parts.append(f"{rng.choice(_RATES)}.{const()}")
    return " + ".join(parts)


def _tpc_body(rng, const) -> str:
    # A delay is always followed by an action prefix, so no recursion
    # runs through delays alone.  A choice ticks only if every branch
    # can, so delayed states use delay prefixes on every branch.
    count = rng.randint(1, 2)
    if rng.random() < 0.5:
        return " + ".join(f"{rng.choice(_LOCAL)}.{const()}" for _ in range(count))
    return " + ".join(
        f"({rng.randint(1, 3)}).{rng.choice(_LOCAL)}.{const()}" for _ in range(count)
    )


def _mal_body(rng, const) -> str:
    parts = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.6:
            dist = rng.choice(_DISTS)
            branches = " [] ".join(f"{p}: {const()}" for p in dist)
            parts.append(f"{rng.choice(_LOCAL)}.{{{branches}}}")
        else:
            parts.append(f"{rng.choice(_RATES)}.{const()}")
    return " + ".join(parts)


_BODIES = {"pepa": _pepa_body, "iml": _iml_body, "tpc": _tpc_body, "mal": _mal_body}


def _compose(lang: str, operands: List[str]) -> str:
    op = f" <{_SYNC}> " if lang == "pepa" else f" |[{_SYNC}]| "
    return op.join(operands)


def mixed_text(lang: str, components: int, entry: int) -> str:
    rng = random.Random(f"mixed-{lang}-{components}-{entry}")
    lines = []
    for i in range(components):
        size = rng.randint(2, _MAX_SIZE[components])

        def const(i=i, size=size) -> str:
            return f"S{i}_{rng.randrange(size)}"

        for j in range(size):
            lines.append(f"S{i}_{j} = {_BODIES[lang](rng, const)}")
    lines.append("init " + _compose(lang, [f"S{i}_0" for i in range(components)]))
    return "\n".join(lines) + "\n"


def _duplicate_pair(lang: str, target: str, positive: bool) -> Query:
    """The multiplicity pair: a prefix written twice against written once."""
    if lang == "pepa":
        twice = f"(b, 1).{target} + (b, 1).{target}"
        return Query(twice, f"(b, 2).{target}" if positive else f"(b, 1).{target}", positive)
    if lang == "mal":
        once = f"b.{{1: {target}}}" if positive else f"1.{target}"
    elif lang == "iml":
        once = f"b.{target}" if positive else f"1.{target}"
    else:  # tpc: booleans only, so the negative pair differs in its action
        if not positive:
            return Query(f"b.{target}", f"c.{target}", False)
        once = f"b.{target}"
    return Query(f"{once} + {once}", once, positive)


def _mixed_queries(rng: random.Random, spec: ModelSpec) -> Tuple[Query, ...]:
    consts = [line.split(" = ")[0] for line in spec.text.splitlines() if " = " in line]
    operands = [c for c in consts if c.endswith("_0")]
    target = rng.choice(consts)
    if len(operands) > 1:
        shuffled = operands[:]
        while shuffled == operands:
            rng.shuffle(shuffled)
        positive = Query(
            _compose(spec.lang, shuffled), _compose(spec.lang, operands), True
        )
    else:
        positive = _duplicate_pair(spec.lang, target, True)
    return (positive, _duplicate_pair(spec.lang, target, False))


def mixed_model(lang: str, components: int, entry: int) -> ModelSpec:
    return ModelSpec(f"{lang}-k{components}-{entry}", lang, mixed_text(lang, components, entry))


# ---------------------------------------------------------------------------
# Pools and seeded draws
# ---------------------------------------------------------------------------


def pool(workload: str) -> List[ModelSpec]:
    """Every model a workload can draw, in a fixed order."""
    if workload == "pepa-par":
        return [par_model(PAR_N, rates) for rates in RATES]
    if workload == "pepa-chain":
        return [chain_model(CHAIN_N, rates) for rates in RATES]
    if workload == "mixed-corpus":
        return [
            mixed_model(lang, k, entry)
            for lang in LANGS
            for k in range(1, 5)
            for entry in range(MIXED_PER_SHAPE)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def draw(workload: str, seed: int) -> List[ModelSpec]:
    """The models, with their bisim queries, that one seed selects."""
    rng = random.Random(f"{workload}-{seed}")
    models = pool(workload)
    if workload == "pepa-par":
        return [_with_queries(rng.choice(models), _par_queries(rng, PAR_N))]
    if workload == "pepa-chain":
        entry = rng.randrange(len(models))
        queries = _chain_queries(rng, CHAIN_N, RATES[entry][0])
        return [_with_queries(models[entry], queries)]
    rng.shuffle(models)
    return [_with_queries(spec, _mixed_queries(rng, spec)) for spec in models]


def _with_queries(spec: ModelSpec, queries: Tuple[Query, ...]) -> ModelSpec:
    return ModelSpec(spec.name, spec.lang, spec.text, queries, spec.states, spec.blocks)


def write_models(models: List[ModelSpec], directory: str) -> Dict[str, ModelSpec]:
    """Write each model into ``directory``; return path -> spec."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for spec in models:
        path = os.path.join(directory, spec.filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(spec.text)
        paths[path] = spec
    return paths
