"""Process terms: abstract syntax, parsing, and canonical printing.

Four calculi, ``pepa``, ``iml``, ``tpc`` and ``mal``, share one term shape
and differ in their prefixes and in how composition is written.  A model
file is read line by line; each line is blank, a definition
``Name = term`` or the one ``init term`` line, and ``--`` starts a comment
that runs to the end of the line.  The grammar of a term, with the
languages that have each form::

    term    ::= choice (sync choice)*
    choice  ::= prefix ('+' prefix)*
    prefix  ::= head* atom
    head    ::= '(' action ',' rate ')' '.'                       pepa
              | action '.'                                        iml tpc
              | rate '.'                                          iml mal
              | '(' delay ')' '.'                                 tpc
    atom    ::= 'nil' | Name | '(' term ')'
              | action '.' '{' prob ':' term ('[]' prob ':' term)* '}'   mal
    sync    ::= '<' actions '>'                                   pepa
              | '|[' actions ']|'                                 iml tpc mal
    actions ::= (action (',' action)*)?

So prefixing binds tightest, then ``+``, then composition, and both
binary operators associate to the left.  A ``Name`` (a constant) starts
with an uppercase letter and an ``action`` with a lowercase one, ``nil``
and ``init`` excepted.  A ``rate`` or ``prob`` is a positive ``n``,
``n/m`` or decimal, a ``prob`` at most 1 and a distribution's summing to
1; a ``delay`` is a positive integer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Container, Iterator, Optional, Tuple, Union

from .errors import (
    DelayCycleError,
    DuplicateConstantError,
    ModelFileError,
    ParseError,
    UndefinedConstantError,
    UnguardedRecursionError,
)

LANGUAGES = ("pepa", "iml", "tpc", "mal")

EXT_TO_LANG = {".pepa": "pepa", ".iml": "iml", ".tpc": "tpc", ".mal": "mal"}


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

# a rate or probability: an int when integral, else a Fraction
Rational = Union[int, Fraction]


@dataclass(frozen=True)
class Nil:
    """The inert process."""


@dataclass(frozen=True)
class RatedPrefix:
    """``(action, rate).cont`` -- an action with an exponential rate."""

    action: str
    rate: Rational
    cont: "Term"


@dataclass(frozen=True)
class ActPrefix:
    """``action.cont`` -- an unrated (interactive) action."""

    action: str
    cont: "Term"


@dataclass(frozen=True)
class RatePrefix:
    """``rate.cont`` -- a pure exponential delay."""

    rate: Rational
    cont: "Term"


@dataclass(frozen=True)
class TimePrefix:
    """``(n).cont`` -- a deterministic delay of ``n`` time units."""

    delay: int
    cont: "Term"


@dataclass(frozen=True)
class ProbPrefix:
    """``action.{p1: P1 [] ... [] ph: Ph}`` -- an action followed by a
    probability distribution over continuations.
    """

    action: str
    branches: Tuple[Tuple[Rational, "Term"], ...]


@dataclass(frozen=True)
class Choice:
    """``left + right`` -- nondeterministic / race choice."""

    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Coop:
    """``left <a,b> right`` -- composition synchronising on the set."""

    actions: frozenset
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Par:
    """``left |[a,b]| right`` -- composition synchronising on the set."""

    actions: frozenset
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Const:
    """A reference to a defined process constant."""

    name: str


Term = Union[
    Nil, RatedPrefix, ActPrefix, RatePrefix, TimePrefix, ProbPrefix, Choice, Coop, Par, Const
]

_PREFIX_TYPES = (RatedPrefix, ActPrefix, RatePrefix, TimePrefix, ProbPrefix)

# The forms a step walks through to reach the prefixes it fires: every step
# crosses choices and compositions, and the timed step and the maximal delay
# cross delay prefixes too.  No constant reaches itself through these forms
# alone (:func:`check_guarded`), so every walk through them ends.
STEP_FORMS = (Choice, Coop, Par)
TIMED_FORMS = (Choice, Par, TimePrefix)


def _cont(term) -> tuple:
    return (term.cont,)


_OPERANDS = attrgetter("left", "right")

# each form with subterms -> the function giving them, in source order
_CHILDREN = {
    RatedPrefix: _cont,
    ActPrefix: _cont,
    RatePrefix: _cont,
    TimePrefix: _cont,
    ProbPrefix: lambda term: tuple(cont for _, cont in term.branches),
    Choice: _OPERANDS,
    Coop: _OPERANDS,
    Par: _OPERANDS,
}


def children(term: Term) -> Tuple[Term, ...]:
    """Immediate subterms, in source order."""
    of = _CHILDREN.get(type(term))
    return () if of is None else of(term)


def map_children(term: Term, f: Callable[[Term], Any]) -> Term:
    """``term`` with ``f`` applied to each immediate subterm; a leaf as it is."""
    if isinstance(term, (Nil, Const)):
        return term
    if isinstance(term, RatedPrefix):
        return RatedPrefix(term.action, term.rate, f(term.cont))
    if isinstance(term, ActPrefix):
        return ActPrefix(term.action, f(term.cont))
    if isinstance(term, RatePrefix):
        return RatePrefix(term.rate, f(term.cont))
    if isinstance(term, TimePrefix):
        return TimePrefix(term.delay, f(term.cont))
    if isinstance(term, ProbPrefix):
        return ProbPrefix(term.action, tuple((p, f(cont)) for p, cont in term.branches))
    if isinstance(term, Choice):
        return Choice(f(term.left), f(term.right))
    if isinstance(term, Coop):
        return Coop(term.actions, f(term.left), f(term.right))
    return Par(term.actions, f(term.left), f(term.right))


class Model:
    """A parsed model and its hash-consed term table (Filliatre & Conchon, 2006).

    Each distinct term is stored once, under a dense id, as its *shape*:
    the node with each subterm replaced by its id.  The parser interns
    each node as it reads it, children first, so ids follow parse order.
    ``registry`` finds a term by its form and fields in one lookup
    (:meth:`intern`), and a node is built only for a new term.  ``defs``
    maps each constant to its body's id, ``init`` is the initial term's
    id.  A term is read one shape at a time (:meth:`shape`), and no term
    is ever built as a tree.  Its canonical text (:meth:`text`) and its
    readable text (:meth:`pretty`) are rendered on first use, once per id,
    from their subterms' texts (:func:`render_cached`).
    :meth:`memo` holds the semantics' memoised steps, one dict per
    relation, by term id, each step a dict from label to weight function,
    and ``walks`` keeps beside each memo the rest of what
    :func:`.sem_futs.futs_step` walks with.
    :func:`parse_model` builds every model and checks it with
    :func:`check_guarded`, so models are guarded by construction and
    :func:`evaluate` unfolds a constant with no cycle detection of its own.
    """

    def __init__(self, lang: str):
        if lang not in LANGUAGES:
            raise ValueError(f"unknown language {lang!r}; expected one of {', '.join(LANGUAGES)}")
        self.lang = lang
        self.defs: dict = {}  # constant name -> body id
        self.init: Optional[int] = None  # id of the initial term
        self.registry: dict = {}  # (form, *fields) of a shape -> id
        self._shapes: list = []  # id -> shape
        self._texts: dict = {}  # id -> canonical text, rendered on first use
        self._pretties: dict = {}  # id -> readable text, rendered on first use
        self._memos: dict = {}  # relation -> {term id -> step}
        # relation -> its memo, forms walked and bound rule (futs_step)
        self.walks: dict = {}

    def intern(self, form: type, *fields) -> int:
        """The id of the term ``form(*fields)``, whose subterm fields are ids;
        the node is built only for a term not yet in the table."""
        shapes = self._shapes
        found = self.registry.setdefault((form, *fields), len(shapes))
        if found == len(shapes):
            shapes.append(form(*fields))
        return found

    def shape(self, term_id: int):
        """The stored term ``term_id`` as a node whose subterms are ids."""
        return self._shapes[term_id]

    def text(self, term_id: int) -> str:
        """Canonical text of a term (:func:`term_key`), rendered once per id
        from its subterms' texts."""
        text = self._texts.get(term_id)
        if text is None:
            text = render_cached(term_id, self._shapes.__getitem__, self._texts, render_key)
        return text

    def pretty(self, term_id: int) -> str:
        """Readable text of a term (:func:`pretty`), rendered once per id
        from its subterms' readable texts."""
        text = self._pretties.get(term_id)
        if text is None:
            text = render_cached(
                term_id, self._shapes.__getitem__, self._pretties, self._render_pretty
            )
        return text

    def _render_pretty(self, shape, _) -> str:
        # the bracketing of a subterm reads its shape too (_pretty_of)
        return render_pretty(shape, self._pretty_of)

    def _pretty_of(self, sub: int, min_prec: int) -> str:
        return _bracket(self._pretties[sub], self._shapes[sub], min_prec)

    def memo(self, relation: str) -> dict:
        """The memoised steps of one relation, by term id."""
        found = self._memos.get(relation)
        if found is None:
            found = self._memos[relation] = {}
        return found


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One token per match, after any blanks, in five groups: a comment, which
# ends the line; a number, in ASCII digits; a word; a symbol; and any other
# character, which starts no token.  The word group also starts at a
# numeral such as "²", a \w that is neither a \d nor a letter, so _lex
# refuses a word that does not start with a letter.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:(--)|([0-9]+(?:\.[0-9]+)?)|([^\W\d_]\w*)"
    r"|(\|\[|\]\||\[\]|[()+.,<>{}:=/])|([^ \t\r\n]))"
)
_KINDS = (None, None, "number", "ident", "sym")  # by group
# a character that starts no token -> the message for it, for those of a symbol
_STRAY = {
    "|": "unexpected '|' (composition is written '|[...]|')",
    "]": "unexpected ']'",
    "[": "unexpected '['",
}


def _lex(text: str, lineno: int) -> list:
    """The tokens of one line, as ``(kind, text, line, col)``: ``kind`` is
    ident, number or sym, and a last eof token has the text ''."""
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group == 1:
            break
        word = match.group(group)
        col = match.start(group) + 1
        if group == 5 or group == 3 and not word[0].isalpha():
            char = word[0]
            raise ParseError(_STRAY.get(char) or f"unexpected character {char!r}", lineno, col)
        tokens.append((_KINDS[group], word, lineno, col))
    tokens.append(("eof", "", lineno, len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _is_const_name(name: str) -> bool:
    return name[0].isupper()


def _is_action_name(name: str) -> bool:
    return name[0].islower() and name not in ("nil", "init")


class _LineParser:
    """Reads one line's tokens, from ``pos`` to the end, into ``model``'s
    table, noting each constant it names in ``sites``.

    No token's text is another's unless both are symbols, and only the eof
    token's is empty, so a symbol is recognised by its text alone.
    """

    def __init__(self, tokens: list, pos: int, model: Model, sites: list):
        self.tokens = tokens
        self.pos = pos
        self.lang = model.lang
        self.intern = model.intern
        self.sites = sites  # (name, line, col) per constant named

    def error(self, message: str, tok: Optional[tuple] = None) -> ParseError:
        _, _, line, col = tok or self.tokens[self.pos]
        return ParseError(message, line, col)

    def expect(self, sym: str) -> None:
        tok = self.tokens[self.pos]
        if tok[1] != sym:
            raise self.error(f"expected {sym!r}, found {tok[1] or 'end of input'!r}", tok)
        self.pos += 1

    # -- numbers and action sets -------------------------------------------

    def rational(self, what: str) -> Rational:
        """A positive ``n``, ``n/m`` or decimal, an ``int`` when integral."""
        tok = self.tokens[self.pos]
        kind, text = tok[0], tok[1]
        if kind != "number":
            raise self.error(f"expected a {what}, found {text or 'end of input'!r}", tok)
        self.pos += 1
        value = Fraction(text) if "." in text else int(text)
        if self.tokens[self.pos][1] == "/":
            if "." in text:
                raise self.error(f"{what} may be 'n', 'n/m', or a decimal, not both", tok)
            self.pos += 1
            den = self.tokens[self.pos]
            if den[0] != "number" or "." in den[1]:
                raise self.error(f"expected an integer denominator in the {what}", den)
            self.pos += 1
            if int(den[1]) == 0:
                raise self.error(f"{what} denominator must not be zero", den)
            value = Fraction(value, int(den[1]))
        if value <= 0:
            raise self.error(f"{what} must be positive, got {value}", tok)
        return value.numerator if value.denominator == 1 else value

    def delay(self) -> int:
        """A positive integer."""
        tok = self.tokens[self.pos]
        if tok[0] != "number" or "." in tok[1]:
            raise self.error("expected a positive integer delay", tok)
        self.pos += 1
        if self.tokens[self.pos][1] == "/":
            raise self.error("delay must be a positive integer, not a fraction")
        value = int(tok[1])
        if value < 1:
            raise self.error(f"delay must be at least 1, got {value}", tok)
        return value

    def probability(self) -> Rational:
        """A distribution's next ``p:``."""
        tok = self.tokens[self.pos]
        prob = self.rational("branch probability")
        if prob > 1:
            raise self.error(f"branch probability must be at most 1, got {prob}", tok)
        self.expect(":")
        return prob

    def actions(self, closer: str) -> frozenset:
        """A synchronisation set, from its opening symbol to ``closer``."""
        self.pos += 1  # the opening symbol
        names = []
        if self.tokens[self.pos][1] != closer:
            while True:
                tok = self.tokens[self.pos]
                if tok[0] != "ident" or not _is_action_name(tok[1]):
                    raise self.error(
                        "synchronisation sets hold action names "
                        "(lowercase-initial identifiers)",
                        tok,
                    )
                names.append(tok[1])
                self.pos += 1
                if self.tokens[self.pos][1] != ",":
                    break
                self.pos += 1
        self.expect(closer)
        return frozenset(names)

    # -- terms -------------------------------------------------------------

    def parse_head(self) -> Any:
        """What the next tokens start.  A prefix is the map from its
        continuation's id to its own id; a term that no prefix starts is its
        id.  A group, whose term is read next, is None for ``(``, and for
        ``action.{p:`` the action, the ``{`` token, and the lists of the
        branches' probabilities and continuations read so far.
        """
        tokens, lang = self.tokens, self.lang
        tok = tokens[self.pos]
        kind, text = tok[0], tok[1]
        if kind == "ident":
            if text == "nil":
                self.pos += 1
                return self.intern(Nil)
            if _is_const_name(text):
                if tokens[self.pos + 1][1] == ".":
                    raise self.error("prefix actions must start with a lowercase letter", tok)
                self.pos += 1
                self.sites.append((text, tok[2], tok[3]))
                return self.intern(Const, text)
            if not _is_action_name(text):
                raise self.error(f"unexpected keyword {text!r}", tok)
            if lang == "pepa":
                raise self.error("this language writes action prefixes as '(action, rate).P'", tok)
            self.pos += 1
            self.expect(".")
            if lang != "mal":
                return partial(self.intern, ActPrefix, text)
            brace = tokens[self.pos]
            if brace[1] != "{":
                raise self.error(
                    "an action prefix in this language carries a distribution: "
                    "'action.{p1: P1 [] p2: P2}'",
                    brace,
                )
            self.pos += 1
            return text, brace, [self.probability()], []
        if kind == "number":
            if lang in ("pepa", "tpc"):
                raise self.error("numeric delay-rate prefixes are not part of this language", tok)
            rate = self.rational("rate")
            self.expect(".")
            return partial(self.intern, RatePrefix, rate)
        if text == "(":
            nxt = tokens[self.pos + 1]
            if lang == "pepa" and nxt[0] == "ident" and tokens[self.pos + 2][1] == ",":
                if not _is_action_name(nxt[1]):
                    raise self.error("prefix actions must start with a lowercase letter", nxt)
                self.pos += 3  # "(", the action, ","
                rate = self.rational("rate")
                self.expect(")")
                self.expect(".")
                return partial(self.intern, RatedPrefix, nxt[1], rate)
            if lang == "tpc" and nxt[0] == "number":
                self.pos += 1
                delay = self.delay()
                self.expect(")")
                self.expect(".")
                return partial(self.intern, TimePrefix, delay)
            self.pos += 1
            return None
        raise self.error(f"expected a process term, found {text or 'end of input'!r}", tok)

    def parse_line(self) -> int:
        """The term that takes up the rest of the line, read in one loop.

        A term in the making is its pending prefixes, its choice so far and
        its composition so far, as the actions and the left operand.  A
        group's opening pushes them with the group, and the group's term,
        once read, pops them and goes on.
        """
        tokens, intern = self.tokens, self.intern
        if self.lang == "pepa":
            opener, closer, composition = "<", ">", Coop
        else:
            opener, closer, composition = "|[", "]|", Par
        stack: list = []
        prefixes: list = []
        choice = comp = None
        while True:
            head = self.parse_head()
            if type(head) is not int:
                if callable(head):
                    prefixes.append(head)
                else:
                    stack.append((prefixes, choice, comp, head))
                    prefixes, choice, comp = [], None, None
                continue
            term = head
            while True:  # fold the term in, and close each group it ends
                for make in reversed(prefixes):
                    term = make(term)
                prefixes = []
                if choice is not None:
                    term = intern(Choice, choice, term)
                tok = tokens[self.pos]
                if tok[1] == "+":
                    self.pos += 1
                    choice = term
                    break
                if comp is not None:
                    term = intern(composition, comp[0], comp[1], term)
                if tok[1] == opener:
                    comp = (self.actions(closer), term)
                    choice = None
                    break
                if not stack:
                    if tok[0] != "eof":
                        raise self.error(f"unexpected trailing input {tok[1]!r}", tok)
                    return term
                prefixes, choice, comp, group = stack.pop()
                if group is None:
                    self.expect(")")
                    continue
                action, brace, probs, conts = group
                conts.append(term)
                if tok[1] == "[]":
                    self.pos += 1
                    probs.append(self.probability())
                    stack.append((prefixes, choice, comp, group))
                    prefixes, choice, comp = [], None, None
                    break
                self.expect("}")
                total = sum(probs)
                if total != 1:
                    raise self.error(f"probabilities sum to {total}", brace)
                term = intern(ProbPrefix, action, tuple(zip(probs, conts)))


def parse_term(text: str, model: Model) -> int:
    """Parse one command-line term into ``model``'s table and return its id.

    Every constant the term names must be defined by ``model``.
    """
    sites: list = []
    term = _LineParser(_lex(text, 1), 0, model, sites).parse_line()
    for name, _, _ in sites:
        if name not in model.defs:
            raise UndefinedConstantError(f"undefined process constant {name!r} in {text!r}")
    return term


def parse_model(text: str, lang: str) -> Model:
    """Parse a whole model file: definitions plus one ``init`` line.

    The model is refused unless every constant it uses is defined and its
    recursion is guarded (:func:`check_guarded`).
    """
    model = Model(lang)
    def_lines: dict = {}
    sites: list = []
    saw_anything = False
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _lex(raw, lineno)
        kind, word, _, col = tokens[0]
        if kind == "eof":
            continue
        saw_anything = True
        if word == "init":
            if model.init is not None:
                raise ParseError("duplicate 'init' line", lineno, col)
            model.init = _LineParser(tokens, 1, model, sites).parse_line()
            continue
        if kind == "ident" and _is_const_name(word) and tokens[1][1] == "=":
            if word in model.defs:
                raise DuplicateConstantError(
                    f"constant {word!r} defined at line {def_lines[word]} and line {lineno}"
                )
            model.defs[word] = _LineParser(tokens, 2, model, sites).parse_line()
            def_lines[word] = lineno
            continue
        raise ParseError("expected a definition ('Name = term') or the 'init' line", lineno, col)
    if not saw_anything:
        raise ParseError("model file is empty", 1, 1)
    if model.init is None:
        raise ParseError("missing 'init' line", lineno or 1, 1)
    for name, line, col in sites:
        if name not in model.defs:
            raise UndefinedConstantError(
                f"undefined process constant {name!r} (line {line}, column {col})"
            )
    check_guarded(model)
    return model


def load_model(path: str, lang: Optional[str] = None) -> Model:
    """Read a model file, inferring the language from the extension."""
    if lang is None:
        for ext, language in EXT_TO_LANG.items():
            if path.endswith(ext):
                lang = language
                break
        else:
            raise ModelFileError(
                f"cannot infer language from {path!r}; use one of "
                f"{', '.join(EXT_TO_LANG)} or pass the language explicitly"
            )
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ModelFileError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from None
    return parse_model(text, lang)


# ---------------------------------------------------------------------------
# Static checks
# ---------------------------------------------------------------------------


def _naked_constants(model: Model, term_id: int, through: tuple) -> Iterator[str]:
    """Constants reachable from a term through the forms ``through`` only."""
    stack = [term_id]
    while stack:
        t = model.shape(stack.pop())
        if isinstance(t, Const):
            yield t.name
        elif isinstance(t, through):
            stack.extend(children(t))
        # any other form guards its subterms


def _refuse_cycle(model: Model, through: tuple, error_cls, what: str) -> None:
    """Raise ``error_cls`` naming a cycle of constants that reach each other
    through the forms ``through`` only, if there is one.
    """
    graph = {
        name: sorted(set(_naked_constants(model, body, through)))
        for name, body in model.defs.items()
    }
    active: set = set()
    done: set = set()
    for start in model.defs:
        if start in done:
            continue
        # depth first: the path, and the successors each of its names has left
        path = [start]
        active.add(start)
        pending = [iter(graph[start])]
        while pending:
            name = next(pending[-1], None)
            if name is None:
                pending.pop()
                name = path.pop()
                active.discard(name)
                done.add(name)
            elif name in active:
                cycle = path[path.index(name):] + [name]
                raise error_cls(f"constant {cycle[0]!r} {what}: " + " -> ".join(cycle))
            elif name not in done:
                path.append(name)
                active.add(name)
                pending.append(iter(graph[name]))


def check_guarded(model: Model) -> None:
    """Reject models whose recursion a semantic walker could unfold forever.

    A constant that reaches itself without crossing a prefix has no
    well-defined behaviour (:class:`UnguardedRecursionError`).  In ``tpc``
    only action prefixes guard: the timed step, the maximal delay and the
    timed transitions walk through delay prefixes, so a constant that
    reaches itself crossing only delays, as in ``X = (1).X``, would let
    unbounded time pass (:class:`DelayCycleError`).  Every constant is
    checked, whether or not the initial term reaches it.
    """
    _refuse_cycle(model, STEP_FORMS, UnguardedRecursionError, "is not guarded")
    if model.lang == "tpc":
        _refuse_cycle(model, TIMED_FORMS, DelayCycleError, "recurses through delays only")


def alphabet(model: Model) -> list:
    """All action names of the terms in the model's table, sorted.

    Both prefix actions and synchronisation-set members count.  The table
    holds the definitions, the initial term and every term parsed into
    the model since, so such a term adds its actions, even from a
    :func:`parse_term` that then fails (no caller goes on after such a
    failure).  The terms that exploring interns are built from the
    model's own shapes and add none, so the label set of a model is
    stable across exploration.
    """
    actions = set()
    for t in model._shapes:
        if isinstance(t, (RatedPrefix, ActPrefix, ProbPrefix)):
            actions.add(t.action)
        elif isinstance(t, (Coop, Par)):
            actions.update(t.actions)
    return sorted(actions)


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def _format_actions(actions: frozenset) -> str:
    return ",".join(sorted(actions))


def term_key(term: Term) -> str:
    """Deterministic, fully parenthesised text for a term.

    Synchronisation sets are sorted, so structurally equal terms (up
    to set representation) get equal keys; the output re-parses to an
    equal term in the same language.
    """
    return render_key(term, term_key)


def evaluate(
    root: int,
    shape_of: Callable[[int], Any],
    defs: Optional[dict],
    through: Container[type],
    memo: dict,
    rule: Callable[[Any, Callable[[int], Any]], Any],
):
    """``rule``'s result for the term ``root``, neither read from ``memo``
    nor stored in it.

    ``rule(shape, result_of)`` gives a term's result from its shape (read
    by ``shape_of``) and, through ``result_of``, its successors' results.
    A shape's successors are its children when it has one of the forms
    ``through``, and it has none otherwise.  Every successor reached from
    ``root`` and not yet in ``memo`` goes through ``rule`` once and is kept
    there by id, children first, with an explicit stack, so no walk
    recurses; when every successor of ``root`` is kept already, no other
    shape is read.  A constant's shape is read as its body's, whose id
    ``defs`` maps its name to, so no rule sees a constant, and a result is
    kept under the constant's id, not its body's; with ``defs`` None a
    constant is a leaf.
    """
    get = memo.__getitem__
    stack = [root]
    while True:
        t = stack.pop()
        expanded = t < 0  # ~t: t, whose successors are kept
        if expanded:
            t = ~t
        elif t in memo and t != root:
            continue
        shape = shape_of(t)
        while type(shape) is Const and defs is not None:
            shape = shape_of(defs[shape.name])
        form = type(shape)
        if not expanded and form in through:
            stack.append(~t)
            waiting = len(stack)
            for sub in _CHILDREN[form](shape):
                if sub not in memo:
                    stack.append(sub)
            if len(stack) > waiting:
                continue
            stack.pop()  # every successor is kept: one level is all it takes
        result = rule(shape, get)
        if t == root:
            return result
        memo[t] = result


def render_cached(
    term_id: int,
    shape_of: Callable[[int], Any],
    cache: dict,
    render: Callable[[Any, Callable[[int], str]], str],
) -> str:
    """``cache[term_id]``, filled in by ``render(shape, text_of)``, which
    renders one shape from its subterms' texts, for the term and every
    subterm not yet in ``cache`` (:func:`evaluate`)."""
    text = cache.get(term_id)
    if text is None:
        # every form with subterms is walked through
        text = cache[term_id] = evaluate(term_id, shape_of, None, _CHILDREN, cache, render)
    return text


def render_key(node, key_of: Callable[[Any], str]) -> str:
    """:func:`term_key`'s text for one node, whose subterms (nodes, ids or
    anything else) ``key_of`` renders: :func:`render_pretty`'s text with
    every subterm's key in place, in parentheses when the node is a binary
    operator."""
    text = render_pretty(node, lambda sub, _: key_of(sub))
    return f"({text})" if type(node) in _BINARY else text


_BINARY = frozenset((Choice, Coop, Par))

_PREC_PAR = 1
_PREC_CHOICE = 2
_PREC_PREFIX = 3
_PREC_ATOM = 4


def _prec(term: Term) -> int:
    if isinstance(term, (Coop, Par)):
        return _PREC_PAR
    if isinstance(term, Choice):
        return _PREC_CHOICE
    if isinstance(term, _PREFIX_TYPES):
        return _PREC_PREFIX
    return _PREC_ATOM


def _bracket(text: str, node, min_prec: int) -> str:
    """``text``, the readable text of ``node``, in parentheses when the
    node binds less tightly than its slot needs (``min_prec``)."""
    return f"({text})" if _prec(node) < min_prec else text


def pretty(term: Term) -> str:
    """Readable text for a term, with only the necessary parentheses."""

    def go(t: Term, min_prec: int) -> str:
        return _bracket(render_pretty(t, go), t, min_prec)

    return render_pretty(term, go)


def render_pretty(node, pretty_of: Callable[[Any, int], str]) -> str:
    """:func:`pretty`'s text for one node, whose subterms (nodes, ids or
    anything else) ``pretty_of(sub, min_prec)`` renders, in parentheses
    when ``sub`` binds less tightly than ``min_prec``: the layout of the
    node's form in ``_LAYOUTS``."""
    return _LAYOUTS[type(node)](node, pretty_of)


def _branches_layout(node, pretty_of) -> str:
    inner = " [] ".join(f"{p}: {pretty_of(cont, _PREC_PAR)}" for p, cont in node.branches)
    return f"{node.action}.{{{inner}}}"


# one layout per form, read by the node's exact type
_LAYOUTS = {
    Nil: lambda node, pretty_of: "nil",
    Const: lambda node, pretty_of: node.name,
    RatedPrefix: lambda node, pretty_of: (
        f"({node.action}, {node.rate}).{pretty_of(node.cont, _PREC_PREFIX)}"
    ),
    ActPrefix: lambda node, pretty_of: f"{node.action}.{pretty_of(node.cont, _PREC_PREFIX)}",
    # spaces keep the rate and a numeric continuation from fusing into one
    # decimal literal when the text is re-parsed
    RatePrefix: lambda node, pretty_of: f"{node.rate} . {pretty_of(node.cont, _PREC_PREFIX)}",
    TimePrefix: lambda node, pretty_of: f"({node.delay}).{pretty_of(node.cont, _PREC_PREFIX)}",
    ProbPrefix: _branches_layout,
    Choice: lambda node, pretty_of: (
        f"{pretty_of(node.left, _PREC_CHOICE)} + {pretty_of(node.right, _PREC_CHOICE + 1)}"
    ),
    Coop: lambda node, pretty_of: (
        f"{pretty_of(node.left, _PREC_PAR)} <{_format_actions(node.actions)}> "
        f"{pretty_of(node.right, _PREC_PAR + 1)}"
    ),
    Par: lambda node, pretty_of: (
        f"{pretty_of(node.left, _PREC_PAR)} |[{_format_actions(node.actions)}]| "
        f"{pretty_of(node.right, _PREC_PAR + 1)}"
    ),
}
