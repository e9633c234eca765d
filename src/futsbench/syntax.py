"""Process terms: abstract syntax, parsing, and canonical printing.

Four calculi share one term shape with per-language prefix forms:

* ``pepa`` -- rated action prefixes ``(a, 3/2).P`` and synchronising
  composition ``P <a,b> Q``.
* ``iml``  -- action prefixes ``a.P``, delay-rate prefixes ``3/2.P``,
  and composition ``P |[a,b]| Q``.
* ``tpc``  -- action prefixes ``a.P``, integer time prefixes
  ``(3).P``, and composition ``P |[a,b]| Q``.
* ``mal``  -- delay-rate prefixes ``3/2.P`` and probabilistic action
  prefixes ``a.{1/2: P [] 1/2: Q}`` (an action always carries a
  distribution), composition ``P |[a,b]| Q``.

All languages have ``nil``, binary choice ``P + Q``, and defined
constants (uppercase-initial names).  Action names start with a
lowercase letter.  Prefixing binds tightest, then ``+``, then the
composition operator; both binary operators associate to the left.

A model file is line-oriented: ``Name = Term`` definitions, exactly
one ``init Term`` line, and ``--`` comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple, Union

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


@dataclass(frozen=True)
class Nil:
    """The inert process."""


@dataclass(frozen=True)
class RatedPrefix:
    """``(action, rate).cont`` -- an action with an exponential rate."""

    action: str
    rate: Fraction
    cont: "Term"


@dataclass(frozen=True)
class ActPrefix:
    """``action.cont`` -- an unrated (interactive) action."""

    action: str
    cont: "Term"


@dataclass(frozen=True)
class RatePrefix:
    """``rate.cont`` -- a pure exponential delay."""

    rate: Fraction
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
    branches: Tuple[Tuple[Fraction, "Term"], ...]


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


def children(term: Term) -> Tuple[Term, ...]:
    """Immediate subterms, in source order."""
    if isinstance(term, (Nil, Const)):
        return ()
    if isinstance(term, (RatedPrefix, ActPrefix, RatePrefix, TimePrefix)):
        return (term.cont,)
    if isinstance(term, ProbPrefix):
        return tuple(cont for _, cont in term.branches)
    return (term.left, term.right)


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
    each node as it reads it, children first, so ids follow parse order,
    and ``registry`` finds a term by its shape in one lookup.  ``defs``
    maps each constant to its body's id, ``init`` is the initial term's
    id.  A term's node (:meth:`term_of`), its canonical text (:meth:`text`)
    and its readable text (:meth:`pretty`) are built on first use, once per
    id; the texts from their subterms' texts, one level at a time.
    :meth:`memo` holds the semantics' memoised steps, one dict per
    relation and label, by term id.
    :func:`parse_model` builds every model and checks it with
    :func:`check_guarded`, so models are guarded by construction and a
    walker unfolds a constant with no cycle detection of its own.
    """

    def __init__(self, lang: str):
        if lang not in LANGUAGES:
            raise ValueError(f"unknown language {lang!r}; expected one of {', '.join(LANGUAGES)}")
        self.lang = lang
        self.defs: dict = {}  # constant name -> body id
        self.init: Optional[int] = None  # id of the initial term
        self.registry: dict = {}  # shape -> id
        self._shapes: list = []  # id -> shape
        self._terms: dict = {}  # id -> stored node, built on first use
        self._texts: dict = {}  # id -> canonical text, rendered on first use
        self._pretties: dict = {}  # id -> readable text, rendered on first use
        self._bodies: Optional[dict] = None
        self._memos: dict = {}  # (relation, label) -> {term id -> step}

    def intern(self, shape) -> int:
        """The id of the term that ``shape`` (a node over child ids) stands for."""
        found = self.registry.setdefault(shape, len(self._shapes))
        if found == len(self._shapes):
            self._shapes.append(shape)
        return found

    def shape(self, term_id: int):
        """The stored term ``term_id`` as a node whose subterms are ids."""
        return self._shapes[term_id]

    def term_of(self, term_id: int) -> Term:
        node = self._terms.get(term_id)
        if node is None:
            node = self._terms[term_id] = map_children(self._shapes[term_id], self.term_of)
        return node

    def bodies(self) -> dict:
        """Each constant's body as a node (:meth:`term_of`), by name, built once."""
        if self._bodies is None:
            self._bodies = {name: self.term_of(body) for name, body in self.defs.items()}
        return self._bodies

    def text(self, term_id: int) -> str:
        """Canonical text of a term (:func:`term_key`), rendered once per id
        from its subterms' texts."""
        text = self._texts.get(term_id)
        if text is None:
            text = self._render(term_id, self._texts, self._render_text)
        return text

    def pretty(self, term_id: int) -> str:
        """Readable text of a term (:func:`pretty`), rendered once per id
        from its subterms' readable texts."""
        text = self._pretties.get(term_id)
        if text is None:
            text = self._render(term_id, self._pretties, self._render_pretty)
        return text

    def _render_text(self, shape) -> str:
        return render_key(shape, self._texts.__getitem__)

    def _render_pretty(self, shape) -> str:
        return render_pretty(shape, self._pretty_of)

    def _pretty_of(self, sub: int, min_prec: int) -> str:
        return _bracket(self._pretties[sub], self._shapes[sub], min_prec)

    def _render(self, term_id: int, cache: dict, render: Callable[[Any], str]) -> str:
        """``cache[term_id]``, filled by ``render`` (one shape, whose subterms
        it reads from ``cache``) for the term and each subterm not yet in it,
        children first, with an explicit stack."""
        shapes = self._shapes
        try:  # one level is all it takes when every subterm is rendered
            text = cache[term_id] = render(shapes[term_id])
            return text
        except KeyError:  # some subterm is not: render the missing ones first
            pass
        stack = [term_id]
        while stack:
            t = stack.pop()
            if t < 0:  # ~t, whose subterms are rendered
                cache[~t] = render(shapes[~t])
            elif t not in cache:
                pending = [sub for sub in children(shapes[t]) if sub not in cache]
                if pending:
                    stack.append(~t)
                    stack += pending
                else:
                    cache[t] = render(shapes[t])
        return cache[term_id]

    def memo(self, relation: str, label: str) -> dict:
        """The memoised steps of one relation and label, by term id."""
        found = self._memos.get((relation, label))
        if found is None:
            found = self._memos[relation, label] = {}
        return found


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_SINGLE_SYMBOLS = set("()+.,<>{}:=/")
# ASCII only: str.isdigit also accepts digits such as "²" that Fraction rejects
_DIGITS = set("0123456789")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | "sym" | "eof"
    text: str
    line: int
    col: int


def _lex_line(text: str, lineno: int) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "-" and i + 1 < n and text[i + 1] == "-":
            break  # comment to end of line
        col = i + 1
        if c in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            tokens.append(_Token("number", text[i:j], lineno, col))
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], lineno, col))
            i = j
            continue
        if c == "|":
            if i + 1 < n and text[i + 1] == "[":
                tokens.append(_Token("sym", "|[", lineno, col))
                i += 2
                continue
            raise ParseError("unexpected '|' (composition is written '|[...]|')", lineno, col)
        if c == "]":
            if i + 1 < n and text[i + 1] == "|":
                tokens.append(_Token("sym", "]|", lineno, col))
                i += 2
                continue
            raise ParseError("unexpected ']'", lineno, col)
        if c == "[":
            if i + 1 < n and text[i + 1] == "]":
                tokens.append(_Token("sym", "[]", lineno, col))
                i += 2
                continue
            raise ParseError("unexpected '['", lineno, col)
        if c in _SINGLE_SYMBOLS:
            tokens.append(_Token("sym", c, lineno, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", lineno, col)
    tokens.append(_Token("eof", "", lineno, n + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _is_const_name(name: str) -> bool:
    return name[0].isupper()


def _is_action_name(name: str) -> bool:
    return name[0].islower() and name not in ("nil", "init")


class _Parser:
    """Reads one line's tokens, interning each node into ``model``'s table."""

    def __init__(self, tokens: list, model: Model):
        self.tokens = tokens
        self.pos = 0
        self.lang = model.lang
        self.intern = model.intern
        self.const_sites: list = []  # (name, line, col) per occurrence

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> _Token:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == sym:
            return self.advance()
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise self.error(f"expected {sym!r}, found {shown!r}", tok)

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == sym

    # -- numeric literals --------------------------------------------------

    def parse_positive_rational(self, what: str) -> Fraction:
        tok = self.peek()
        if tok.kind != "number":
            raise self.error(f"expected a {what}, found {tok.text or 'end of input'!r}", tok)
        self.advance()
        value = Fraction(tok.text)
        if self.at_sym("/"):
            if "." in tok.text:
                raise self.error(f"{what} may be 'n', 'n/m', or a decimal, not both", tok)
            self.advance()
            den_tok = self.peek()
            if den_tok.kind != "number" or "." in den_tok.text:
                raise self.error(f"expected an integer denominator in the {what}", den_tok)
            self.advance()
            if int(den_tok.text) == 0:
                raise self.error(f"{what} denominator must not be zero", den_tok)
            value = Fraction(int(tok.text), int(den_tok.text))
        if value <= 0:
            raise self.error(f"{what} must be positive, got {value}", tok)
        return value

    def parse_positive_int(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "number" or "." in tok.text:
            raise self.error(f"expected a positive integer {what}", tok)
        self.advance()
        if self.at_sym("/"):
            raise self.error(f"{what} must be a positive integer, not a fraction")
        value = int(tok.text)
        if value < 1:
            raise self.error(f"{what} must be at least 1, got {value}", tok)
        return value

    # -- grammar -----------------------------------------------------------

    def parse_term(self) -> int:
        left = self.parse_choice()
        while True:
            if self.lang == "pepa" and self.at_sym("<"):
                actions = self.parse_action_set("<", ">")
                left = self.intern(Coop(actions, left, self.parse_choice()))
            elif self.lang != "pepa" and self.at_sym("|["):
                actions = self.parse_action_set("|[", "]|")
                left = self.intern(Par(actions, left, self.parse_choice()))
            else:
                return left

    def parse_line(self) -> int:
        """The term that takes up the rest of the line."""
        term = self.parse_term()
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected trailing input {tok.text!r}", tok)
        return term

    def parse_choice(self) -> int:
        left = self.parse_prefix()
        while self.at_sym("+"):
            self.advance()
            left = self.intern(Choice(left, self.parse_prefix()))
        return left

    def parse_action_set(self, opener: str, closer: str) -> frozenset:
        self.expect_sym(opener)
        names = []
        if not self.at_sym(closer):
            while True:
                tok = self.peek()
                if tok.kind != "ident" or not _is_action_name(tok.text):
                    raise self.error(
                        "synchronisation sets hold action names "
                        "(lowercase-initial identifiers)",
                        tok,
                    )
                names.append(self.advance().text)
                if self.at_sym(","):
                    self.advance()
                    continue
                break
        self.expect_sym(closer)
        return frozenset(names)

    def parse_prefix(self) -> int:
        """A chain of prefixes and the term it ends in, read in a loop and

        interned from the inside out.
        """
        prefixes = []
        head = self.parse_head()
        while callable(head):
            prefixes.append(head)
            head = self.parse_head()
        for make in reversed(prefixes):
            head = self.intern(make(head))
        return head

    def parse_head(self) -> Union[int, Callable[[int], Term]]:
        """One prefix, as the map from its continuation's id to its shape;

        or the id of a term that no prefix starts.
        """
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text == "nil":
                self.advance()
                return self.intern(Nil())
            if _is_const_name(tok.text):
                nxt = self.peek(1)
                if nxt.kind == "sym" and nxt.text == ".":
                    raise self.error(
                        "prefix actions must start with a lowercase letter", tok
                    )
                self.advance()
                self.const_sites.append((tok.text, tok.line, tok.col))
                return self.intern(Const(tok.text))
            if _is_action_name(tok.text):
                return self.parse_action_head()
            raise self.error(f"unexpected keyword {tok.text!r}", tok)
        if tok.kind == "number":
            if self.lang in ("iml", "mal"):
                rate = self.parse_positive_rational("rate")
                self.expect_sym(".")
                return partial(RatePrefix, rate)
            raise self.error("numeric delay-rate prefixes are not part of this language", tok)
        if tok.kind == "sym" and tok.text == "(":
            if self.lang == "pepa":
                nxt = self.peek(1)
                after = self.peek(2)
                if nxt.kind == "ident" and after.kind == "sym" and after.text == ",":
                    return self.parse_rated_head()
            if self.lang == "tpc" and self.peek(1).kind == "number":
                return self.parse_time_head()
            self.advance()
            term = self.parse_term()
            self.expect_sym(")")
            return term
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise self.error(f"expected a process term, found {shown!r}", tok)

    def parse_action_head(self) -> Union[int, Callable[[int], Term]]:
        tok = self.advance()  # the action name
        action = tok.text
        if self.lang == "pepa":
            raise self.error(
                "this language writes action prefixes as '(action, rate).P'", tok
            )
        self.expect_sym(".")
        if self.lang == "mal":
            return self.parse_prob_branches(action)
        if self.lang in ("iml", "tpc"):
            return partial(ActPrefix, action)
        raise self.error(f"unsupported language {self.lang!r}", tok)  # pragma: no cover

    def parse_rated_head(self) -> Callable[[int], Term]:
        self.expect_sym("(")
        tok = self.peek()
        if tok.kind != "ident" or not _is_action_name(tok.text):
            raise self.error("prefix actions must start with a lowercase letter", tok)
        action = self.advance().text
        self.expect_sym(",")
        rate = self.parse_positive_rational("rate")
        self.expect_sym(")")
        self.expect_sym(".")
        return partial(RatedPrefix, action, rate)

    def parse_time_head(self) -> Callable[[int], Term]:
        self.expect_sym("(")
        delay = self.parse_positive_int("delay")
        self.expect_sym(")")
        self.expect_sym(".")
        return partial(TimePrefix, delay)

    def parse_prob_branches(self, action: str) -> int:
        open_tok = self.peek()
        if not self.at_sym("{"):
            raise self.error(
                "an action prefix in this language carries a distribution: "
                "'action.{p1: P1 [] p2: P2}'",
                open_tok,
            )
        self.advance()
        branches = []
        while True:
            prob_tok = self.peek()
            prob = self.parse_positive_rational("branch probability")
            if prob > 1:
                raise self.error(f"branch probability must be at most 1, got {prob}", prob_tok)
            self.expect_sym(":")
            cont = self.parse_term()
            branches.append((prob, cont))
            if self.at_sym("[]"):
                self.advance()
                continue
            break
        self.expect_sym("}")
        total = sum(p for p, _ in branches)
        if total != 1:
            raise self.error(f"probabilities sum to {total}", open_tok)
        return self.intern(ProbPrefix(action, tuple(branches)))


def parse_term(text: str, model: Model) -> int:
    """Parse one command-line term into ``model``'s table and return its id.

    Every constant the term names must be defined by ``model``.
    """
    parser = _Parser(_lex_line(text, 1), model)
    term = parser.parse_line()
    for name, _, _ in parser.const_sites:
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
    const_sites: list = []
    saw_anything = False
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(raw, lineno)
        if tokens[0].kind == "eof":
            continue
        saw_anything = True
        head = tokens[0]
        parser = _Parser(tokens, model)
        if head.kind == "ident" and head.text == "init":
            if model.init is not None:
                raise ParseError("duplicate 'init' line", head.line, head.col)
            parser.advance()  # 'init'
            model.init = parser.parse_line()
            const_sites.extend(parser.const_sites)
            continue
        if head.kind == "ident" and _is_const_name(head.text):
            eq = tokens[1] if len(tokens) > 1 else None
            if eq is not None and eq.kind == "sym" and eq.text == "=":
                name = head.text
                if name in model.defs:
                    raise DuplicateConstantError(
                        f"constant {name!r} defined at line {def_lines[name]} "
                        f"and line {lineno}"
                    )
                parser.advance()  # name
                parser.advance()  # '='
                model.defs[name] = parser.parse_line()
                def_lines[name] = lineno
                const_sites.extend(parser.const_sites)
                continue
        raise ParseError(
            "expected a definition ('Name = term') or the 'init' line",
            head.line,
            head.col,
        )
    if not saw_anything:
        raise ParseError("model file is empty", 1, 1)
    if model.init is None:
        raise ParseError("missing 'init' line", lineno or 1, 1)
    for name, line, col in const_sites:
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
    _refuse_cycle(model, (Choice, Coop, Par), UnguardedRecursionError, "is not guarded")
    if model.lang == "tpc":
        _refuse_cycle(
            model, (Choice, Par, TimePrefix), DelayCycleError, "recurses through delays only"
        )


def alphabet(model: Model, roots: Iterable[int] = ()) -> list:
    """All action names occurring in the definitions, the initial term and

    the terms ``roots``, sorted.  Both prefix actions and
    synchronisation-set members count, so the label set of a model is
    stable across exploration.
    """
    actions = set()
    seen = set()
    stack = [*model.defs.values(), model.init, *roots]
    while stack:
        term_id = stack.pop()
        if term_id in seen:
            continue
        seen.add(term_id)
        t = model.shape(term_id)
        if isinstance(t, (RatedPrefix, ActPrefix, ProbPrefix)):
            actions.add(t.action)
        elif isinstance(t, (Coop, Par)):
            actions.update(t.actions)
        stack.extend(children(t))
    return sorted(actions)


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def _format_rational(value: Fraction) -> str:
    return str(value)


def _format_actions(actions: frozenset) -> str:
    return ",".join(sorted(actions))


def term_key(term: Term) -> str:
    """Deterministic, fully parenthesised text for a term.

    Synchronisation sets are sorted, so structurally equal terms (up
    to set representation) get equal keys; the output re-parses to an
    equal term in the same language.
    """
    return render_key(term, term_key)


def render_key(node, key_of: Callable[[Any], str]) -> str:
    """:func:`term_key`'s text for one node, whose subterms (nodes, ids or
    anything else) ``key_of`` renders."""
    if isinstance(node, Nil):
        return "nil"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, RatedPrefix):
        return f"({node.action}, {_format_rational(node.rate)}).{key_of(node.cont)}"
    if isinstance(node, ActPrefix):
        return f"{node.action}.{key_of(node.cont)}"
    if isinstance(node, RatePrefix):
        # spaces keep the rate and a numeric continuation from fusing
        # into one decimal literal when the key is re-parsed
        return f"{_format_rational(node.rate)} . {key_of(node.cont)}"
    if isinstance(node, TimePrefix):
        return f"({node.delay}).{key_of(node.cont)}"
    if isinstance(node, ProbPrefix):
        inner = " [] ".join(
            f"{_format_rational(p)}: {key_of(cont)}" for p, cont in node.branches
        )
        return f"{node.action}.{{{inner}}}"
    if isinstance(node, Choice):
        return f"({key_of(node.left)} + {key_of(node.right)})"
    if isinstance(node, Coop):
        return f"({key_of(node.left)} <{_format_actions(node.actions)}> {key_of(node.right)})"
    if isinstance(node, Par):
        return (
            f"({key_of(node.left)} |[{_format_actions(node.actions)}]| "
            f"{key_of(node.right)})"
        )
    raise TypeError(f"not a term: {node!r}")  # pragma: no cover


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
    when ``sub`` binds less tightly than ``min_prec``."""
    if isinstance(node, Nil):
        return "nil"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, RatedPrefix):
        rate = _format_rational(node.rate)
        return f"({node.action}, {rate}).{pretty_of(node.cont, _PREC_PREFIX)}"
    if isinstance(node, ActPrefix):
        return f"{node.action}.{pretty_of(node.cont, _PREC_PREFIX)}"
    if isinstance(node, RatePrefix):
        return f"{_format_rational(node.rate)} . {pretty_of(node.cont, _PREC_PREFIX)}"
    if isinstance(node, TimePrefix):
        return f"({node.delay}).{pretty_of(node.cont, _PREC_PREFIX)}"
    if isinstance(node, ProbPrefix):
        inner = " [] ".join(
            f"{_format_rational(p)}: {pretty_of(cont, _PREC_PAR)}" for p, cont in node.branches
        )
        return f"{node.action}.{{{inner}}}"
    if isinstance(node, Choice):
        return f"{pretty_of(node.left, _PREC_CHOICE)} + {pretty_of(node.right, _PREC_CHOICE + 1)}"
    if isinstance(node, Coop):
        return (
            f"{pretty_of(node.left, _PREC_PAR)} <{_format_actions(node.actions)}> "
            f"{pretty_of(node.right, _PREC_PAR + 1)}"
        )
    if isinstance(node, Par):
        return (
            f"{pretty_of(node.left, _PREC_PAR)} |[{_format_actions(node.actions)}]| "
            f"{pretty_of(node.right, _PREC_PAR + 1)}"
        )
    raise TypeError(f"not a term: {node!r}")  # pragma: no cover
