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
from typing import Any, Callable, Iterator, Optional, Tuple, Union

from .errors import (
    DuplicateConstantError,
    FutsError,
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


def walk(term: Term) -> Iterator[Term]:
    """All subterms, preorder."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(children(t)))


@dataclass
class Model:
    """A parsed model: language, ordered definitions, initial term."""

    lang: str
    defs: dict
    init: Term


def unfold(scope, term: Term, active: set, rec: Callable, error_cls, doing: str):
    """The last case of every semantic walker: ``rec`` of a constant's body.

    ``scope`` is a :class:`Model` (bodies are terms) or a term table,
    :class:`.sem_futs.StepContext` (bodies are ids); only its ``lang``
    and ``defs`` are read.  ``active`` holds the constants being unfolded
    on the current path; meeting one of them again means the recursion
    never crosses a prefix, reported as ``error_cls``.  Walkers handle
    every other form of their language before calling this, so any other
    term is foreign.
    """
    if not isinstance(term, Const):
        raise FutsError(f"term form {type(term).__name__} is not part of {scope.lang}")
    name = term.name
    if name in active:
        raise error_cls(
            f"recursion through constant {name!r} does not terminate while {doing}"
        )
    active.add(name)
    result = rec(scope.defs[name])
    active.discard(name)
    return result


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
    def __init__(self, tokens: list, lang: str):
        self.tokens = tokens
        self.pos = 0
        self.lang = lang
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

    def parse_term(self) -> Term:
        left = self.parse_choice()
        while True:
            if self.lang == "pepa" and self.at_sym("<"):
                actions = self.parse_action_set("<", ">")
                right = self.parse_choice()
                left = Coop(actions, left, right)
            elif self.lang != "pepa" and self.at_sym("|["):
                actions = self.parse_action_set("|[", "]|")
                right = self.parse_choice()
                left = Par(actions, left, right)
            else:
                return left

    def parse_choice(self) -> Term:
        left = self.parse_prefix()
        while self.at_sym("+"):
            self.advance()
            right = self.parse_prefix()
            left = Choice(left, right)
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

    def parse_prefix(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text == "nil":
                self.advance()
                return Nil()
            if _is_const_name(tok.text):
                nxt = self.peek(1)
                if nxt.kind == "sym" and nxt.text == ".":
                    raise self.error(
                        "prefix actions must start with a lowercase letter", tok
                    )
                self.advance()
                self.const_sites.append((tok.text, tok.line, tok.col))
                return Const(tok.text)
            if _is_action_name(tok.text):
                return self.parse_action_prefix()
            raise self.error(f"unexpected keyword {tok.text!r}", tok)
        if tok.kind == "number":
            if self.lang in ("iml", "mal"):
                rate = self.parse_positive_rational("rate")
                self.expect_sym(".")
                return RatePrefix(rate, self.parse_prefix())
            raise self.error("numeric delay-rate prefixes are not part of this language", tok)
        if tok.kind == "sym" and tok.text == "(":
            if self.lang == "pepa":
                nxt = self.peek(1)
                after = self.peek(2)
                if nxt.kind == "ident" and after.kind == "sym" and after.text == ",":
                    return self.parse_rated_prefix()
            if self.lang == "tpc" and self.peek(1).kind == "number":
                return self.parse_time_prefix()
            self.advance()
            term = self.parse_term()
            self.expect_sym(")")
            return term
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise self.error(f"expected a process term, found {shown!r}", tok)

    def parse_action_prefix(self) -> Term:
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
            return ActPrefix(action, self.parse_prefix())
        raise self.error(f"unsupported language {self.lang!r}", tok)  # pragma: no cover

    def parse_rated_prefix(self) -> Term:
        self.expect_sym("(")
        tok = self.peek()
        if tok.kind != "ident" or not _is_action_name(tok.text):
            raise self.error("prefix actions must start with a lowercase letter", tok)
        action = self.advance().text
        self.expect_sym(",")
        rate = self.parse_positive_rational("rate")
        self.expect_sym(")")
        self.expect_sym(".")
        return RatedPrefix(action, rate, self.parse_prefix())

    def parse_time_prefix(self) -> Term:
        self.expect_sym("(")
        delay = self.parse_positive_int("delay")
        self.expect_sym(")")
        self.expect_sym(".")
        return TimePrefix(delay, self.parse_prefix())

    def parse_prob_branches(self, action: str) -> Term:
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
        return ProbPrefix(action, tuple(branches))


def _check_lang(lang: str) -> str:
    if lang not in LANGUAGES:
        raise ValueError(f"unknown language {lang!r}; expected one of {', '.join(LANGUAGES)}")
    return lang


def parse_term(text: str, lang: str) -> Term:
    """Parse one term (as used on the CLI and in ``init`` lines).

    Constants are not resolved here; use :func:`parse_model` or check
    the result against a model's definitions.
    """
    _check_lang(lang)
    parser = _Parser(_lex_line(text, 1), lang)
    term = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.error(f"unexpected trailing input {tok.text!r}", tok)
    return term


def parse_model(text: str, lang: str) -> Model:
    """Parse a whole model file: definitions plus one ``init`` line."""
    _check_lang(lang)
    defs: dict = {}
    def_lines: dict = {}
    const_sites: list = []
    init_term: Optional[Term] = None
    saw_anything = False
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(raw, lineno)
        if tokens[0].kind == "eof":
            continue
        saw_anything = True
        head = tokens[0]
        if head.kind == "ident" and head.text == "init":
            if init_term is not None:
                raise ParseError("duplicate 'init' line", head.line, head.col)
            parser = _Parser(tokens, lang)
            parser.advance()  # 'init'
            init_term = parser.parse_term()
            tok = parser.peek()
            if tok.kind != "eof":
                raise parser.error(f"unexpected trailing input {tok.text!r}", tok)
            const_sites.extend(parser.const_sites)
            continue
        if head.kind == "ident" and _is_const_name(head.text):
            eq = tokens[1] if len(tokens) > 1 else None
            if eq is not None and eq.kind == "sym" and eq.text == "=":
                name = head.text
                if name in defs:
                    raise DuplicateConstantError(
                        f"constant {name!r} defined at line {def_lines[name]} "
                        f"and line {lineno}"
                    )
                parser = _Parser(tokens, lang)
                parser.advance()  # name
                parser.advance()  # '='
                body = parser.parse_term()
                tok = parser.peek()
                if tok.kind != "eof":
                    raise parser.error(f"unexpected trailing input {tok.text!r}", tok)
                defs[name] = body
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
    if init_term is None:
        raise ParseError("missing 'init' line", lineno or 1, 1)
    for name, line, col in const_sites:
        if name not in defs:
            raise UndefinedConstantError(
                f"undefined process constant {name!r} (line {line}, column {col})"
            )
    return Model(lang, defs, init_term)


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


def undefined_constants(model: Model) -> list:
    """Names of constants referenced anywhere but never defined."""
    missing = []
    terms = list(model.defs.values()) + [model.init]
    for term in terms:
        for sub in walk(term):
            if isinstance(sub, Const) and sub.name not in model.defs:
                if sub.name not in missing:
                    missing.append(sub.name)
    return missing


def _naked_constants(term: Term) -> Iterator[str]:
    """Constants reachable without crossing any prefix."""
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Const):
            yield t.name
        elif isinstance(t, (Choice, Coop, Par)):
            stack.append(t.right)
            stack.append(t.left)
        # any prefix form guards its continuation


def check_guarded(model: Model) -> None:
    """Reject models whose constants can reach themselves without

    crossing a prefix (such recursion has no well-defined behaviour).
    """
    missing = undefined_constants(model)
    if missing:
        raise UndefinedConstantError(f"undefined process constant {missing[0]!r}")
    graph = {name: sorted(set(_naked_constants(body))) for name, body in model.defs.items()}
    state: dict = {}  # name -> "active" | "done"
    path: list = []

    def visit(name: str) -> None:
        status = state.get(name)
        if status == "done":
            return
        if status == "active":
            cycle = path[path.index(name):] + [name]
            raise UnguardedRecursionError(
                f"constant {cycle[0]!r} is not guarded: " + " -> ".join(cycle)
            )
        state[name] = "active"
        path.append(name)
        for dep in graph[name]:
            visit(dep)
        path.pop()
        state[name] = "done"

    for name in model.defs:
        visit(name)


def term_actions(term: Term) -> set:
    """All action names occurring in one term (prefixes and sync sets)."""
    actions = set()
    for sub in walk(term):
        if isinstance(sub, (RatedPrefix, ActPrefix, ProbPrefix)):
            actions.add(sub.action)
        elif isinstance(sub, (Coop, Par)):
            actions.update(sub.actions)
    return actions


def alphabet(model: Model) -> list:
    """All action names occurring anywhere in the model, sorted.

    Both prefix actions and synchronisation-set members count, so the
    label set of a model is stable across exploration.
    """
    actions = set()
    for term in list(model.defs.values()) + [model.init]:
        actions.update(term_actions(term))
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
    if isinstance(term, Nil):
        return "nil"
    if isinstance(term, Const):
        return term.name
    if isinstance(term, RatedPrefix):
        return f"({term.action}, {_format_rational(term.rate)}).{term_key(term.cont)}"
    if isinstance(term, ActPrefix):
        return f"{term.action}.{term_key(term.cont)}"
    if isinstance(term, RatePrefix):
        # spaces keep the rate and a numeric continuation from fusing
        # into one decimal literal when the key is re-parsed
        return f"{_format_rational(term.rate)} . {term_key(term.cont)}"
    if isinstance(term, TimePrefix):
        return f"({term.delay}).{term_key(term.cont)}"
    if isinstance(term, ProbPrefix):
        inner = " [] ".join(
            f"{_format_rational(p)}: {term_key(cont)}" for p, cont in term.branches
        )
        return f"{term.action}.{{{inner}}}"
    if isinstance(term, Choice):
        return f"({term_key(term.left)} + {term_key(term.right)})"
    if isinstance(term, Coop):
        return f"({term_key(term.left)} <{_format_actions(term.actions)}> {term_key(term.right)})"
    if isinstance(term, Par):
        return (
            f"({term_key(term.left)} |[{_format_actions(term.actions)}]| "
            f"{term_key(term.right)})"
        )
    raise TypeError(f"not a term: {term!r}")  # pragma: no cover


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


def pretty(term: Term) -> str:
    """Readable text for a term, with only the necessary parentheses."""

    def go(t: Term, min_prec: int) -> str:
        text = render(t)
        if _prec(t) < min_prec:
            return f"({text})"
        return text

    def render(t: Term) -> str:
        if isinstance(t, Nil):
            return "nil"
        if isinstance(t, Const):
            return t.name
        if isinstance(t, RatedPrefix):
            return f"({t.action}, {_format_rational(t.rate)}).{go(t.cont, _PREC_PREFIX)}"
        if isinstance(t, ActPrefix):
            return f"{t.action}.{go(t.cont, _PREC_PREFIX)}"
        if isinstance(t, RatePrefix):
            return f"{_format_rational(t.rate)} . {go(t.cont, _PREC_PREFIX)}"
        if isinstance(t, TimePrefix):
            return f"({t.delay}).{go(t.cont, _PREC_PREFIX)}"
        if isinstance(t, ProbPrefix):
            inner = " [] ".join(
                f"{_format_rational(p)}: {go(cont, _PREC_PAR)}" for p, cont in t.branches
            )
            return f"{t.action}.{{{inner}}}"
        if isinstance(t, Choice):
            return f"{go(t.left, _PREC_CHOICE)} + {go(t.right, _PREC_CHOICE + 1)}"
        if isinstance(t, Coop):
            return (
                f"{go(t.left, _PREC_PAR)} <{_format_actions(t.actions)}> "
                f"{go(t.right, _PREC_PAR + 1)}"
            )
        if isinstance(t, Par):
            return (
                f"{go(t.left, _PREC_PAR)} |[{_format_actions(t.actions)}]| "
                f"{go(t.right, _PREC_PAR + 1)}"
            )
        raise TypeError(f"not a term: {t!r}")  # pragma: no cover

    return render(term)
