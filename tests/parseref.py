"""The recursive-descent parser that ``futsbench.syntax`` replaced, kept
as the reference that the library's parser is checked against; only its
calls into the term table follow the table's ``intern(form, *fields)``.

It lexes a line character by character into ``_Token`` objects and recurses
once per parenthesis and distribution, so it fails on deep nesting with
``RecursionError``.  ``parse_term`` and ``parse_model`` intern into a
library ``Model`` exactly as the library's functions of the same names do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Union

from futsbench.errors import (
    DuplicateConstantError,
    ParseError,
    UndefinedConstantError,
)
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
    check_guarded,
)

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
                left = self.intern(Coop, actions, left, self.parse_choice())
            elif self.lang != "pepa" and self.at_sym("|["):
                actions = self.parse_action_set("|[", "]|")
                left = self.intern(Par, actions, left, self.parse_choice())
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
            left = self.intern(Choice, left, self.parse_prefix())
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
            head = make(head)
        return head

    def parse_head(self) -> Union[int, Callable[[int], int]]:
        """One prefix, as the map from its continuation's id to its own id;

        or the id of a term that no prefix starts.
        """
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text == "nil":
                self.advance()
                return self.intern(Nil)
            if _is_const_name(tok.text):
                nxt = self.peek(1)
                if nxt.kind == "sym" and nxt.text == ".":
                    raise self.error(
                        "prefix actions must start with a lowercase letter", tok
                    )
                self.advance()
                self.const_sites.append((tok.text, tok.line, tok.col))
                return self.intern(Const, tok.text)
            if _is_action_name(tok.text):
                return self.parse_action_head()
            raise self.error(f"unexpected keyword {tok.text!r}", tok)
        if tok.kind == "number":
            if self.lang in ("iml", "mal"):
                rate = self.parse_positive_rational("rate")
                self.expect_sym(".")
                return partial(self.intern, RatePrefix, rate)
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

    def parse_action_head(self) -> Union[int, Callable[[int], int]]:
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
            return partial(self.intern, ActPrefix, action)
        raise self.error(f"unsupported language {self.lang!r}", tok)  # pragma: no cover

    def parse_rated_head(self) -> Callable[[int], int]:
        self.expect_sym("(")
        tok = self.peek()
        if tok.kind != "ident" or not _is_action_name(tok.text):
            raise self.error("prefix actions must start with a lowercase letter", tok)
        action = self.advance().text
        self.expect_sym(",")
        rate = self.parse_positive_rational("rate")
        self.expect_sym(")")
        self.expect_sym(".")
        return partial(self.intern, RatedPrefix, action, rate)

    def parse_time_head(self) -> Callable[[int], int]:
        self.expect_sym("(")
        delay = self.parse_positive_int("delay")
        self.expect_sym(")")
        self.expect_sym(".")
        return partial(self.intern, TimePrefix, delay)

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
        return self.intern(ProbPrefix, action, tuple(branches))


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
