"""Tokenizer for the Mantle-Lua policy language.

The language is the subset of Lua 5.1 that Mantle balancer policies use
(paper Listings 1-4): numbers, strings, names, keywords, the usual operator
set, table constructors, and ``--`` line comments / ``--[[ ]]`` block
comments.
"""

from __future__ import annotations

from typing import Iterator

from ..dataclass import dataclass
from .errors import LuaSyntaxError

KEYWORDS = frozenset(
    {
        "and", "break", "do", "else", "elseif", "end", "false", "for",
        "function", "if", "in", "local", "nil", "not", "or", "repeat",
        "return", "then", "true", "until", "while",
    }
)

# Multi-character operators must be matched before their prefixes.
_SYMBOLS = (
    "...", "..", "==", "~=", "<=", ">=",
    "+", "-", "*", "/", "%", "^", "#",
    "<", ">", "=", "(", ")", "{", "}", "[", "]",
    ";", ":", ",", ".",
)


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based)."""

    kind: str  # 'name' | 'number' | 'string' | 'keyword' | 'symbol' | 'eof'
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


class Lexer:
    """Streaming tokenizer over policy source text."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low-level cursor helpers -------------------------------------
    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def _advance(self, n: int = 1) -> str:
        text = self.source[self.pos : self.pos + n]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += n
        return text

    def _error(self, message: str) -> LuaSyntaxError:
        return LuaSyntaxError(message, self.line, self.column)

    # -- token production ----------------------------------------------
    def tokens(self) -> Iterator[Token]:
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                yield Token("eof", "", self.line, self.column)
                return
            yield self._next_token()

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                self._advance(2)
                if self._peek() == "[" and self._peek(1) == "[":
                    self._advance(2)
                    self._skip_until("]]", what="block comment")
                else:
                    while self.pos < len(self.source) and self._peek() != "\n":
                        self._advance()
            else:
                return

    def _skip_until(self, terminator: str, what: str) -> str:
        start = self.pos
        idx = self.source.find(terminator, self.pos)
        if idx < 0:
            raise self._error(f"unterminated {what}")
        text = self.source[start:idx]
        self._advance(idx - start + len(terminator))
        return text

    def _next_token(self) -> Token:
        line, column = self.line, self.column
        ch = self._peek()
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._read_number(line, column)
        if ch.isalpha() or ch == "_":
            return self._read_name(line, column)
        if ch in "'\"":
            return self._read_string(line, column)
        if ch == "[" and self._peek(1) == "[":
            self._advance(2)
            text = self._skip_until("]]", what="long string")
            return Token("string", text, line, column)
        for sym in _SYMBOLS:
            if self.source.startswith(sym, self.pos):
                self._advance(len(sym))
                return Token("symbol", sym, line, column)
        raise self._error(f"unexpected character {ch!r}")

    def _read_number(self, line: int, column: int) -> Token:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if not self._is_hex(self._peek()):
                raise self._error("malformed hexadecimal number")
            while self._is_hex(self._peek()):
                self._advance()
            return Token("number", self.source[start : self.pos], line, column)
        while self._peek().isdigit():
            self._advance()
        if self._peek() == ".":
            # Do not swallow the concatenation operator '..'
            if self._peek(1) == ".":
                return Token("number", self.source[start : self.pos], line, column)
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in ("e", "E"):
            nxt = self._peek(1)
            if nxt.isdigit() or (nxt in ("+", "-") and self._peek(2).isdigit()):
                self._advance(2)
                while self._peek().isdigit():
                    self._advance()
        text = self.source[start : self.pos]
        if text in {".", ""}:
            raise self._error("malformed number")
        return Token("number", text, line, column)

    @staticmethod
    def _is_hex(ch: str) -> bool:
        return bool(ch) and ch in "0123456789abcdefABCDEF"

    def _read_name(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        kind = "keyword" if text in KEYWORDS else "name"
        return Token(kind, text, line, column)

    def _read_string(self, line: int, column: int) -> Token:
        quote = self._advance()
        parts: list[str] = []
        while True:
            if self.pos >= len(self.source):
                raise self._error("unterminated string")
            ch = self._advance()
            if ch == quote:
                break
            if ch == "\n":
                raise self._error("unterminated string")
            if ch == "\\":
                parts.append(self._read_escape())
            else:
                parts.append(ch)
        return Token("string", "".join(parts), line, column)

    def _read_escape(self) -> str:
        ch = self._advance()
        simple = {"n": "\n", "t": "\t", "r": "\r", "a": "\a", "b": "\b",
                  "f": "\f", "v": "\v", "\\": "\\", '"': '"', "'": "'",
                  "\n": "\n"}
        if ch in simple:
            return simple[ch]
        if ch.isdigit():
            digits = ch
            while len(digits) < 3 and self._peek().isdigit():
                digits += self._advance()
            code = int(digits)
            if code > 255:
                raise self._error("decimal escape too large")
            return chr(code)
        raise self._error(f"invalid escape sequence \\{ch}")


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, returning a list ending with the EOF token."""
    return list(Lexer(source).tokens())
