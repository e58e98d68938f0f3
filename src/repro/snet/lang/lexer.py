"""Tokenizer for the S-Net surface syntax."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.snet.errors import ParseError

__all__ = ["Token", "tokenize", "TokenStream"]


#: multi-character operators, longest first so that maximal munch works
_MULTI = [
    "[|",
    "|]",
    "..",
    "||",
    "**",
    "!!",
    "!@",
    "->",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
]

_SINGLE = "{}()[]<>|*!@,;=+-/%."

_KEYWORDS = {"net", "box", "connect", "type", "typesig"}


@dataclass(frozen=True)
class Token:
    """A lexical token with source position (1-based line/column)."""

    kind: str  # 'ident', 'int', 'op', 'keyword', 'eof'
    text: str
    line: int
    column: int

    def is_op(self, *ops: str) -> bool:
        return self.kind == "op" and self.text in ops

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "keyword" and self.text in words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Turn S-Net source text into a list of tokens (terminated by EOF)."""
    tokens: List[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        # whitespace
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        # comments: // ... end of line,  /* ... */
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise ParseError("unterminated block comment", line, col)
            skipped = source[i : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        # multi-character operators
        matched = False
        for op in _MULTI:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, col))
                i += len(op)
                col += len(op)
                matched = True
                break
        if matched:
            continue
        # identifiers / keywords
        if ch.isalpha() or ch == "_" or ch == "#":
            j = i
            if ch == "#":
                j += 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in _KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        # integers
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        # single-character operators
        if ch in _SINGLE:
            tokens.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    """A cursor over a token list with one-token lookahead helpers."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    @classmethod
    def from_source(cls, source: str) -> "TokenStream":
        return cls(tokenize(source))

    def peek(self, offset: int = 0) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def accept_op(self, *ops: str) -> Optional[Token]:
        if self.peek().is_op(*ops):
            return self.next()
        return None

    def expect_op(self, *ops: str) -> Token:
        tok = self.peek()
        if not tok.is_op(*ops):
            raise ParseError(
                f"expected {' or '.join(repr(o) for o in ops)}, got {tok.text!r}",
                tok.line,
                tok.column,
            )
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, got {tok.text!r}", tok.line, tok.column)
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if not tok.is_keyword(word):
            raise ParseError(f"expected {word!r}, got {tok.text!r}", tok.line, tok.column)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message + f" (near {tok.text!r})", tok.line, tok.column)
