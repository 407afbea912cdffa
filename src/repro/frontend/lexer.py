"""Lexer for the Cilk-like frontend language.

TAPAS is language agnostic — anything that lowers to the parallel IR
works (§III-F). This small language provides ``cilk_for``, ``spawn``,
``sync`` and ``spawn { ... }`` pipe-stage blocks, which covers every
concurrency pattern in the paper's benchmarks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import LexError

KEYWORDS = {
    "func", "var", "global", "if", "else", "while", "for", "cilk_for",
    "spawn", "sync", "return", "i8", "i16", "i32", "i64", "f32",
}

#: multi-character operators, longest first so maximal munch works
OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
    ";", ",", ":", "(", ")", "{", "}", "[", "]",
]


@dataclass
class Token:
    kind: str       # 'ident', 'int', 'float', 'op', 'keyword', 'eof'
    text: str
    line: int
    column: int

    def __repr__(self):
        return f"<{self.kind} {self.text!r} @{self.line}:{self.column}>"


#: one pattern, tried in the order the language needs: trivia, words,
#: hex before decimal, float before int, operators longest first; an
#: opening ``/*`` that reaches here has no closing ``*/``
_MASTER = re.compile(
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<float>\d+\.\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<unterminated>/\*)"
    rf"|(?P<op>{'|'.join(map(re.escape, OPERATORS))})", re.DOTALL)


class Lexer:
    def __init__(self, source: str):
        self.source = source

    def tokens(self) -> List[Token]:
        source = self.source
        result = []
        pos, line, line_start = 0, 1, 0
        while pos < len(source):
            match = _MASTER.match(source, pos)
            column = pos - line_start + 1
            if match is None:
                raise LexError(f"unexpected character {source[pos]!r}",
                               line, column)
            kind, text, pos = match.lastgroup, match.group(), match.end()
            if kind == "trivia":
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos - len(text) + text.rindex("\n") + 1
                continue
            if kind == "ident":
                if text in KEYWORDS:
                    kind = "keyword"
                elif not (text[0].isalpha() or text[0] == "_"):
                    # \w also admits numerics that are not decimal digits
                    # (superscripts, fractions): no token starts with one
                    raise LexError(f"unexpected character {text[0]!r}",
                                   line, column)
            elif kind == "hex":
                if len(text) == 2:
                    raise LexError("malformed hex literal", line, column)
                kind = "int"
            elif kind == "int":
                if source[pos:pos + 1].isalpha():
                    raise LexError(f"malformed number near {text!r}",
                                   line, column)
            elif kind == "unterminated":
                raise LexError("unterminated block comment", line, column)
            result.append(Token(kind, text, line, column))
        result.append(Token("eof", "", line, pos - line_start + 1))
        return result


def tokenize(source: str) -> List[Token]:
    return Lexer(source).tokens()
