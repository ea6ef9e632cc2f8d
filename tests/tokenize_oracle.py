"""One pattern match per blank run and per token, kept as a reference.

It is how parser.tokenize read text before blanks were folded into the
token pattern: a loop that matches at each position, runs of blanks
included, and raises at the first character no alternative matches.
Tests compare tokenize against it, token by token and error by error.
"""

from __future__ import annotations

import re
from typing import List

from opptypes import ParseError
from opptypes.parser import Token

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>--[^\n]*)
  | (?P<nl>\n)
  | (?P<word>[a-zA-Z][a-zA-Z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<sym>->|<~|=>|[()<>,:;.*+~\\{}|&])
""", re.VERBOSE)


def tokenize(text: str) -> List[Token]:
    tokens = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - bol + 1)
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            bol = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append(Token(kind, m.group(), line, pos - bol + 1,
                                pos, m.end()))
        pos = m.end()
    tokens.append(Token("eof", "", line, len(text) - bol + 1,
                        len(text), len(text)))
    return tokens
