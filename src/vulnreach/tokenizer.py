"""Lexical token counting used for block-size thresholds.

The size threshold that drives segmentation is measured in tokens. The
default tokenizer is a plain lexical one: identifier/number runs count as
one token each, every other non-space character counts individually. It
needs no vocabulary, so indexing stays offline-testable.
"""

from __future__ import annotations

import re

_LEXEME = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class LexicalTokenizer:
    """Whitespace-and-punctuation tokenizer: `int x = 0;` -> 5 tokens."""

    name = "lexical"

    def tokenize(self, text: str) -> list[str]:
        return _LEXEME.findall(text)

    def count(self, text: str) -> int:
        return len(_LEXEME.findall(text))


DEFAULT_TOKENIZER = LexicalTokenizer()
