"""Lexical token counting used for block-size thresholds.

The size threshold that drives segmentation is measured in tokens. The
default tokenizer is a plain lexical one: identifier/number runs count as
one token each, every other non-space character counts individually. It
needs no vocabulary, so indexing stays offline-testable. ``count_prefixes``
counts a file's tokens before each of its line starts in one numpy pass.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

_LEXEME = re.compile(r"\w+|[^\w\s]", re.UNICODE)

_OTHER, _BLANK, _WORD = 0, 1, 2


def _char_class(ch: str) -> int:
    """``re``'s classes: ``\\w`` is ``isalnum()`` or ``_``, ``\\s`` is ``isspace()``."""
    return _WORD if ch.isalnum() or ch == "_" else _BLANK if ch.isspace() else _OTHER


_LATIN1_CLASSES = bytes(_char_class(chr(c)) for c in range(256))


def _classes(text: str) -> np.ndarray:
    """The class of each character of ``text``, as int8."""
    # Every character past U+00FF encodes as "?", then gets its own class.
    latin1 = text.encode("latin-1", "replace").translate(_LATIN1_CLASSES)
    classes = np.frombuffer(bytearray(latin1), dtype=np.int8)
    if not text.isascii():
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        high = np.flatnonzero(points > 0xFF)
        distinct, inverse = np.unique(points[high], return_inverse=True)
        classes[high] = np.array([_char_class(chr(p)) for p in distinct.tolist()], np.int8)[inverse]
    return classes


class LexicalTokenizer:
    """Whitespace-and-punctuation tokenizer: `int x = 0;` -> 5 tokens."""

    def count(self, text: str) -> int:
        return len(_LEXEME.findall(text))

    def count_prefixes(self, text: str, ends: Sequence[int]) -> np.ndarray:
        """``[self.count(text[:end]) for end in ends]`` in one pass: a
        prefix's count is the tokens that start in it, and whether a
        character starts one depends on it and the one before it alone."""
        classes = _classes(text)
        starts = classes == _WORD
        starts[1:] &= ~starts[:-1]  # a run of word characters is one token
        starts |= classes == _OTHER
        return np.searchsorted(np.flatnonzero(starts), ends)


DEFAULT_TOKENIZER = LexicalTokenizer()
