import re
import sys

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from vulnreach import tokenizer
from vulnreach.tokenizer import DEFAULT_TOKENIZER, LexicalTokenizer


def tokenize(text: str) -> list[str]:
    """The lexemes ``LexicalTokenizer.count`` counts: runs of word
    characters, and each other non-blank character alone."""
    return re.findall(r"\w+|[^\w\s]", text)


def test_statement_token_count():
    assert tokenize("int x = 0;") == ["int", "x", "=", "0", ";"]
    assert DEFAULT_TOKENIZER.count("int x = 0;") == 5


def test_empty_and_whitespace():
    assert DEFAULT_TOKENIZER.count("") == 0
    assert DEFAULT_TOKENIZER.count("   \n\t ") == 0


def test_punctuation_counts_per_char():
    assert DEFAULT_TOKENIZER.count("a.b(c);") == 7  # a . b ( c ) ;


def test_identifiers_keep_underscores_and_digits():
    assert tokenize("foo_bar2 += 1_000") == ["foo_bar2", "+", "=", "1_000"]


@given(st.text(), st.text())
def test_concatenation_over_whitespace_is_additive(a: str, b: str):
    tok = LexicalTokenizer()
    assert tok.count(a + " " + b) == tok.count(a) + tok.count(b)


@given(st.text())
def test_count_matches_tokenize_length(text: str):
    tok = LexicalTokenizer()
    assert tok.count(text) == len(tokenize(text))


# Any code point, lone surrogates included, and runs of word characters,
# blanks and other characters.
_LINE_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from(["\ud800", "\udfff", "_", "a", "é", "1", " ", "\n", "\r", "+", "\x00"]),
    )
)


@given(_LINE_TEXT, st.lists(st.integers(min_value=0, max_value=50)))
def test_count_prefixes_counts_each_prefix_alone(text: str, ends: list[int]):
    tok = LexicalTokenizer()
    ends = sorted(min(end, len(text)) for end in ends)
    assert tok.count_prefixes(text, ends).tolist() == [tok.count(text[:end]) for end in ends]


def test_count_prefixes_counts_a_cut_run_once():
    ends = [0, 1, 2, 3, 4, 5, 6, 7, 8]
    assert DEFAULT_TOKENIZER.count_prefixes("ab cd+e\n", ends).tolist() == [0, 1, 1, 1, 2, 2, 3, 4, 4]
    assert DEFAULT_TOKENIZER.count_prefixes("", [0]).tolist() == [0]


def test_character_classes_are_the_regex_classes_for_every_code_point():
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    expected = np.zeros(len(text), dtype=np.int8)
    expected[[m.start() for m in re.finditer(r"\s", text)]] = tokenizer._BLANK
    expected[[m.start() for m in re.finditer(r"\w", text)]] = tokenizer._WORD
    assert np.array_equal(tokenizer._classes(text), expected)
