"""Seeded synthetic corpora and topics.

Words are drawn from a Zipf(1) distribution over a seeded vocabulary of
six-letter pseudo-words, so a few terms occur in nearly every document
and most occur in a handful, as in natural text. The same seed always
gives byte-identical documents and topics.
"""

from __future__ import annotations

import itertools
import random

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def vocabulary(rng: random.Random, size: int) -> list[str]:
    """`size` distinct pseudo-words in Zipf rank order."""
    space = len(_SYLLABLES) ** 3
    if size > space:
        raise ValueError(f"vocabulary size {size} exceeds {space}")
    words = []
    for code in rng.sample(range(space), size):
        a, rest = divmod(code, len(_SYLLABLES) ** 2)
        b, c = divmod(rest, len(_SYLLABLES))
        words.append(_SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c])
    return words


class ZipfText:
    """Seeded source of Zipf-distributed documents and topics."""

    def __init__(self, seed: int, vocab_size: int) -> None:
        self.rng = random.Random(seed)
        self.vocab = vocabulary(self.rng, vocab_size)
        self.cum_weights = list(
            itertools.accumulate(1.0 / rank for rank in range(1, vocab_size + 1))
        )

    def words(self, n: int) -> str:
        return " ".join(self.rng.choices(self.vocab, cum_weights=self.cum_weights, k=n))

    def documents(self, n: int, mean_len: int) -> list[dict]:
        spread = mean_len // 4
        return [
            {
                "docno": f"d{i:06d}",
                "text": self.words(self.rng.randint(mean_len - spread, mean_len + spread)),
            }
            for i in range(n)
        ]

    def topics(self, n: int, terms: int, prefix: str = "q") -> list[dict]:
        return [{"qid": f"{prefix}{i:05d}", "query": self.words(terms)} for i in range(n)]
