"""The 54-phone inventory and rule-based grapheme-to-phoneme conversion.

Shona orthography is read left to right with greedy longest-match against
the inventory's spelling units; the CV syllable shape of the language
means the result alternates onsets and vowels for native words. The
concrete symbol list lives in data/phones_sn.txt so it can be revised
without touching code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import DataError

VOWELS = ("a", "e", "i", "o", "u")


@dataclass(frozen=True)
class Phone:
    index: int
    symbol: str
    spellings: tuple[str, ...]


class PhoneInventory:
    """Ordered phone list plus the spelling units that map to each phone."""

    def __init__(self, phones: list[Phone]):
        if len({p.symbol for p in phones}) != len(phones):
            raise DataError("phone symbols must be unique")
        if [p.index for p in phones] != list(range(len(phones))):
            raise DataError("phone indices must be dense from 0")
        for p in phones:
            if not p.spellings:
                raise DataError(f"phone {p.symbol!r} has no orthographic unit")
        self.phones = phones
        self.by_symbol = {p.symbol: p for p in phones}
        self.by_spelling: dict[str, Phone] = {}
        for p in phones:
            for unit in p.spellings:
                if unit in self.by_spelling:
                    raise DataError(f"orthographic unit {unit!r} maps to two phones")
                self.by_spelling[unit] = p
        self.max_unit_len = max(len(u) for u in self.by_spelling)

    def __len__(self) -> int:
        return len(self.phones)

    def symbols(self) -> list[str]:
        return [p.symbol for p in self.phones]

    def indices_to_symbols(self, indices) -> list[str]:
        return [self.phones[i].symbol for i in indices]

    def onset_spellings(self) -> list[str]:
        """All spelling units of non-vowel phones, sorted."""
        return sorted(u for u, p in self.by_spelling.items() if p.symbol not in VOWELS)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_lines(cls, lines) -> "PhoneInventory":
        phones = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataError(f"inventory line {lineno}: expected 'index symbol units', got {line!r}")
            index, symbol, units = parts
            phones.append(Phone(int(index), symbol, tuple(units.split(","))))
        return cls(phones)

    def to_lines(self) -> list[str]:
        return [f"{p.index} {p.symbol} {','.join(p.spellings)}" for p in self.phones]

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.to_lines()) + "\n", encoding="utf-8")


@functools.lru_cache(maxsize=1)
def default_inventory() -> PhoneInventory:
    """The packaged 54-phone Shona inventory."""
    text = resources.files("shona_asr").joinpath("data/phones_sn.txt").read_text(encoding="utf-8")
    return PhoneInventory.from_lines(text.splitlines())


class G2pError(DataError):
    """A word contains a substring no orthographic unit matches."""

    def __init__(self, word: str, position: int):
        self.word = word
        self.position = position
        super().__init__(f"cannot segment {word!r} at position {position}")


def g2p(word: str, inventory: PhoneInventory | None = None) -> list[int]:
    """Greedy longest-match segmentation of a lowercase word into phones."""
    inventory = inventory or default_inventory()
    if not word:
        raise G2pError(word, 0)
    if not word.islower() or not word.isalpha():
        raise G2pError(word, next((i for i, ch in enumerate(word)
                                   if not (ch.isalpha() and ch.islower())), 0))
    out = []
    pos = 0
    while pos < len(word):
        match = None
        for length in range(min(inventory.max_unit_len, len(word) - pos), 0, -1):
            unit = word[pos:pos + length]
            if unit in inventory.by_spelling:
                match = inventory.by_spelling[unit]
                pos += length
                break
        if match is None:
            raise G2pError(word, pos)
        out.append(match.index)
    return out
