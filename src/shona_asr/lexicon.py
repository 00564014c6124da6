"""Pronunciation lexicon backed by a phone-sequence prefix trie."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .ctc import min_frames
from .errors import DataError
from .phones import G2pError, PhoneInventory, default_inventory, g2p


class FlatTrie:
    """The pronunciation trie as arrays, for the array beam search.

    A node is a distinct pronunciation prefix; numbering the sorted prefixes
    puts the nodes in preorder with children in phone order, so node-id order
    is phone-path order and node 0 is the root `()`. The arcs leaving node n
    are arc_phone/arc_dest/arc_word[arc_start[n]:arc_start[n + 1]]: the
    in-word child arcs (arc_word -1), then for each word ending at n one
    arc per root child that finishes the word and enters the child. The
    words ending at n are word_ids[word_start[n]:word_start[n + 1]], as
    indices into `words`, which is sorted.
    """

    def __init__(self, pronunciations: dict[str, tuple[int, ...]]):
        prefixes = sorted({p[:i] for p in pronunciations.values() for i in range(len(p) + 1)})
        node_id = {prefix: i for i, prefix in enumerate(prefixes)}
        children: list[list[tuple[int, int]]] = [[] for _ in prefixes]
        for prefix in prefixes[1:]:
            children[node_id[prefix[:-1]]].append((prefix[-1], node_id[prefix]))
        self.words = sorted(pronunciations)
        ends: list[list[int]] = [[] for _ in prefixes]
        for w, word in enumerate(self.words):
            ends[node_id[pronunciations[word]]].append(w)
        arcs, arc_start = [], [0]
        for n in range(len(prefixes)):
            arcs.extend((k, dest, -1) for k, dest in children[n])
            arcs.extend((k, dest, w) for w in ends[n] for k, dest in children[0])
            arc_start.append(len(arcs))
        self.last_phone = np.array([p[-1] if p else -1 for p in prefixes], dtype=np.int64)
        self.arc_start = np.array(arc_start, dtype=np.int64)
        self.arc_phone, self.arc_dest, self.arc_word = (
            np.array(column, dtype=np.int64) for column in zip(*arcs))
        self.word_start = np.cumsum([0] + [len(e) for e in ends], dtype=np.int64)
        self.word_ids = np.array([w for e in ends for w in e], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.last_phone)


class Lexicon:
    """word -> phone-index pronunciation map plus a trie for search."""

    def __init__(self, pronunciations: dict[str, tuple[int, ...]],
                 inventory: PhoneInventory, skipped: list[tuple[str, str]] | None = None):
        if not pronunciations:
            raise DataError("lexicon is empty")
        for word, phones in pronunciations.items():
            if len(phones) == 0:
                raise DataError(f"word {word!r} has an empty pronunciation")
            if any(not 0 <= p < len(inventory) for p in phones):
                raise DataError(f"word {word!r} uses a phone index outside the inventory")
        self.pronunciations = dict(sorted(pronunciations.items()))
        self.inventory = inventory
        self.skipped = skipped or []
        self.flat = FlatTrie(self.pronunciations)
        # fewest grid rows that can emit any one word
        self.min_frames = min(min_frames(list(p)) for p in self.pronunciations.values())

    def __len__(self) -> int:
        return len(self.pronunciations)

    def __contains__(self, word: str) -> bool:
        return word in self.pronunciations

    def words(self) -> list[str]:
        return list(self.pronunciations)

    def phone_symbols(self, word: str) -> list[str]:
        return self.inventory.indices_to_symbols(self.pronunciations[word])

    def save(self, path) -> None:
        lines = [f"{w} {' '.join(self.phone_symbols(w))}" for w in self.pronunciations]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path, inventory: PhoneInventory | None = None) -> "Lexicon":
        inventory = inventory or default_inventory()
        path = Path(path)
        if not path.exists():
            raise DataError(f"lexicon file not found: {path}")
        prons: dict[str, tuple[int, ...]] = {}
        for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: expected '<word> <phones...>'")
            word, symbols = parts[0], parts[1:]
            if word in prons:
                raise DataError(f"{path}:{lineno}: word {word!r} is listed twice")
            try:
                prons[word] = tuple(inventory.by_symbol[s].index for s in symbols)
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: unknown phone symbol {exc}") from exc
        return cls(prons, inventory)


def build_lexicon(words: list[str], inventory: PhoneInventory | None = None) -> Lexicon:
    """Convert a word list via g2p; unparsable words are reported and skipped."""
    inventory = inventory or default_inventory()
    if not words:
        raise DataError("word list is empty")
    pronunciations: dict[str, tuple[int, ...]] = {}
    skipped: list[tuple[str, str]] = []
    for word in words:
        if word in pronunciations:
            continue
        try:
            pronunciations[word] = tuple(g2p(word, inventory))
        except G2pError as exc:
            skipped.append((word, str(exc)))
    if not pronunciations:
        raise DataError(f"no word survived g2p (first failure: {skipped[0][1]})")
    return Lexicon(pronunciations, inventory, skipped)
