"""Pronunciation lexicon backed by a phone-sequence prefix trie."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .ctc import min_frames
from .errors import DataError
from .phones import G2pError, PhoneInventory, default_inventory, g2p


class TrieNode:
    __slots__ = ("children", "words", "phone_path")

    def __init__(self, phone_path: tuple[int, ...] = ()):
        self.children: dict[int, TrieNode] = {}
        self.words: list[str] = []  # words whose pronunciation ends here
        self.phone_path = phone_path


class FlatTrie:
    """The pronunciation trie as arrays, for the array beam search.

    Nodes are numbered in preorder with children in phone order, so node-id
    order is phone_path order; node 0 is the root. The arcs leaving node n
    are arc_phone/arc_dest/arc_word[arc_start[n]:arc_start[n + 1]]: the
    in-word child arcs (arc_word -1), then for each word ending at n one
    arc per root child that finishes the word and enters the child. The
    words ending at n are word_ids[word_start[n]:word_start[n + 1]], as
    indices into `words`.
    """

    def __init__(self, root: TrieNode, words: list[str]):
        nodes, stack = [], [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children[k] for k in sorted(node.children, reverse=True))
        node_id = {id(node): i for i, node in enumerate(nodes)}
        word_id = {w: i for i, w in enumerate(words)}
        root_arcs = [(k, node_id[id(root.children[k])]) for k in sorted(root.children)]
        arcs, ends = [], []
        arc_start, word_start = [0], [0]
        for node in nodes:
            arcs.extend((k, node_id[id(node.children[k])], -1) for k in sorted(node.children))
            for w in node.words:
                arcs.extend((k, dest, word_id[w]) for k, dest in root_arcs)
                ends.append(word_id[w])
            arc_start.append(len(arcs))
            word_start.append(len(ends))
        self.words = words
        self.last_phone = np.array([n.phone_path[-1] if n.phone_path else -1 for n in nodes],
                                   dtype=np.int64)
        self.arc_start = np.array(arc_start, dtype=np.int64)
        self.arc_phone, self.arc_dest, self.arc_word = (
            np.array(column, dtype=np.int64) for column in zip(*arcs))
        self.word_start = np.array(word_start, dtype=np.int64)
        self.word_ids = np.array(ends, dtype=np.int64)

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
        self.root = TrieNode()
        for word, phones in self.pronunciations.items():
            node = self.root
            for p in phones:
                if p not in node.children:
                    node.children[p] = TrieNode(node.phone_path + (p,))
                node = node.children[p]
            node.words.append(word)
        for node in self.iter_nodes():
            node.words.sort()
        self.flat = FlatTrie(self.root, list(self.pronunciations))
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

    def iter_nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

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
