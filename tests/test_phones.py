import pytest

from oracles import greedy_segmentation_oracle
from shona_asr.errors import DataError
from shona_asr.lexicon import Lexicon, build_lexicon
from shona_asr.phones import G2pError, PhoneInventory, default_inventory, g2p


def test_inventory_has_54_phones_5_vowels():
    inv = default_inventory()
    assert len(inv) == 54
    vowels = [p for p in inv.phones if p.symbol in "aeiou"]
    assert len(vowels) == 5
    assert len(inv.phones) == 54  # the CTC blank takes the next index


def test_inventory_spec_named_digraphs_present():
    inv = default_inventory()
    for symbol in ["bh", "ch", "dz", "dzv", "mb", "mbw", "mh", "nd", "ng", "nh",
                   "ny", "nz", "pf", "sh", "sv", "ts", "tsv", "vh", "zh", "zv"]:
        assert symbol in inv.by_symbol


def test_inventory_round_trips_through_file(tmp_path):
    inv = default_inventory()
    path = tmp_path / "phones.txt"
    inv.save(path)
    back = PhoneInventory.from_lines(path.read_text(encoding="utf-8").splitlines())
    assert back.to_lines() == inv.to_lines()


def test_inventory_rejects_duplicate_units():
    with pytest.raises(DataError, match="two phones"):
        PhoneInventory.from_lines(["0 a a", "1 b a"])


def test_g2p_pure_cv_word():
    inv = default_inventory()
    result = g2p("baba", inv)
    assert inv.indices_to_symbols(result) == ["b", "a", "b", "a"]


def test_g2p_longest_match_takes_digraph():
    inv = default_inventory()
    assert inv.indices_to_symbols(g2p("mhoro", inv)) == ["mh", "o", "r", "o"]


def test_g2p_trigraph_and_alias():
    inv = default_inventory()
    assert inv.indices_to_symbols(g2p("tsvaira", inv)) == ["tsv", "a", "i", "r", "a"]
    # "hw" is an alternate spelling of the w phone
    assert inv.indices_to_symbols(g2p("hwahwa", inv)) == ["w", "a", "w", "a"]


def test_g2p_rejects_unknown_symbols_with_position():
    with pytest.raises(G2pError) as exc:
        g2p("xyz", default_inventory())
    assert exc.value.position == 0
    with pytest.raises(G2pError) as exc:
        g2p("baxa", default_inventory())
    assert exc.value.position == 2


def test_g2p_rejects_uppercase_and_empty():
    with pytest.raises(G2pError):
        g2p("Baba", default_inventory())
    with pytest.raises(G2pError):
        g2p("", default_inventory())


def test_g2p_matches_exhaustive_segmentation_oracle(rng):
    # random short unit concatenations; greedy must return the segmentation
    # with lexicographically-longest unit lengths among all segmentations
    inv = default_inventory()
    units = sorted(inv.by_spelling)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        word = "".join(units[int(rng.integers(0, len(units)))] for _ in range(n))
        if len(word) > 6:
            continue
        expected = greedy_segmentation_oracle(word, units)
        try:
            got = tuple(inv.phones[i].spellings[0] for i in g2p(word, inv))
        except G2pError:
            got = None
        if got is None:
            continue  # greedy dead-ends are allowed when spec'd elsewhere
        assert expected is not None
        got_phones = [inv.by_spelling[u].index for u in got]
        want_phones = [inv.by_spelling[u].index for u in expected]
        assert got_phones == want_phones, f"{word}: {got} vs {expected}"


def test_generated_cv_words_always_parse(rng):
    from shona_asr.corpusgen import gen_word
    inv = default_inventory()
    for _ in range(200):
        word, phones = gen_word(rng, inv, (1, 4))
        assert g2p(word, inv) == phones


# -- lexicon -----------------------------------------------------------------

def test_build_lexicon_single_word_trie_depth():
    lex = build_lexicon(["baba"])
    assert len(lex) == 1
    flat = lex.flat
    node, depth = 0, 0
    while flat.arc_word[flat.arc_start[node]] == -1:  # first arc stays inside the word
        node = int(flat.arc_dest[flat.arc_start[node]])
        depth += 1
    assert depth == 4
    assert flat.words == ["baba"]
    assert flat.word_ids[flat.word_start[node]:flat.word_start[node + 1]].tolist() == [0]


def test_build_lexicon_dedupes():
    lex = build_lexicon(["baba", "baba"])
    assert len(lex) == 1


def test_build_lexicon_skips_failures_and_reports():
    lex = build_lexicon(["baba", "xxq"])
    assert len(lex) == 1
    assert lex.skipped and lex.skipped[0][0] == "xxq"


def test_build_lexicon_all_failures_is_error():
    with pytest.raises(DataError, match="no word survived"):
        build_lexicon(["xxq", "qqx"])


def test_lexicon_trie_paths_reconstruct_word_set():
    words = ["baba", "bara", "mhoro", "svondo"]
    lex = build_lexicon(words)
    flat = lex.flat
    found = []
    stack = [(0, ())]
    while stack:
        node, path = stack.pop()
        for w in flat.word_ids[flat.word_start[node]:flat.word_start[node + 1]]:
            assert tuple(lex.pronunciations[flat.words[w]]) == path
            found.append(flat.words[w])
        for arc in range(flat.arc_start[node], flat.arc_start[node + 1]):
            if flat.arc_word[arc] == -1:
                child = int(flat.arc_dest[arc])
                assert flat.last_phone[child] == flat.arc_phone[arc]
                stack.append((child, path + (int(flat.arc_phone[arc]),)))
    assert sorted(found) == sorted(words)


def test_flat_trie_arrays_by_hand():
    # ba ends inside baba; hwa and wa are homophones ending at one node
    lex = build_lexicon(["ba", "baba", "hwa", "wa"])
    a, b, w = (lex.inventory.by_symbol[s].index for s in "abw")
    assert lex.pronunciations["hwa"] == lex.pronunciations["wa"] == (w, a)
    flat = lex.flat
    # nodes: 0 (), 1 b, 2 b a, 3 b a b, 4 b a b a, 5 w, 6 w a
    assert flat.words == ["ba", "baba", "hwa", "wa"]
    assert flat.last_phone.tolist() == [-1, b, a, b, a, w, a]
    assert flat.arc_start.tolist() == [0, 2, 3, 6, 7, 9, 10, 14]
    assert flat.arc_phone.tolist() == [b, w, a, b, b, w, a, b, w, a, b, w, b, w]
    assert flat.arc_dest.tolist() == [1, 5, 2, 3, 1, 5, 4, 1, 5, 6, 1, 5, 1, 5]
    assert flat.arc_word.tolist() == [-1, -1, -1, -1, 0, 0, -1, 1, 1, -1, 2, 2, 3, 3]
    assert flat.word_start.tolist() == [0, 0, 0, 1, 1, 2, 2, 4]
    assert flat.word_ids.tolist() == [0, 1, 2, 3]
    assert len(flat) == 7


def test_lexicon_file_round_trip(tmp_path):
    lex = build_lexicon(["baba", "mhoro"])
    lex.save(tmp_path / "lex.txt")
    back = Lexicon.load(tmp_path / "lex.txt")
    assert back.pronunciations == lex.pronunciations


def test_lexicon_file_with_duplicate_word_is_error(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("baba b a b a\nbaba m a\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"lex\.txt:2: word 'baba' is listed twice"):
        Lexicon.load(path)
