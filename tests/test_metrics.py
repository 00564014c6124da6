import json

import pytest

from oracles import recursive_edit_distance
from shona_asr.errors import DataError
from shona_asr.metrics import align, normalize_text, report, ser, wer


def test_identical_sequences_align_with_zero_cost():
    a = align(list("abcd"), list("abcd"))
    assert a.cost == 0
    assert a.matches == 4
    assert all(kind == "match" for kind, _, _ in a.ops)


def test_single_substitution():
    a = align(["a", "b", "c", "d"], ["a", "x", "c", "d"])
    assert (a.substitutions, a.deletions, a.insertions) == (1, 0, 0)


def test_alignment_count_identities(rng):
    for _ in range(50):
        ref = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 9))]
        hyp = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 9))]
        a = align(ref, hyp)
        assert a.substitutions + a.deletions + a.matches == len(ref)
        assert a.substitutions + a.insertions + a.matches == len(hyp)


def test_cost_matches_recursive_oracle_200_pairs(rng):
    for _ in range(200):
        ref = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 9))]
        hyp = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 9))]
        assert align(ref, hyp).cost == recursive_edit_distance(ref, hyp)


def test_total_cost_symmetric_under_argument_swap(rng):
    # only the total is symmetric; tie-breaking can relabel del/ins
    for _ in range(30):
        ref = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 8))]
        hyp = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 8))]
        assert align(ref, hyp).cost == align(hyp, ref).cost


def test_empty_sequences_allowed():
    assert align([], []).cost == 0
    assert align(["a"], []).deletions == 1
    assert align([], ["a"]).insertions == 1


def test_wer_identical_corpora_is_zero():
    pairs = [(["a", "b"], ["a", "b"]), (["c"], ["c"])]
    assert wer(pairs) == 0.0
    assert ser(pairs) == 0.0


def test_wer_quarter_on_one_of_four_words():
    assert wer([(["a", "b", "c", "d"], ["a", "x", "c", "d"])]) == 0.25


def test_wer_pooled_not_averaged():
    pairs = [(["a"] * 9, ["a"] * 9), (["b"], ["x"])]
    assert wer(pairs) == pytest.approx(0.1)


def test_wer_can_exceed_one_with_insertions():
    assert wer([(["a"], ["a", "b", "c"])]) == 2.0


def test_ser_definition_and_bounds(rng):
    for _ in range(20):
        pairs = []
        for _ in range(int(rng.integers(1, 6))):
            ref = [int(x) for x in rng.integers(0, 3, size=rng.integers(1, 5))]
            hyp = [int(x) for x in rng.integers(0, 3, size=rng.integers(0, 5))]
            pairs.append((ref, hyp))
        s = ser(pairs)
        assert 0.0 <= s <= 1.0
        assert s == sum(1 for r, h in pairs if r != h) / len(pairs)


def test_empty_pair_list_rejected():
    with pytest.raises(DataError):
        wer([])
    with pytest.raises(DataError):
        ser([])
    with pytest.raises(DataError, match="no tokens"):
        wer([([], ["a"])])


def test_report_perfect_system():
    pairs = [(["a", "b"], ["a", "b"])]
    rep = report(pairs, [([1, 2], [1, 2])])
    assert rep.word_accuracy == 1.0
    assert rep.sentence_accuracy == 1.0
    assert rep.wer == 0.0


def test_report_29_percent_wer_gives_71_percent_accuracy():
    # 29/100 errors; accuracy reported as 1 - WER, not the paper-style figure
    ref = [f"w{i}" for i in range(100)]
    hyp = ["x" + w if i < 29 else w for i, w in enumerate(ref)]
    rep = report([(ref, hyp)], [(list(range(10)), list(range(10)))])
    assert rep.wer == pytest.approx(0.29)
    assert rep.word_accuracy == pytest.approx(0.71)


def test_report_clamps_word_accuracy_at_zero():
    rep = report([(["a"], ["x", "y", "z"])], [([1], [2, 3])])
    assert rep.wer > 1.0
    assert rep.word_accuracy == 0.0


def test_report_count_mismatch_rejected():
    with pytest.raises(DataError, match="differ"):
        report([(["a"], ["a"])], [])


def test_report_json_schema():
    rep = report([(["a"], ["a"])], [([1], [1])])
    obj = json.loads(json.dumps(rep.to_dict()))
    assert set(obj) == {"wer", "per", "ser", "word_accuracy", "sentence_accuracy",
                        "n_utts", "n_ref_words", "n_ref_phones"}
    assert obj["n_utts"] == 1
    assert "wer" in rep.to_table()


def test_normalize_text():
    assert normalize_text("Mhoro,  Shamwari!") == ["mhoro", "shamwari"]
    assert normalize_text("A1b2c") == ["a", "b", "c"]

