import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlproject.corpus import EMOTION_ORDER, EmotionLabel
from xlproject.metrics import (
    Attributions,
    accumulated_importance,
    build_report,
    confusion_matrix,
    corpus_accumulated_importance,
    corpus_token_f1,
    instance_token_f1,
    macro_f1,
    normalize_attributions,
    normalize_each,
)

# ---------------------------------------------------------------------------
# brute-force oracles, kept deliberately independent of the implementations


def oracle_macro_f1(gold, pred):
    scores = []
    for label in EMOTION_ORDER:
        tp = fp = fn = 0
        for g, p in zip(gold, pred):
            if p is label and g is label:
                tp += 1
            elif p is label:
                fp += 1
            elif g is label:
                fn += 1
        if tp == 0 and fp == 0 and fn == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return sum(scores) / len(scores) if scores else 0.0


def oracle_token_f1(gold_mask, pred_mask):
    tp = sum(1 for g, p in zip(gold_mask, pred_mask) if g and p)
    fp = sum(1 for g, p in zip(gold_mask, pred_mask) if not g and p)
    fn = sum(1 for g, p in zip(gold_mask, pred_mask) if g and not p)
    if sum(gold_mask) == 0 and sum(pred_mask) == 0:
        return 1.0
    if sum(gold_mask) == 0 or sum(pred_mask) == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def oracle_accumulated(gold_mask, values):
    total = 0.0
    for g, v in zip(gold_mask, values):
        if g == 1:
            total += v
    return total


class TestMacroF1:
    def test_perfect_all_classes(self):
        gold = list(EMOTION_ORDER)
        assert macro_f1(gold, list(gold)) == 1.0

    def test_total_confusion_two_classes(self):
        gold = [EmotionLabel.JOY, EmotionLabel.ANGER]
        pred = [EmotionLabel.ANGER, EmotionLabel.JOY]
        assert macro_f1(gold, pred) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            macro_f1([EmotionLabel.JOY], [])

    def test_matches_oracle_on_random_cases(self):
        rng = random.Random(1234)
        labels = list(EMOTION_ORDER)
        for _ in range(200):
            n = rng.randint(1, 50)
            gold = [rng.choice(labels) for _ in range(n)]
            pred = [rng.choice(labels) for _ in range(n)]
            assert abs(macro_f1(gold, pred) - oracle_macro_f1(gold, pred)) < 1e-12

    def test_permutation_invariant(self):
        rng = random.Random(5)
        labels = list(EMOTION_ORDER)
        gold = [rng.choice(labels) for _ in range(30)]
        pred = [rng.choice(labels) for _ in range(30)]
        order = list(range(30))
        rng.shuffle(order)
        assert macro_f1(gold, pred) == macro_f1([gold[i] for i in order], [pred[i] for i in order])


class TestInstanceTokenF1:
    def test_hand_computed_two_thirds(self):
        # TP=1, FP=0, FN=1 -> 2/(2+0+1)
        assert instance_token_f1([0, 1, 1, 0], [0, 1, 0, 0]) == pytest.approx(2 / 3)

    def test_both_empty_is_one(self):
        assert instance_token_f1([0, 0], [0, 0]) == 1.0

    def test_disjoint_is_zero(self):
        assert instance_token_f1([1, 0], [0, 1]) == 0.0

    def test_one_sided_empty_is_zero(self):
        assert instance_token_f1([1, 1], [0, 0]) == 0.0
        assert instance_token_f1([0, 0], [1, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            instance_token_f1([0, 1], [0])

    @settings(max_examples=200, deadline=None)
    @given(
        pair=st.integers(1, 10).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
            )
        )
    )
    def test_matches_oracle(self, pair):
        gold, pred = pair
        assert instance_token_f1(gold, pred) == pytest.approx(oracle_token_f1(gold, pred), abs=1e-12)


class TestCorpusTokenF1:
    def test_mean_of_two(self):
        assert corpus_token_f1([([1], [1]), ([1], [0])]) == 0.5

    def test_all_perfect(self):
        assert corpus_token_f1([([0, 1], [0, 1])] * 4) == 1.0

    def test_matches_recomputed_mean(self):
        rng = random.Random(77)
        instances = []
        for _ in range(60):
            n = rng.randint(1, 10)
            instances.append(
                ([rng.randint(0, 1) for _ in range(n)], [rng.randint(0, 1) for _ in range(n)])
            )
        want = sum(oracle_token_f1(g, p) for g, p in instances) / len(instances)
        assert corpus_token_f1(instances) == pytest.approx(want, abs=1e-12)

    # Counted for all instances at once, yet bit-equal to the mean of the
    # per-instance scores, empty instances included.
    @settings(max_examples=200, deadline=None)
    @given(instances=st.lists(
        st.integers(0, 12).flatmap(lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n))),
        min_size=1, max_size=30))
    def test_bit_equal_to_the_mean_of_per_instance_scores(self, instances):
        want = float(np.mean([oracle_token_f1(g, p) for g, p in instances]))
        assert corpus_token_f1(instances) == want

    def test_length_mismatch_names_the_first_mismatched_instance(self):
        with pytest.raises(ValueError, match="^length mismatch: 1 gold vs 2 pred$"):
            corpus_token_f1([([0], [0]), ([1], [1, 0]), ([], [0])])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            corpus_token_f1([])


class TestNormalizeAttributions:
    def test_already_normalized_unchanged(self):
        out = normalize_attributions([0.5, 0.3, 0.2])
        assert out.values == pytest.approx([0.5, 0.3, 0.2])

    def test_negative_clamped(self):
        out = normalize_attributions([0.5, -0.2, 0.5])
        assert out.values == pytest.approx([0.5, 0.0, 0.5])

    def test_all_negative_uniform(self):
        assert normalize_attributions([-1.0, -2.0]).values == pytest.approx([0.5, 0.5])

    @settings(max_examples=200, deadline=None)
    @given(raw=st.lists(st.floats(-10, 10), min_size=1, max_size=12))
    def test_output_always_sums_to_one(self, raw):
        values = normalize_attributions(raw).values
        assert all(v >= 0 for v in values)
        assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_grouped_bit_equal_to_per_sentence_numpy(self):
        # Lengths 1..300 cross numpy's 8- and 128-element summation blocks.
        rng = np.random.default_rng(12)
        lengths = list(range(1, 301)) + rng.integers(1, 301, size=300).tolist()
        raws = [(rng.normal(size=n) * rng.choice([1e-300, 1e-3, 1.0, 1e300])).tolist()
                for n in lengths]
        raws += [[-1.0] * n for n in (1, 7, 8, 9, 128, 129)]  # all negative: uniform
        raws += [[0.0] * n for n in (1, 2, 200)] + [[-0.0, 0.0, 3, -2]]  # zeros and integers
        for raw, got in zip(raws, normalize_each(raws)):
            clamped = np.clip(np.asarray(raw, dtype=np.float64), 0.0, None)
            total = clamped.sum()
            want = clamped / total if total > 0.0 else np.full(len(raw), 1.0 / len(raw))
            assert np.array_equal(got.values, want.tolist())
            assert np.array_equal(got.values, normalize_attributions(raw).values)

    @pytest.mark.parametrize("raws, problem", [([[1.0], []], "non-empty"),
                                               ([[1.0, float("nan")]], "finite"),
                                               ([[float("inf")]], "finite")])
    def test_grouped_rejects_what_one_sentence_rejects(self, raws, problem):
        with pytest.raises(ValueError, match=problem):
            normalize_each(raws)


class TestAccumulatedImportance:
    def test_hand_computed(self):
        att = Attributions(values=[0.5, 0.3, 0.2])
        assert accumulated_importance([1, 0, 1], att) == pytest.approx(0.7)

    def test_full_coverage_is_one(self):
        att = normalize_attributions([0.2, 0.5, 0.3])
        assert accumulated_importance([1, 1, 1], att) == pytest.approx(1.0)

    def test_uniform_attribution(self):
        att = Attributions(values=[1 / 3] * 3)
        assert accumulated_importance([0, 1, 0], att) == pytest.approx(1 / 3)

    def test_corpus_form_skips_no_trigger_instances(self):
        instances = [
            ([1, 0], Attributions(values=[0.6, 0.4])),
            ([0, 0], Attributions(values=[0.5, 0.5])),
        ]
        score, skipped = corpus_accumulated_importance(instances)
        assert score == pytest.approx(0.6)
        assert skipped == 1

    def test_uniform_equals_trigger_fraction(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 10)
            mask = [rng.randint(0, 1) for _ in range(n)]
            att = Attributions(values=[1.0 / n] * n)
            assert accumulated_importance(mask, att) == pytest.approx(sum(mask) / n)

    def test_precision_identity_for_binary_predictions(self):
        # normalized indicator of predicted-1 positions makes the metric TP/(TP+FP)
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 10)
            gold = [rng.randint(0, 1) for _ in range(n)]
            pred = [rng.randint(0, 1) for _ in range(n)]
            if sum(pred) == 0:
                continue
            att = normalize_attributions([float(v) for v in pred])
            tp = sum(1 for g, p in zip(gold, pred) if g and p)
            assert accumulated_importance(gold, att) == pytest.approx(tp / sum(pred))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_float_sum_as_the_per_token_generator(self, data):
        # Python's left-to-right float sum, bit for bit, over any values and mask.
        n = data.draw(st.integers(1, 40))
        values = data.draw(st.lists(st.floats(allow_nan=False, width=64), min_size=n, max_size=n))
        gold = data.draw(st.lists(st.sampled_from([0, 1, 2, -1, True, False]), min_size=n,
                                  max_size=n))
        want = float(sum(v for g, v in zip(gold, values) if g == 1))
        got = accumulated_importance(gold, Attributions(values=values))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestConfusionMatrix:
    def test_perfect_predictions_diagonal(self):
        gold = [EmotionLabel.JOY] * 3 + [EmotionLabel.FEAR] * 2
        matrix = confusion_matrix(gold, list(gold))
        assert matrix.counts.sum() == 5
        joy = EMOTION_ORDER.index(EmotionLabel.JOY)
        fear = EMOTION_ORDER.index(EmotionLabel.FEAR)
        assert matrix.counts[joy, joy] == 3
        assert matrix.counts[fear, fear] == 2
        assert matrix.counts.sum() == np.trace(matrix.counts)

    def test_love_misclassified_as_joy(self):
        matrix = confusion_matrix([EmotionLabel.LOVE], [EmotionLabel.JOY])
        love = EMOTION_ORDER.index(EmotionLabel.LOVE)
        joy = EMOTION_ORDER.index(EmotionLabel.JOY)
        assert matrix.counts[love, joy] == 1
        assert matrix.counts.sum() == 1

    def test_total_matches_instances(self):
        rng = random.Random(8)
        labels = list(EMOTION_ORDER)
        gold = [rng.choice(labels) for _ in range(100)]
        pred = [rng.choice(labels) for _ in range(100)]
        assert confusion_matrix(gold, pred).counts.sum() == 100

    def test_csv_shape(self):
        matrix = confusion_matrix([EmotionLabel.JOY], [EmotionLabel.JOY])
        lines = matrix.to_csv().strip().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("gold\\pred,")


class TestReport:
    def test_report_keys(self):
        report = build_report(
            emotion_pairs=[(EmotionLabel.JOY, EmotionLabel.JOY)],
            mask_pairs=[([0, 1], [0, 1])],
            attribution_pairs=[([0, 1], Attributions(values=[0.4, 0.6]))],
        )
        data = report.to_json_dict()
        assert set(data) == {
            "macro_f1",
            "token_f1",
            "accumulated_importance",
            "per_class",
            "confusion",
            "skipped_no_trigger",
        }
        assert data["macro_f1"] == 1.0
        assert data["token_f1"] == 1.0
        assert data["accumulated_importance"] == pytest.approx(0.6)
        assert data["per_class"]["Joy"]["f1"] == 1.0

    def test_all_scores_within_unit_interval(self):
        rng = random.Random(21)
        labels = list(EMOTION_ORDER)
        emotion_pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(30)]
        mask_pairs = []
        attribution_pairs = []
        for _ in range(30):
            n = rng.randint(1, 8)
            gold = [rng.randint(0, 1) for _ in range(n)]
            mask_pairs.append((gold, [rng.randint(0, 1) for _ in range(n)]))
            attribution_pairs.append(
                (gold, normalize_attributions([rng.uniform(-1, 1) for _ in range(n)]))
            )
        report = build_report(emotion_pairs, mask_pairs, attribution_pairs)
        data = report.to_json_dict()
        for key in ("macro_f1", "token_f1", "accumulated_importance"):
            assert 0.0 <= data[key] <= 1.0
