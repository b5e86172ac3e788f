import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ude.fairness import (
    EvalRecord,
    UndefinedMetric,
    accuracy,
    build_report,
    disparate_impact,
    equal_opportunity,
)


def rec(preds, labels, attrs):
    return EvalRecord(np.array(preds), np.array(labels), np.array(attrs))


binary_vec = st.lists(st.integers(0, 1), min_size=8, max_size=32)


class TestEvalRecord:
    def test_rejects_nonbinary(self):
        # checked before any cast, which would score 0.5 as 0 and 1.7 as 1
        for preds in ([0, 2], [0.5, 1], [1.7, 0], ["0", "1"],
                      np.array([0, 1], "m8[s]"), np.array([1 + 0j, 0])):
            with pytest.raises(ValueError):
                rec(preds, [0, 1], [0, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            rec([0, 1], [0, 1, 1], [0, 1])


class TestAccuracy:
    def test_hand_value(self):
        assert accuracy(rec([1, 0, 1, 1], [1, 1, 1, 0], [0, 0, 1, 1])) == 0.5

    @given(binary_vec, binary_vec, binary_vec)
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, p, y, a):
        n = min(len(p), len(y), len(a))
        p, y, a = p[:n], y[:n], a[:n]
        base = accuracy(rec(p, y, a))
        perm = np.random.default_rng(0).permutation(n)
        shuffled = accuracy(rec(np.array(p)[perm], np.array(y)[perm],
                                np.array(a)[perm]))
        assert base == shuffled


class TestEqualOpportunity:
    def test_hand_value(self):
        # group0: labels 1 at idx 0,1 -> TPR 1/2; group1: label 1 at idx 4 -> TPR 1
        r = rec([1, 0, 0, 0, 1, 0], [1, 1, 0, 0, 1, 0], [0, 0, 0, 1, 1, 1])
        assert equal_opportunity(r, 1) == pytest.approx(0.5)

    def test_symmetric_in_groups(self):
        r1 = rec([1, 0, 1, 0], [1, 1, 1, 1], [0, 0, 1, 1])
        r2 = rec([1, 0, 1, 0], [1, 1, 1, 1], [1, 1, 0, 0])
        assert equal_opportunity(r1, 1) == equal_opportunity(r2, 1)

    def test_undefined_when_cell_empty(self):
        with pytest.raises(UndefinedMetric):
            equal_opportunity(rec([1, 0], [1, 0], [0, 0]), 1)


class TestDisparateImpact:
    def test_hand_value(self):
        # group0 positive rate 1/2, group1 1/1 -> DI 0.5, |1-DI| 0.5
        di, gap = disparate_impact(rec([1, 0, 1], [0, 0, 0], [0, 0, 1]))
        assert di == pytest.approx(0.5)
        assert gap == pytest.approx(0.5)

    def test_di_above_one(self):
        di, gap = disparate_impact(rec([1, 1, 1, 0], [0, 0, 0, 0], [0, 0, 1, 1]))
        assert di == pytest.approx(2.0)
        assert gap == pytest.approx(1.0)

    def test_undefined_zero_denominator(self):
        with pytest.raises(UndefinedMetric):
            disparate_impact(rec([1, 0], [0, 0], [0, 1]))

    def test_undefined_empty_group(self):
        with pytest.raises(UndefinedMetric):
            disparate_impact(rec([1, 1], [0, 0], [0, 0]))


class TestReport:
    def test_fields_and_csv_row(self):
        r = rec([1, 0, 0, 1, 1, 0, 0, 1],
                [1, 1, 0, 0, 1, 1, 0, 0],
                [0, 0, 0, 0, 1, 1, 1, 1])
        report = build_report(r)
        assert report.numerator_group == 0
        assert report.group_counts == {"a0": 4, "a1": 4}
        row = report.csv_row()
        assert row == [f"{v:.6f}" for v in (report.eo_neg, report.eo_pos,
                                            report.one_minus_di_abs,
                                            report.accuracy)]
