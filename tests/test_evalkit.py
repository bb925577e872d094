from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdm.evalkit import (
    MergeScheme,
    StatReport,
    accuracy,
    aggregate_stat,
    bland_altman,
    cohens_kappa,
    f1_per_class,
    merge_classes,
    overnight_stats,
)
from fsdm.hypno import Hypnogram


def _h(labels):
    return Hypnogram.from_labels(labels)


def test_merge_five_is_identity():
    h = _h(["W", "N1", "N2", "N3", "R"])
    np.testing.assert_array_equal(merge_classes(h, MergeScheme.FIVE), [0, 1, 2, 3, 4])


def test_merge_four_joins_n1_n2():
    h = _h(["W", "N1", "N2", "N3", "R"])
    merged = merge_classes(h, MergeScheme.FOUR)
    assert merged[1] == merged[2]
    assert len(set(merged.tolist())) == 4


def test_merge_two_sleep_wake():
    h = _h(["W", "N1", "N2", "N3", "R", "W"])
    np.testing.assert_array_equal(merge_classes(h, MergeScheme.TWO), [0, 1, 1, 1, 1, 0])


def test_perfect_agreement_metrics():
    h = _h(["W", "N1", "N2", "N3", "R", "N2"])
    assert accuracy(h, h) == 1.0
    assert cohens_kappa(h, h) == 1.0
    np.testing.assert_array_equal(f1_per_class(h, h), np.ones(5))


def test_chance_level_constant_prediction():
    pred = _h(["W"] * 5)
    ref = _h(["W", "N1", "N2", "N3", "R"])
    assert accuracy(pred, ref) == pytest.approx(0.2)
    assert cohens_kappa(pred, ref) == pytest.approx(0.0, abs=1e-12)


def test_two_class_confusion_fixture():
    # Confusion [[40, 10], [5, 45]] under the sleep/wake merge:
    # accuracy 0.85, kappa (0.85 - 0.5) / 0.5 = 0.700.
    pred = _h(["W"] * 40 + ["W"] * 10 + ["N2"] * 5 + ["N2"] * 45)
    ref = _h(["W"] * 40 + ["N2"] * 10 + ["W"] * 5 + ["N2"] * 45)
    assert accuracy(pred, ref, MergeScheme.TWO) == pytest.approx(0.85)
    # exact value is 0.35/0.5 = 0.700, on the boundary of 0.699 ± 0.001;
    # the extra 1e-9 covers float roundoff only.
    assert abs(cohens_kappa(pred, ref, MergeScheme.TWO) - 0.699) <= 1e-3 + 1e-9


def test_f1_absent_class_convention():
    pred = _h(["W", "N2", "N2"])
    ref = _h(["W", "N2", "W"])
    f1 = f1_per_class(pred, ref)
    assert f1[1] == 1.0  # N1 absent from both
    assert f1[3] == 1.0  # N3 absent from both
    assert f1[4] == 1.0  # R absent from both


def test_valid_epochs_excludes_padding():
    pred = _h(["W", "N2", "W", "W"])
    ref = _h(["W", "N2", "R", "R"])
    assert accuracy(pred, ref, MergeScheme.FIVE, 2) == 1.0
    assert cohens_kappa(pred, ref, MergeScheme.FIVE, 2) == 1.0
    assert f1_per_class(pred, ref, 2).tolist() == [1.0] * 5
    assert accuracy(pred, ref, MergeScheme.FIVE, None) == 0.5
    for count in (0, 5):
        for score in (accuracy, cohens_kappa):
            with pytest.raises(ValueError, match="valid_epochs"):
                score(pred, ref, MergeScheme.FIVE, count)
        with pytest.raises(ValueError, match="valid_epochs"):
            f1_per_class(pred, ref, count)
        with pytest.raises(ValueError, match="valid_epochs"):
            overnight_stats(pred, count)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_accuracy_monotone_under_merging(seed):
    rng = np.random.default_rng(seed)
    pred = Hypnogram.from_indices(rng.integers(0, 5, 24))
    ref = Hypnogram.from_indices(rng.integers(0, 5, 24))
    accs = [
        accuracy(pred, ref, scheme)
        for scheme in (MergeScheme.FIVE, MergeScheme.FOUR, MergeScheme.THREE, MergeScheme.TWO)
    ]
    assert accs[0] <= accs[1] <= accs[2] <= accs[3]


def test_kappa_one_iff_perfect_with_two_classes():
    perfect_two = _h(["W", "N2", "W"])
    assert cohens_kappa(perfect_two, perfect_two) == 1.0
    constant = _h(["N2", "N2", "N2"])
    assert cohens_kappa(constant, constant) == 0.0  # degenerate chance = 1


def test_overnight_fixture():
    # [W,W,N1,N2,N3,R,W,R]: SOL 1.0, TST 2.5 (5 non-wake epochs), WASO 0.5,
    # REM latency 1.5, time in REM 1.0.
    h = _h(["W", "W", "N1", "N2", "N3", "R", "W", "R"])
    report = overnight_stats(h, 8)
    assert report.sol_min == 1.0
    assert report.tst_min == 2.5
    assert report.waso_min == 0.5
    assert report.rem_latency_min == 1.5
    assert report.time_in_rem_min == 1.0


def test_overnight_all_sleep():
    h = _h(["N2", "N3", "R", "N2"])
    report = overnight_stats(h, 4)
    assert report.sol_min == 0.0
    assert report.waso_min == 0.0
    assert report.tst_min == 2.0


def test_overnight_no_rem_latency_absent():
    report = overnight_stats(_h(["W", "N1", "N2"]), 3)
    assert report.rem_latency_min is None
    assert report.time_in_rem_min == 0.0


def test_overnight_all_wake():
    report = overnight_stats(_h(["W", "W", "W"]), 3)
    assert report.sol_min is None
    assert report.tst_min == 0.0
    assert report.waso_min == 0.0


def test_overnight_terminal_wake_excluded_from_waso():
    h = _h(["W", "N2", "W", "W"])
    assert overnight_stats(h, 4).waso_min == 0.0


def test_overnight_respects_valid_epochs():
    h = _h(["W", "N2", "R", "R", "R"])
    report = overnight_stats(h, 3)
    assert report.time_in_rem_min == 0.5
    assert report.tst_min == 1.0


def test_stat_conservation():
    rng = np.random.default_rng(7)
    h = Hypnogram.from_indices(rng.integers(0, 5, 17))
    report = overnight_stats(h, 17)
    total = report.w_min + report.n1_min + report.n2_min + report.n3_min + report.r_min
    assert total == pytest.approx(17 * 0.5)
    assert report.tst_min == pytest.approx(total - report.w_min)


def _rep(**kwargs):
    base = dict(tst_min=0.0, sol_min=None, waso_min=0.0, rem_latency_min=None,
                time_in_rem_min=0.0, w_min=0.0, n1_min=0.0, n2_min=0.0,
                n3_min=0.0, r_min=0.0)
    base.update(kwargs)
    return StatReport(**base)


def test_aggregate_stat_identical():
    reports = [_rep(tst_min=4.0)] * 3
    assert aggregate_stat(reports, "tst_min") == 4.0


def test_aggregate_stat_median_robust_to_outlier():
    reports = [_rep(rem_latency_min=v) for v in (1.0, 2.0, 100.0)]
    assert aggregate_stat(reports, "rem_latency_min") == 2.0


def test_aggregate_stat_even_count_midpoint():
    reports = [_rep(tst_min=1.0), _rep(tst_min=3.0)]
    assert aggregate_stat(reports, "tst_min") == 2.0


def test_aggregate_stat_absent_values():
    reports = [_rep(rem_latency_min=None), _rep(rem_latency_min=5.0)]
    assert aggregate_stat(reports, "rem_latency_min") == 5.0
    assert aggregate_stat([_rep()], "rem_latency_min") is None
    with pytest.raises(ValueError):
        aggregate_stat([], "tst_min")


def test_bland_altman_identical_pairs():
    out = bland_altman([(3.0, 3.0), (5.0, 5.0)])
    assert out == {"bias": 0.0, "loa_low": 0.0, "loa_high": 0.0}


def test_bland_altman_plus_minus_one():
    out = bland_altman([(1.0, 0.0), (0.0, 1.0)])
    sd = np.sqrt(2.0)
    assert out["bias"] == pytest.approx(0.0)
    assert out["loa_high"] == pytest.approx(1.96 * sd)
    assert out["loa_low"] == pytest.approx(-1.96 * sd)


def test_bland_altman_translation():
    rng = np.random.default_rng(8)
    ref = rng.normal(100, 10, 20)
    est = ref + rng.normal(0, 3, 20)
    base = bland_altman(list(zip(est, ref)))
    shifted = bland_altman(list(zip(est + 7.5, ref)))
    assert shifted["bias"] == pytest.approx(base["bias"] + 7.5)
    width_base = base["loa_high"] - base["loa_low"]
    width_shift = shifted["loa_high"] - shifted["loa_low"]
    assert width_shift == pytest.approx(width_base)


def test_bland_altman_needs_two_pairs():
    with pytest.raises(ValueError):
        bland_altman([(1.0, 1.0)])


def test_stat_report_asdict_round_trip_fields():
    # The eval rows and the sampler's stat names follow this field order.
    report = overnight_stats(_h(["W", "N2", "R"]), 3)
    doc = asdict(report)
    assert doc["tst_min"] == report.tst_min
    assert list(doc) == [
        "tst_min", "sol_min", "waso_min", "rem_latency_min", "time_in_rem_min",
        "w_min", "n1_min", "n2_min", "n3_min", "r_min",
    ]
