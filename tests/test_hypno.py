import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdm.hypno import (
    Hypnodensity,
    Hypnogram,
    SleepStage,
    argmax_stages,
    majority_vote,
    one_hot,
    project_manifold,
    read_hypnogram,
    write_hypnogram,
)
from fsdm.infogain import InfoGain
from fsdm.oracle import (
    CategoricalEmission,
    ExplicitPrior,
    GaussianEmission,
    MarkovPrior,
)
from fsdm.scorekit import Features


def test_stage_enum_fixed_order():
    assert [s.value for s in SleepStage] == [0, 1, 2, 3, 4]
    assert [s.name for s in SleepStage] == ["W", "N1", "N2", "N3", "R"]


def test_hypnogram_requires_epochs():
    with pytest.raises(ValueError):
        Hypnogram(())


def test_one_hot_single_wake():
    y = one_hot(Hypnogram.from_labels(["W"]))
    np.testing.assert_array_equal(y.values[:, 0], [1, 0, 0, 0, 0])
    np.testing.assert_allclose(y.values.sum(axis=0), 1.0, rtol=0, atol=1e-9)
    assert np.all(np.sum(y.values == 1.0, axis=0) == 1)


def test_one_hot_two_epochs():
    y = one_hot(Hypnogram.from_labels(["R", "N2"]))
    np.testing.assert_array_equal(y.values[:, 0], [0, 0, 0, 0, 1])
    np.testing.assert_array_equal(y.values[:, 1], [0, 0, 1, 0, 0])


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
def test_one_hot_argmax_round_trip(indices):
    h = Hypnogram.from_indices(indices)
    assert argmax_stages(one_hot(h)) == h


@pytest.mark.parametrize("make", [Hypnogram.from_indices, Hypnogram])
def test_non_integral_stage_index_is_rejected(make):
    with pytest.raises(ValueError):
        make((2.7,))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
def test_index_arrays_of_any_integral_dtype_round_trip(dtype):
    indices = np.array([0, 4, 2, 1, 3, 2], dtype=dtype)
    out = Hypnogram.from_indices(indices).to_indices()
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, [0, 4, 2, 1, 3, 2])


def test_project_manifold_already_normalized():
    col = np.array([0.4, 0.3, 0.2, 0.05, 0.05])
    y = project_manifold(col[:, None])
    np.testing.assert_allclose(y[:, 0], col, rtol=0, atol=1e-15)


def test_project_manifold_divides_by_sum():
    col = np.array([2, 1, 1, 0.5, 0.5])
    y = project_manifold(col[:, None])
    np.testing.assert_allclose(y[:, 0], [0.4, 0.2, 0.2, 0.1, 0.1])


def test_project_manifold_degenerate_column_goes_uniform():
    y = project_manifold(np.zeros((5, 1)))
    np.testing.assert_array_equal(y[:, 0], [0.2] * 5)


@pytest.mark.parametrize("n_epochs", [1, 5, 960])
def test_batched_projection_equals_per_state_bitwise(n_epochs):
    rng = np.random.default_rng(n_epochs)
    v = rng.standard_normal((6, 5, n_epochs))
    v[2, :, 0] = [1e-12, -1e-12, 0.0, 0.0, 0.0]
    v[4, :, -1] = 0.0
    batched = project_manifold(v)
    for b in range(v.shape[0]):
        np.testing.assert_array_equal(batched[b], project_manifold(v[b:b + 1])[0])
    np.testing.assert_array_equal(batched[2, :, 0], [0.2] * 5)


def test_project_manifold_preserves_negative_entries():
    col = np.array([1.5, -0.25, -0.25, 0.0, 0.0])
    y = project_manifold(col[:, None])
    np.testing.assert_allclose(y[:, 0], [1.5, -0.25, -0.25, 0, 0])
    np.testing.assert_allclose(y.sum(axis=0), 1.0, rtol=0, atol=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_project_manifold_idempotent(seed):
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.05, 2.0, (5, 4))
    once = project_manifold(y)
    twice = project_manifold(once)
    np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_project_manifold_preserves_argmax_for_nonnegative(seed):
    rng = np.random.default_rng(seed)
    y = Hypnodensity(rng.uniform(0.0, 1.0, (5, 6)) + 0.01)
    assert argmax_stages(Hypnodensity(project_manifold(y.values))) == argmax_stages(y)


def test_argmax_unique_max():
    y = Hypnodensity(np.array([0.1, 0.5, 0.2, 0.1, 0.1])[:, None])
    assert argmax_stages(y).stages == (SleepStage.N1,)


def test_argmax_tie_breaks_to_lowest_stage():
    y = Hypnodensity(np.array([0.5, 0.5, 0, 0, 0])[:, None])
    assert argmax_stages(y).stages == (SleepStage.W,)


def test_majority_vote_single_sample():
    y = one_hot(Hypnogram.from_labels(["N3", "R"]))
    assert majority_vote(y.values[None]) == argmax_stages(y)


def test_majority_vote_two_vs_one():
    w = one_hot(Hypnogram.from_labels(["W"])).values
    n2 = one_hot(Hypnogram.from_labels(["N2"])).values
    assert majority_vote(np.stack([w, w, n2])).stages == (SleepStage.W,)


def test_majority_vote_permutation_invariant():
    rng = np.random.default_rng(3)
    samples = rng.uniform(0, 1, (5, 5, 4))
    base = majority_vote(samples)
    assert majority_vote(samples[::-1]) == base
    assert majority_vote(np.concatenate([samples[2:], samples[:2]])) == base


def test_majority_vote_empty_rejected():
    with pytest.raises(ValueError):
        majority_vote(np.empty((0, 5, 3)))


def test_hypnodensity_rejects_non_finite():
    bad = np.zeros((5, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Hypnodensity(bad)


def test_hypnodensity_immutable():
    y = Hypnodensity(np.ones((5, 2)) / 5)
    with pytest.raises(ValueError):
        y.values[0, 0] = 2.0


_VALUE_TYPES = {
    "Hypnodensity": (Hypnodensity, {"values": np.full((5, 2), 0.2)}, {}),
    "Features": (Features, {"values": np.array([[1.0, np.nan, 3.0]])}, {}),
    "InfoGain": (InfoGain, {"values": np.array([0.25, 0.5])},
                 {"sensor": "s", "n_trajectories": 1}),
    "CategoricalEmission": (CategoricalEmission, {"table": np.full((5, 2), 0.5)}, {}),
    "GaussianEmission": (GaussianEmission, {"means": np.zeros(5), "sds": np.ones(5)}, {}),
    "ExplicitPrior": (ExplicitPrior, {"table": np.full(5, 0.2)}, {}),
    "MarkovPrior": (MarkovPrior, {"initial": np.full(5, 0.2),
                                  "transition": np.full((5, 5), 0.2)}, {}),
}


@pytest.mark.parametrize("name", list(_VALUE_TYPES))
def test_value_types_hold_a_private_read_only_copy(name):
    cls, arrays, other = _VALUE_TYPES[name]
    inputs = {field: a.copy() for field, a in arrays.items()}
    value = cls(**inputs, **other)
    for field, a in inputs.items():
        a[...] = 7.0
        stored = getattr(value, field)
        np.testing.assert_array_equal(stored, arrays[field])
        with pytest.raises(ValueError, match="read-only"):
            stored[(0,) * stored.ndim] = 1.0


def test_hypnogram_text_round_trip(tmp_path):
    h = Hypnogram.from_labels(["W", "N1", "N2", "N3", "R", "N2"])
    path = tmp_path / "hypnogram.txt"
    write_hypnogram(path, h)
    text = path.read_text(encoding="utf-8")
    assert text == "W\nN1\nN2\nN3\nR\nN2\n"
    assert read_hypnogram(path) == h
