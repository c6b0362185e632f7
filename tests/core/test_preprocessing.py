"""Unit tests for the preprocessing utilities."""

import numpy as np
import pytest

from repro.classifiers.base import check_fit_inputs
from repro.classifiers.tree import DecisionTreeClassifier
from repro.core.gbabs import GBABS
from repro.core.rdgbg import RDGBG
from repro.preprocessing import (
    LabelEncoder,
    MinMaxScaler,
    StandardScaler,
    check_labels,
    train_test_split,
)
from repro.sampling.base import check_xy
from repro.sampling.srs import SimpleRandomSampler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        x = rng.normal(5.0, 3.0, size=(200, 4))
        out = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_not_divided_by_zero(self):
        x = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        out = StandardScaler().fit_transform(x)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[:, 0], 0.0)

    def test_inverse_roundtrip(self, rng):
        x = rng.normal(size=(50, 3))
        scaler = StandardScaler().fit(x)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(x)), x, atol=1e-9
        )

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))


class TestMinMaxScaler:
    def test_unit_interval(self, rng):
        x = rng.normal(size=(100, 3))
        out = MinMaxScaler().fit_transform(x)
        np.testing.assert_allclose(out.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.max(axis=0), 1.0, atol=1e-12)

    def test_custom_range(self, rng):
        x = rng.normal(size=(60, 2))
        out = MinMaxScaler(feature_range=(-1, 1)).fit_transform(x)
        np.testing.assert_allclose(out.min(axis=0), -1.0, atol=1e-12)
        np.testing.assert_allclose(out.max(axis=0), 1.0, atol=1e-12)

    def test_inverse_roundtrip(self, rng):
        x = rng.normal(size=(40, 2))
        scaler = MinMaxScaler().fit(x)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(x)), x, atol=1e-9
        )

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            MinMaxScaler(feature_range=(1.0, 1.0))


class TestLabelEncoder:
    def test_roundtrip(self):
        y = np.array([10, 30, 10, 20, 30])
        enc = LabelEncoder()
        codes = enc.fit_transform(y)
        np.testing.assert_array_equal(enc.classes_, [10, 20, 30])
        np.testing.assert_array_equal(codes, [0, 2, 0, 1, 2])
        np.testing.assert_array_equal(enc.inverse_transform(codes), y)

    def test_unseen_label_raises(self):
        enc = LabelEncoder().fit([1, 2])
        with pytest.raises(ValueError, match="not seen"):
            enc.transform([3])

    def test_code_range_check(self):
        enc = LabelEncoder().fit([1, 2])
        with pytest.raises(ValueError, match="out of range"):
            enc.inverse_transform(np.array([5]))


class TestCheckLabels:
    """Every labelled-data boundary shares one label check: whole-number
    labels are accepted as before, anything a cast would change raises."""

    BOUNDARIES = {
        "check_xy": check_xy,
        "check_fit_inputs": check_fit_inputs,
        "RDGBG.generate": lambda x, y: RDGBG(random_state=0).generate(x, y),
    }

    @pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
    @pytest.mark.parametrize(
        "labels",
        [[0.2, 0.7], ["a", "b"], [0.0, np.nan], [0.0, 1e20], [None, 1]],
        ids=["fractional", "strings", "nan", "overflow", "objects"],
    )
    def test_non_integer_labels_raise_naming_y(self, boundary, labels):
        x = np.arange(12, dtype=np.float64).reshape(6, 2)
        y = np.array(labels * 3)
        with pytest.raises(ValueError, match="^y must hold integer class labels"):
            self.BOUNDARIES[boundary](x, y)

    def test_estimators_refuse_fractional_labels(self, blobs2):
        """Labels {0.2, 0.7} used to collapse into class 0 silently."""
        x, y = blobs2
        y = np.where(y == 1, 0.7, 0.2)
        for estimator in (
            SimpleRandomSampler(ratio=0.5, random_state=0).fit_resample,
            DecisionTreeClassifier().fit,
            GBABS(random_state=0).fit_resample,
        ):
            with pytest.raises(ValueError, match="y must hold integer"):
                estimator(x, y)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16])
    def test_integer_labels_pass_through(self, dtype):
        y = np.array([3, 0, 3], dtype=dtype)
        assert check_labels(y) is y

    @pytest.mark.parametrize("y", [[True, False], [2.0, -1.0], np.array([0.0, 1.0], np.float32)])
    def test_bool_and_whole_floats_become_intp(self, y):
        out = check_labels(y)
        assert out.dtype == np.intp
        np.testing.assert_array_equal(out, np.asarray(y).astype(np.intp))

    def test_whole_number_labels_give_unchanged_results(self, moons):
        x, y = moons
        reference = GBABS(random_state=0)
        _, y_reference = reference.fit_resample(x, y)
        for alias in (y.astype(np.float64), y.astype(np.int8), y == 1):
            sampler = GBABS(random_state=0)
            _, y_sampled = sampler.fit_resample(x, alias)
            np.testing.assert_array_equal(
                sampler.sample_indices_, reference.sample_indices_
            )
            # Integer labels come back, as from every check_xy sampler.
            assert y_sampled.dtype == check_xy(x, alias)[1].dtype
            assert np.issubdtype(y_sampled.dtype, np.integer)
            np.testing.assert_array_equal(y_sampled, y_reference)
            np.testing.assert_array_equal(
                sampler.ball_set_.labels, reference.ball_set_.labels
            )
            tree = DecisionTreeClassifier(random_state=0).fit(x, alias)
            np.testing.assert_array_equal(tree.classes_, [0, 1])


class TestTrainTestSplit:
    def test_sizes_and_disjointness(self, blobs2):
        x, y = blobs2
        x_tr, x_te, y_tr, y_te = train_test_split(
            x, y, test_size=0.25, random_state=0
        )
        assert x_tr.shape[0] + x_te.shape[0] == x.shape[0]
        assert abs(x_te.shape[0] / x.shape[0] - 0.25) < 0.03

    def test_stratification_preserves_shares(self, imbalanced2):
        x, y = imbalanced2
        _, _, y_tr, y_te = train_test_split(
            x, y, test_size=0.3, random_state=0
        )
        assert abs(np.mean(y_te == 1) - np.mean(y == 1)) < 0.05
        # Rare class survives both sides.
        assert (y_tr == 1).any() and (y_te == 1).any()

    def test_unstratified_mode(self, blobs2):
        x, y = blobs2
        x_tr, x_te, _, _ = train_test_split(
            x, y, test_size=0.5, stratify=False, random_state=1
        )
        assert x_te.shape[0] == 100

    def test_deterministic(self, blobs2):
        x, y = blobs2
        a = train_test_split(x, y, random_state=5)
        b = train_test_split(x, y, random_state=5)
        np.testing.assert_array_equal(a[1], b[1])

    def test_rejects_bad_test_size(self, blobs2):
        x, y = blobs2
        with pytest.raises(ValueError):
            train_test_split(x, y, test_size=0.0)
