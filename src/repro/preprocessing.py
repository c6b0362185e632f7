"""Preprocessing utilities: scalers, label encoding, dataset splitting.

Distance-based samplers (every granular-ball method, SMOTE, Tomek links,
kNN) are sensitive to feature scales, so real deployments normalise first.
These are the minimal scikit-learn-style tools a downstream user needs, with
the same fit/transform contract as the rest of the library.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "StandardScaler",
    "MinMaxScaler",
    "LabelEncoder",
    "check_labels",
    "train_test_split",
]


def _check_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if x.shape[0] == 0:
        raise ValueError("expected at least one sample")
    return x


def check_labels(y) -> np.ndarray:
    """Class labels as integers, refusing any label a cast would change.

    Integer labels pass through unchanged; bool and whole-number float labels
    become ``intp``.  Anything else (fractional or non-finite floats,
    strings, objects) raises ``ValueError``: truncating it would silently
    merge distinct classes.
    """
    y = np.asarray(y)
    if np.issubdtype(y.dtype, np.integer):
        return y
    if y.dtype.kind in "bf":
        with np.errstate(invalid="ignore"):
            labels = y.astype(np.intp)
        if np.array_equal(labels, y):
            return labels
    raise ValueError(
        f"y must hold integer class labels (integer, bool or whole-number "
        f"float values), not {y.dtype} values that a cast would change; "
        f"encode them with LabelEncoder first"
    )


class StandardScaler:
    """Zero-mean / unit-variance feature scaling.

    Constant features (zero variance) are centred but left unscaled, so
    transform never divides by zero.
    """

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = _check_matrix(x)
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        x = _check_matrix(x)
        return (x - self.mean_) / self.scale_

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        x = _check_matrix(x)
        return x * self.scale_ + self.mean_


class MinMaxScaler:
    """Scale features into ``[lo, hi]`` (default ``[0, 1]``).

    Constant features map to the lower bound.
    """

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)):
        lo, hi = feature_range
        if hi <= lo:
            raise ValueError("feature_range must be increasing")
        self.feature_range = (float(lo), float(hi))
        self.min_: np.ndarray | None = None
        self.range_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "MinMaxScaler":
        x = _check_matrix(x)
        self.min_ = x.min(axis=0)
        span = x.max(axis=0) - self.min_
        self.range_ = np.where(span > 0, span, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.min_ is None:
            raise RuntimeError("MinMaxScaler is not fitted")
        x = _check_matrix(x)
        lo, hi = self.feature_range
        unit = (x - self.min_) / self.range_
        return unit * (hi - lo) + lo

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        if self.min_ is None:
            raise RuntimeError("MinMaxScaler is not fitted")
        x = _check_matrix(x)
        lo, hi = self.feature_range
        unit = (x - lo) / (hi - lo)
        return unit * self.range_ + self.min_


class LabelEncoder:
    """Map arbitrary hashable labels to ``0..K-1`` integer codes."""

    def __init__(self):
        self.classes_: np.ndarray | None = None

    def fit(self, y) -> "LabelEncoder":
        self.classes_ = np.unique(np.asarray(y))
        if self.classes_.size == 0:
            raise ValueError("cannot fit on empty labels")
        return self

    def transform(self, y) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("LabelEncoder is not fitted")
        y = np.asarray(y)
        codes = np.searchsorted(self.classes_, y)
        valid = (codes < self.classes_.size) & (self.classes_[
            np.minimum(codes, self.classes_.size - 1)
        ] == y)
        if not valid.all():
            unseen = np.unique(y[~valid])
            raise ValueError(f"labels not seen during fit: {unseen.tolist()}")
        return codes.astype(np.intp)

    def fit_transform(self, y) -> np.ndarray:
        return self.fit(y).transform(y)

    def inverse_transform(self, codes: np.ndarray) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("LabelEncoder is not fitted")
        codes = np.asarray(codes, dtype=np.intp)
        if codes.size and (codes.min() < 0 or codes.max() >= self.classes_.size):
            raise ValueError("codes out of range")
        return self.classes_[codes]


def train_test_split(
    x: np.ndarray,
    y: np.ndarray,
    test_size: float = 0.25,
    stratify: bool = True,
    random_state: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Single stratified (by default) train/test split.

    Returns ``(x_train, x_test, y_train, y_test)``.  With ``stratify`` each
    class contributes ``round(test_size * count)`` test samples (at least
    one when the class has two or more members).
    """
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    x = _check_matrix(x)
    y = np.asarray(y)
    if y.shape != (x.shape[0],):
        raise ValueError("y must align with x")
    rng = np.random.default_rng(random_state)

    if stratify:
        test_parts = []
        for cls in np.unique(y):
            members = rng.permutation(np.flatnonzero(y == cls))
            n_test = int(round(test_size * members.size))
            if members.size >= 2:
                n_test = min(max(n_test, 1), members.size - 1)
            test_parts.append(members[:n_test])
        test_idx = np.sort(np.concatenate(test_parts))
    else:
        order = rng.permutation(x.shape[0])
        n_test = max(1, int(round(test_size * x.shape[0])))
        test_idx = np.sort(order[:n_test])

    train_idx = np.setdiff1d(np.arange(x.shape[0]), test_idx)
    if train_idx.size == 0:
        raise ValueError("split left no training samples")
    return x[train_idx], x[test_idx], y[train_idx], y[test_idx]
