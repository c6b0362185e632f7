"""Common sampler interface and input validation.

Every sampler in this package — including :class:`repro.core.gbabs.GBABS` —
exposes ``fit_resample(x, y) -> (x_resampled, y_resampled)``.  Undersamplers
additionally publish ``sample_indices_`` (indices into the input) after a
call; oversamplers leave it as ``None`` because synthetic rows have no source
index.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.preprocessing import check_labels

__all__ = ["BaseSampler", "IdentitySampler", "check_xy"]


def check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and canonicalise a labelled dataset.

    Returns float64 features and an integer label vector; raises
    ``ValueError`` on shape mismatches, empty input or labels that are not
    whole numbers (see :func:`repro.preprocessing.check_labels`).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2:
        raise ValueError("x must be a 2-D feature matrix")
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError("y must be 1-D and aligned with x")
    if x.shape[0] == 0:
        raise ValueError("cannot sample an empty dataset")
    if not np.isfinite(x).all():
        raise ValueError("x contains NaN or infinite values")
    return x, check_labels(y)


class BaseSampler(abc.ABC):
    """Abstract sampler with the ``fit_resample`` contract.

    Attributes
    ----------
    sample_indices_:
        For undersamplers, sorted indices of the kept input rows; ``None``
        for oversamplers.
    """

    sample_indices_: np.ndarray | None = None

    @abc.abstractmethod
    def fit_resample(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resample ``(x, y)`` and return the new dataset."""

    def sampling_ratio(self, n_input: int) -> float:
        """Kept fraction for undersamplers (requires ``sample_indices_``)."""
        if self.sample_indices_ is None:
            raise RuntimeError(
                "sampling_ratio is only defined for fitted undersamplers"
            )
        return self.sample_indices_.size / max(n_input, 1)


class IdentitySampler(BaseSampler):
    """The no-op sampler ("Ori" in Fig. 9): returns the dataset unchanged."""

    def fit_resample(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        x, y = check_xy(x, y)
        self.sample_indices_ = np.arange(x.shape[0], dtype=np.intp)
        return x, y
