"""Minimal estimator protocol mirroring the scikit-learn conventions.

The paper evaluates its sampling methods through five scikit-learn-style
classifiers.  scikit-learn is not available in this build, so this module
defines the small API surface the evaluation harness relies on:

* ``fit(x, y) -> self`` and ``predict(x) -> labels``;
* ``get_params()`` / ``set_params(**p)`` introspected from ``__init__``;
* :func:`clone` producing an unfitted copy with identical hyperparameters;
* ``classes_`` listing the labels seen during fit.

Fitted state uses the trailing-underscore convention so ``clone`` can tell
hyperparameters from learned attributes.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.preprocessing import check_labels

__all__ = ["BaseClassifier", "clone", "check_fit_inputs", "validate_fitted"]


def check_fit_inputs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalise training inputs: float64 features, integer labels."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2:
        raise ValueError("x must be a 2-D feature matrix")
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError("y must be 1-D and aligned with x")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.isfinite(x).all():
        raise ValueError("x contains NaN or infinite values")
    return x, check_labels(y)


def validate_fitted(estimator: "BaseClassifier") -> None:
    """Raise if ``estimator`` has not been fitted yet."""
    if getattr(estimator, "classes_", None) is None:
        raise RuntimeError(
            f"{type(estimator).__name__} must be fitted before calling predict"
        )


class BaseClassifier:
    """Base class providing parameter introspection and scoring."""

    classes_: np.ndarray | None = None

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, param in sig.parameters.items()
            if name != "self"
            and param.kind
            not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        ]

    def get_params(self) -> dict:
        """Constructor hyperparameters as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseClassifier":
        """Update hyperparameters in place; unknown names raise."""
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}"
                )
            setattr(self, key, value)
        return self

    def fit(self, x: np.ndarray, y: np.ndarray) -> "BaseClassifier":
        raise NotImplementedError

    def predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on ``(x, y)``."""
        y = np.asarray(y)
        return float(np.mean(self.predict(x) == y))

    # Internal helpers shared by subclasses ------------------------------

    def _encode_labels(self, y: np.ndarray) -> np.ndarray:
        """Store ``classes_`` and return labels re-encoded as 0..K-1."""
        classes, encoded = np.unique(y, return_inverse=True)
        self.classes_ = classes
        return encoded.astype(np.intp)


def clone(estimator: BaseClassifier) -> BaseClassifier:
    """Unfitted copy of ``estimator`` with the same hyperparameters."""
    return type(estimator)(**estimator.get_params())
