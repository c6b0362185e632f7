"""Granular-ball classifier — the GBC decision rule (§III-A related work).

Granular-ball computing replaces per-sample computation with per-ball
computation: a query point is assigned the label of the ball whose *surface*
it is closest to, i.e. the ball minimising ``dist(x, c_i) - r_i`` (Xia et
al., 2019).  Pairing this with RD-GBG balls gives the library a native
GB-based classifier alongside the scikit-learn-style substrates, and makes
the compression story measurable end-to-end: ``m`` balls stand in for ``n``
samples at prediction time.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import BaseClassifier, check_fit_inputs, validate_fitted
from repro.core.rdgbg import RDGBG

__all__ = ["GranularBallClassifier"]


class GranularBallClassifier(BaseClassifier):
    """Nearest-ball-surface classifier over RD-GBG granular balls.

    Parameters
    ----------
    rho:
        Density tolerance of the internal :class:`RDGBG` generator.
    random_state:
        Seed for the generator's centre selection.
    include_orphans:
        Keep the radius-0 orphan balls in the decision rule.  Orphans carry
        low-density/leftover samples; excluding them (the default keeps
        them) yields a smoother but less complete decision surface.

    Attributes
    ----------
    ball_set_:
        The granular balls backing the decision rule.
    n_balls_:
        Number of balls used (the model's "size").
    """

    def __init__(
        self,
        rho: int = 5,
        random_state: int | None = None,
        include_orphans: bool = True,
    ):
        self.rho = int(rho)
        self.random_state = random_state
        self.include_orphans = bool(include_orphans)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GranularBallClassifier":
        x, y = check_fit_inputs(x, y)
        self._encode_labels(y)
        result = RDGBG(rho=self.rho, random_state=self.random_state).generate(x, y)
        ball_set = result.ball_set
        if not self.include_orphans:
            keep = ~ball_set.orphan_mask
            # Never drop every ball (single-class or all-orphan sets).
            if keep.any() and not keep.all():
                ball_set = ball_set.select(keep)
        self.ball_set_ = ball_set
        self.n_balls_ = len(self.ball_set_)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        validate_fitted(self)
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return self.ball_set_.predict(x)

    def compression_ratio(self) -> float:
        """Balls per training sample — the GBC efficiency measure."""
        validate_fitted(self)
        return self.n_balls_ / max(self.ball_set_.n_source_samples, 1)

    def freeze(self, path) -> dict:
        """Freeze the fitted model into an mmap-able serving artifact.

        Writes the versioned, checksummed artifact consumed by
        :class:`repro.serving.FrozenPredictor` and ``repro serve``; the
        frozen predict path is bit-identical to :meth:`predict`.  Returns
        the artifact header (layout + metadata).
        """
        from repro.serving.artifact import freeze_classifier

        return freeze_classifier(self, path)
