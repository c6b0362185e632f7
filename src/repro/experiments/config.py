"""Experiment configuration profiles.

The paper's full grid (13 datasets at original size, 5×5-fold CV, default
ensembles of 100 trees) takes hours; the benchmark suite must run on a
laptop in minutes.  Profiles solve this: ``QUICK`` (the default) shrinks
dataset sizes, folds and ensemble sizes while preserving every comparison's
*structure*; ``FULL`` restores the paper's protocol.

Select a profile globally with the ``REPRO_PROFILE`` environment variable
(``quick`` / ``medium`` / ``full``) or pass a config explicitly to the
functions in :mod:`repro.experiments.tables` / ``figures``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields, replace

__all__ = ["ExperimentConfig", "QUICK", "MEDIUM", "FULL", "active_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment.

    Attributes
    ----------
    name:
        Profile label used in printed reports.
    size_factor:
        Dataset scale multiplier (see :func:`repro.datasets.load_dataset`).
    datasets:
        Dataset codes included in multi-dataset experiments.
    n_splits, n_repeats:
        Cross-validation protocol (paper: 5 × 5).
    rho:
        GBABS density tolerance (paper examples use 5).
    random_state:
        Master seed.
    n_estimators:
        Ensemble size for RF / XGBoost / LightGBM stand-ins
        (paper/default: 100).
    noise_ratios:
        Class-noise grid for the robustness experiments.
    rho_grid:
        Density-tolerance sweep of Figs. 10–11.
    store_url:
        Optional default cell-store target for this profile — a
        directory or a ``file://`` URL (see
        :func:`repro.experiments.backends.resolve_backend`).  Deployment
        configuration, not an experiment parameter: it never enters cell
        keys (results are interchangeable between stores) and is never
        shipped in work manifests (see :meth:`to_dict`).  Explicit
        ``--store/--store-url`` flags, ``REPRO_CELLSTORE_DIR`` and the
        ``REPRO_CELLSTORE=off`` kill switch take precedence.
    store_codec:
        Optional default payload-compression codec for this profile
        (``zlib | lzma | none``).  Deployment configuration like
        ``store_url`` — excluded from :meth:`to_dict` for the same
        reasons; the ``--store-codec`` flag and ``REPRO_STORE_CODEC``
        take precedence.
    """

    name: str
    size_factor: float
    datasets: tuple[str, ...]
    n_splits: int = 5
    n_repeats: int = 5
    rho: int = 5
    random_state: int = 0
    n_estimators: int = 100
    noise_ratios: tuple[float, ...] = (0.05, 0.10, 0.20, 0.30, 0.40)
    rho_grid: tuple[int, ...] = (3, 5, 7, 9, 11, 13, 15, 17, 19)
    store_url: str | None = None
    store_codec: str | None = None

    def scaled(self, **changes) -> "ExperimentConfig":
        """Copy with selected fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready rendering (tuples become lists); see :meth:`from_dict`.

        This is how distributed work manifests ship the profile to worker
        processes, so the field set is part of the on-disk contract.
        ``store_url`` is deliberately **excluded**: it is deployment
        configuration (workers already know their store — they were
        pointed at it), and shipping new fields to fleets running older
        code would make their manifest parsers reject the plan.
        """
        payload = asdict(self)
        payload.pop("store_url", None)
        payload.pop("store_codec", None)
        for field_name in ("datasets", "noise_ratios", "rho_grid"):
            payload[field_name] = list(payload[field_name])
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict` (round-trips exactly).

        Version-tolerant in both directions: payloads written before a
        newer optional field existed keep its default, and payloads
        carrying fields *this* version does not know are accepted with
        those fields dropped.  Without the latter, a mixed-version fleet
        would treat every manifest from a newer coordinator as corrupt
        and delete it — a livelock, not a skew.
        """
        known = {f.name for f in fields(cls)}
        payload = {k: v for k, v in payload.items() if k in known}
        for field_name in ("datasets", "noise_ratios", "rho_grid"):
            payload[field_name] = tuple(payload[field_name])
        return cls(**payload)


_ALL = tuple(f"S{i}" for i in range(1, 14))

#: Minutes-scale profile: 6 representative datasets (small & large, binary &
#: multi-class, balanced & imbalanced, low- & high-dimensional), 2×3-fold CV,
#: small ensembles.
QUICK = ExperimentConfig(
    name="quick",
    size_factor=0.12,
    datasets=("S1", "S2", "S3", "S5", "S6", "S8"),
    n_splits=3,
    n_repeats=2,
    n_estimators=15,
    noise_ratios=(0.05, 0.10, 0.20, 0.30, 0.40),
    rho_grid=(3, 5, 9, 13, 19),
)

#: All 13 datasets at 20% size, 3×5-fold CV — a faithful shape check that
#: still finishes over a long lunch.
MEDIUM = ExperimentConfig(
    name="medium",
    size_factor=0.2,
    datasets=_ALL,
    n_splits=5,
    n_repeats=3,
    n_estimators=50,
)

#: The paper's protocol.
FULL = ExperimentConfig(
    name="full",
    size_factor=1.0,
    datasets=_ALL,
    n_splits=5,
    n_repeats=5,
    n_estimators=100,
)

_PROFILES = {"quick": QUICK, "medium": MEDIUM, "full": FULL}


def active_config() -> ExperimentConfig:
    """Profile selected by ``REPRO_PROFILE`` (default: quick)."""
    key = os.environ.get("REPRO_PROFILE", "quick").lower()
    if key not in _PROFILES:
        raise ValueError(
            f"REPRO_PROFILE={key!r} unknown; use one of {tuple(_PROFILES)}"
        )
    return _PROFILES[key]
