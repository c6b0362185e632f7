"""Shared experiment machinery: pipeline construction and result caching.

Several tables and figures reuse the same (dataset, noise, sampler,
classifier) cross-validation cells — e.g. Figs. 7–8 re-plot slices of
Table IV.  :func:`run_cell` computes one cell; results are cached in the
process-wide :class:`~repro.experiments.store.CellStore` (an in-memory
layer plus a persistent content-keyed disk layer), so a benchmark session
never recomputes a cell and an *interrupted* session resumes where it
stopped instead of starting over.

Sampler and classifier factories are picklable spec objects
(:class:`SamplerSpec` / :class:`ClassifierSpec`), so the parallel executor
can ship them to worker processes on any platform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.classifiers import make_classifier
from repro.core.gbabs import GBABS
from repro.datasets import get_spec, inject_class_noise, load_dataset
from repro.evaluation.cross_validation import CVResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.store import (
    CellStore,
    ClaimHeartbeat,
    default_claim_owner,
    default_store_root,
    stable_key,
)
from repro.sampling import make_sampler

__all__ = [
    "SamplerSpec",
    "ClassifierSpec",
    "dataset_key",
    "dataset_with_noise",
    "gbabs_ratio_key",
    "reference_gbabs_ratio",
    "resolve_dataset_task",
    "resolve_ratio_task",
    "sampler_factory_for",
    "classifier_factory_for",
    "run_cell",
    "cell_key",
    "get_store",
    "configure_store",
    "clear_cache",
]

_STORE: CellStore | None = None


def get_store() -> CellStore:
    """The process-wide result store (created lazily from the environment)."""
    global _STORE
    if _STORE is None:
        _STORE = CellStore(default_store_root())
    return _STORE


def configure_store(
    root: str | None | object = ...,
    persist: bool | None = None,
    store: CellStore | None = None,
    codec: str | None = None,
) -> CellStore:
    """Replace or adjust the process-wide store.

    ``configure_store(store=s)`` installs ``s`` as-is;
    ``configure_store(root=target)`` rebuilds the store over ``target`` —
    a directory, a ``file://`` URL or ``None`` for memory-only;
    ``configure_store(persist=False)`` keeps the current location but
    disables durable writes/reads (the ``--no-cache`` path).  ``codec`` selects the payload compression
    codec for new writes (``None`` keeps the default resolution — the
    ``REPRO_STORE_CODEC`` environment knob, then zlib).
    """
    global _STORE
    if store is not None:
        _STORE = store
    elif root is not ...:
        _STORE = CellStore(root, persist=True if persist is None else persist,
                           codec=codec)
    elif persist is not None or codec is not None:
        current = get_store()
        _STORE = CellStore(
            current.source,
            persist=current.persist if persist is None else persist,
            codec=codec or current.codec_name,
        )
    return get_store()


def clear_cache() -> None:
    """Drop the in-memory layer (used by tests; disk entries survive)."""
    get_store().clear_memory()


# ----------------------------------------------------------------------
# Picklable factories
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerSpec:
    """Picklable ``factory(seed) -> sampler`` for one experiment cell."""

    method: str
    params: tuple[tuple[str, Any], ...] = ()

    def __call__(self, seed: int):
        kwargs = {k: list(v) if isinstance(v, tuple) else v for k, v in self.params}
        return make_sampler(self.method, random_state=seed, **kwargs)


@dataclass(frozen=True)
class ClassifierSpec:
    """Picklable ``factory(seed) -> classifier``; seeds only when asked."""

    name: str
    params: tuple[tuple[str, Any], ...] = ()
    seeded: bool = False

    def __call__(self, seed: int):
        kwargs = dict(self.params)
        if self.seeded:
            kwargs["random_state"] = seed
        return make_classifier(self.name, **kwargs)


# ----------------------------------------------------------------------
# Cached inputs: datasets (memory-only) and GBABS reference ratios
# (persisted — each one costs a full-dataset granulation)
# ----------------------------------------------------------------------


def dataset_key(code: str, cfg: ExperimentConfig, noise_ratio: float) -> str:
    """Store key of one (dataset, noise) variant."""
    return stable_key(
        {
            "kind": "dataset",
            "code": code,
            "size_factor": cfg.size_factor,
            "random_state": cfg.random_state,
            "noise_ratio": round(noise_ratio, 4),
        }
    )


def gbabs_ratio_key(code: str, cfg: ExperimentConfig, noise_ratio: float) -> str:
    """Store key of one GBABS reference sampling ratio."""
    return stable_key(
        {
            "kind": "gbabs-ratio",
            "code": code,
            "size_factor": cfg.size_factor,
            "random_state": cfg.random_state,
            "noise_ratio": round(noise_ratio, 4),
            "rho": cfg.rho,
        }
    )


def _generate_dataset(
    code: str, size_factor: float, random_state: int, noise_ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """The deterministic dataset construction behind the store layer."""
    x, y = load_dataset(code, size_factor, random_state)
    if noise_ratio > 0:
        y, _ = inject_class_noise(y, noise_ratio, random_state=random_state + 9173)
    return x, y


def _guarded_ratio(sampling_ratio: float, n_samples: int) -> float:
    """Clamp a GBABS report ratio into (0, 1] (SRS rejects 0 and > 1)."""
    return min(1.0, max(sampling_ratio, 1.0 / n_samples))


def dataset_with_noise(
    code: str, cfg: ExperimentConfig, noise_ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """Load a surrogate and corrupt its labels at ``noise_ratio``.

    Matches the paper's setup: noisy variants are constructed on the whole
    dataset (train *and* test folds carry noise), which is why reported
    accuracies at 40% noise sit near 0.55 rather than near the clean rate.
    """
    key = dataset_key(code, cfg, noise_ratio)
    store = get_store()
    cached = store.get("data", key)
    if cached is None:
        cached = _generate_dataset(
            code, cfg.size_factor, cfg.random_state, noise_ratio
        )
        # Datasets are cheap to regenerate and large on disk: memory-only.
        store.put("data", key, cached, persist=False)
    return cached


def reference_gbabs_ratio(
    code: str, cfg: ExperimentConfig, noise_ratio: float
) -> float:
    """GBABS sampling ratio on the full (noisy) dataset.

    §V-A3: "the sampling ratio of the SRS on each dataset is consistent
    with that of GBABS" — this reference ratio parameterises SRS.
    """
    key = gbabs_ratio_key(code, cfg, noise_ratio)
    store = get_store()
    cached = store.get("ratio", key)
    if cached is not None:
        return cached
    # Several distributed workers can need the same reference ratio at
    # once (it costs a full-dataset granulation); the store's lease makes
    # one compute it while the rest poll for the value.  Without a disk
    # layer try_claim always succeeds and this reduces to the plain path.
    owner = default_claim_owner("ratio")
    while not store.try_claim("ratio", key, owner):
        time.sleep(min(store.lease_ttl / 10.0, 0.2))
        cached = store.get("ratio", key)
        if cached is not None:
            return cached
    try:
        cached = store.get("ratio", key)  # may have landed before our claim
        if cached is None:
            with ClaimHeartbeat(store, "ratio", key, owner):
                x, y = dataset_with_noise(code, cfg, noise_ratio)
                sampler = GBABS(rho=cfg.rho, random_state=cfg.random_state)
                sampler.fit_resample(x, y)
                cached = _guarded_ratio(
                    sampler.report_.sampling_ratio, x.shape[0]
                )
            store.put("ratio", key, cached)
    finally:
        store.release_claim("ratio", key, owner)
    return cached


# ----------------------------------------------------------------------
# Pool payload tasks.  The executor's scheduler dispatches these to the
# worker pool so a cold run resolves datasets and GBABS reference ratios
# *in parallel* instead of as a serial prefix in the parent; the parent
# flushes the returned values through the store, so serial paths and
# resumed runs keep seeing identical cached inputs.
# ----------------------------------------------------------------------


def resolve_dataset_task(
    code: str, size_factor: float, random_state: int, noise_ratio: float
):
    """Worker task: generate one (dataset, noise) variant.

    Returns ``((x, y), seconds)`` — identical arrays to what
    :func:`dataset_with_noise` would construct in the parent.
    """
    import time

    start = time.perf_counter()
    x, y = _generate_dataset(code, size_factor, random_state, noise_ratio)
    return (x, y), time.perf_counter() - start


def resolve_ratio_task(block_meta, rho: int, random_state: int):
    """Worker task: GBABS reference ratio over a shared dataset block.

    Attaches the block published by the parent (zero-copy) and runs the
    same granulation :func:`reference_gbabs_ratio` would run, so the
    returned value is bit-identical to the serial path.
    """
    import time

    from repro.experiments.data_plane import cv_block_views

    start = time.perf_counter()
    x, y, _splits = cv_block_views(block_meta)
    sampler = GBABS(rho=rho, random_state=random_state)
    sampler.fit_resample(x, y)
    ratio = _guarded_ratio(sampler.report_.sampling_ratio, x.shape[0])
    return ratio, time.perf_counter() - start


def sampler_factory_for(
    method: str,
    code: str,
    cfg: ExperimentConfig,
    noise_ratio: float,
    rho: int | None = None,
) -> SamplerSpec | None:
    """Seedable sampler factory for one (method, dataset, noise) cell.

    Returns ``None`` for the un-sampled baseline (``"ori"``), which
    :func:`evaluate_pipeline` interprets as training on the raw fold.
    """
    method = method.lower()
    rho = cfg.rho if rho is None else rho
    if method == "ori":
        return None
    if method == "gbabs":
        return SamplerSpec("gbabs", params=(("rho", rho),))
    if method == "srs":
        ratio = reference_gbabs_ratio(code, cfg, noise_ratio)
        return SamplerSpec("srs", params=(("ratio", ratio),))
    if method == "smnc":
        cats = tuple(get_spec(code).categorical_features)
        return SamplerSpec("smnc", params=(("categorical_features", cats),))
    if method in ("ggbs", "igbs", "sm", "bsm", "tomek"):
        return SamplerSpec(method)
    raise ValueError(f"no factory rule for sampler {method!r}")


def classifier_factory_for(name: str, cfg: ExperimentConfig) -> ClassifierSpec:
    """Seedable classifier factory with profile-scaled ensemble sizes."""
    name = name.lower()
    if name in ("dt", "knn"):
        return ClassifierSpec(name)
    if name == "rf":
        return ClassifierSpec(
            "rf", params=(("n_estimators", cfg.n_estimators),), seeded=True
        )
    if name in ("xgboost", "lightgbm"):
        return ClassifierSpec(name, params=(("n_estimators", cfg.n_estimators),))
    raise ValueError(f"no factory rule for classifier {name!r}")


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------


def cell_key(
    code: str,
    method: str,
    classifier: str,
    cfg: ExperimentConfig,
    noise_ratio: float = 0.0,
    metrics: tuple[str, ...] = ("accuracy",),
    rho: int | None = None,
) -> str:
    """Stable JSON key identifying one CV cell's full parameterisation."""
    return stable_key(
        {
            "kind": "cv-cell",
            "code": code,
            "method": method,
            "classifier": classifier,
            "profile": cfg.name,
            "size_factor": cfg.size_factor,
            "n_splits": cfg.n_splits,
            "n_repeats": cfg.n_repeats,
            "n_estimators": cfg.n_estimators,
            "random_state": cfg.random_state,
            "noise_ratio": round(noise_ratio, 4),
            "metrics": list(metrics),
            "rho": rho if rho is not None else cfg.rho,
        }
    )


def run_cell(
    code: str,
    method: str,
    classifier: str,
    cfg: ExperimentConfig,
    noise_ratio: float = 0.0,
    metrics: tuple[str, ...] = ("accuracy",),
    rho: int | None = None,
    n_jobs: int | None = 1,
) -> CVResult:
    """One cached CV evaluation of (dataset, noise, sampler, classifier).

    ``n_jobs > 1`` fans the cell's folds over worker processes; results are
    bit-identical to serial execution.
    """
    from repro.experiments.executor import CellSpec, ExperimentExecutor

    spec = CellSpec(
        code=code,
        method=method,
        classifier=classifier,
        noise_ratio=noise_ratio,
        metrics=tuple(metrics),
        rho=rho,
    )
    return ExperimentExecutor(cfg, n_jobs=n_jobs, store=get_store()).run([spec])[0]
