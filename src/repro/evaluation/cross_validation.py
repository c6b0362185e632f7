"""Repeated stratified cross-validation with in-fold resampling.

The paper's protocol (§V-A3): five-fold cross-validation repeated five
times, sampling applied to the *training* portion of each fold only, the
classifier trained on the resampled fold and scored on the untouched test
fold.  :func:`evaluate_pipeline` implements exactly that and returns both
per-fold values and aggregate statistics.

Fold scheduling is split into pure pieces so serial and parallel execution
are bit-identical:

* :func:`plan_folds` derives every fold's split seed and sampler/classifier
  seed from the master seed (``SeedSequence`` → per-repetition state, plus
  a global fold counter) without running anything.
* :func:`run_fold` evaluates exactly one planned fold.
* :func:`evaluate_pipeline` executes the plan — inline for ``n_jobs=1``, or
  fanned over a ``ProcessPoolExecutor`` for ``n_jobs > 1`` — and assembles
  the per-fold results *in plan order*, so the returned :class:`CVResult`
  is float-for-float identical regardless of ``n_jobs``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.evaluation.metrics import compute_metric

__all__ = [
    "stratified_kfold_indices",
    "CVResult",
    "FoldPlan",
    "plan_folds",
    "run_fold",
    "resolve_n_jobs",
    "collect_cv_result",
    "splits_for_plan",
    "run_folds_pooled",
    "budget_blas_threads",
    "evaluate_pipeline",
]


def stratified_kfold_indices(
    y: np.ndarray,
    n_splits: int = 5,
    shuffle: bool = True,
    random_state: int | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold split index pairs.

    Samples of each class are dealt round-robin over the folds (after an
    optional shuffle), so every fold's class distribution mirrors the whole
    dataset as closely as integer counts allow.  Classes smaller than
    ``n_splits`` simply appear in fewer folds — the split never fails.
    """
    y = np.asarray(y)
    if n_splits < 2:
        raise ValueError("n_splits must be >= 2")
    rng = np.random.default_rng(random_state)
    fold_of = np.empty(y.shape[0], dtype=np.intp)
    offset = 0
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        if shuffle:
            members = rng.permutation(members)
        fold_of[members] = (np.arange(members.size) + offset) % n_splits
        # Stagger the starting fold between classes so small classes do not
        # all pile into fold 0.
        offset += members.size
    splits = []
    for fold in range(n_splits):
        test = np.flatnonzero(fold_of == fold)
        train = np.flatnonzero(fold_of != fold)
        if test.size == 0 or train.size == 0:
            raise ValueError(
                f"n_splits={n_splits} too large for dataset of {y.size} samples"
            )
        splits.append((train, test))
    return splits


@dataclass
class CVResult:
    """Per-fold metric values plus aggregates for one pipeline."""

    metric_values: dict[str, np.ndarray]
    sampling_ratios: np.ndarray
    n_folds: int
    means: dict[str, float] = field(init=False)
    stds: dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        self.means = {k: float(v.mean()) for k, v in self.metric_values.items()}
        self.stds = {k: float(v.std()) for k, v in self.metric_values.items()}

    @property
    def mean_sampling_ratio(self) -> float:
        """Average kept fraction of the training folds (1.0 for oversamplers)."""
        return float(self.sampling_ratios.mean())

    def exactly_equal(self, other: "CVResult") -> bool:
        """Float-for-float equality — the serial/parallel parity contract.

        ``means``/``stds`` are derived from ``metric_values``, so comparing
        the per-fold arrays (plus ratios and the fold count) is exhaustive.
        """
        if (
            self.n_folds != other.n_folds
            or set(self.metric_values) != set(other.metric_values)
        ):
            return False
        if not all(
            np.array_equal(values, other.metric_values[name])
            for name, values in self.metric_values.items()
        ):
            return False
        return bool(np.array_equal(self.sampling_ratios, other.sampling_ratios))


@dataclass(frozen=True)
class FoldPlan:
    """Everything needed to execute one CV fold, derived without running it.

    Attributes
    ----------
    rep, fold:
        Repetition index and fold index within that repetition.
    index:
        Global fold position (``rep * n_splits + fold``); per-fold results
        are always assembled in this order.
    split_seed:
        Seed of :func:`stratified_kfold_indices` for this repetition (shared
        by all folds of the repetition).
    fold_seed:
        Seed handed to the sampler and classifier factories for this fold.
    """

    rep: int
    fold: int
    index: int
    split_seed: int
    fold_seed: int


def plan_folds(
    n_splits: int, n_repeats: int, random_state: int | None
) -> list[FoldPlan]:
    """Pure seed derivation for every fold of a repeated stratified CV.

    Reproduces the historical serial derivation exactly: one
    ``SeedSequence(random_state)`` yields ``n_repeats`` split seeds and
    ``n_repeats`` fold-seed bases; fold ``index`` (counted across
    repetitions) gets ``base[rep] + index``.
    """
    seeds = np.random.SeedSequence(random_state).generate_state(n_repeats * 2 + 1)
    plans = []
    index = 0
    for rep in range(n_repeats):
        for fold in range(n_splits):
            plans.append(
                FoldPlan(
                    rep=rep,
                    fold=fold,
                    index=index,
                    split_seed=int(seeds[rep]),
                    fold_seed=int(seeds[n_repeats + rep]) + index,
                )
            )
            index += 1
    return plans


def run_fold(
    x: np.ndarray,
    y: np.ndarray,
    train: np.ndarray,
    test: np.ndarray,
    classifier_factory: Callable[[int], object],
    sampler_factory: Callable[[int], object] | None,
    fold_seed: int,
    metrics: tuple[str, ...],
) -> tuple[dict[str, float], float]:
    """Evaluate one fold; returns (metric values, realised sampling ratio)."""
    x_train, y_train = x[train], y[train]
    if sampler_factory is not None:
        sampler = sampler_factory(fold_seed)
        x_fit, y_fit = sampler.fit_resample(x_train, y_train)
        if np.unique(y_fit).size < 2 and np.unique(y_train).size >= 2:
            # A sampler must not collapse the fold to one class;
            # fall back to the raw fold (keeps the protocol total).
            x_fit, y_fit = x_train, y_train
            ratio = 1.0
        else:
            ratio = y_fit.size / y_train.size
    else:
        x_fit, y_fit = x_train, y_train
        ratio = 1.0

    clf = classifier_factory(fold_seed)
    clf.fit(x_fit, y_fit)
    y_pred = clf.predict(x[test])
    return {m: compute_metric(m, y[test], y_pred) for m in metrics}, ratio


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` request to a positive worker count.

    ``None`` or ``0`` mean "all cores"; negative values count back from the
    core count (``-1`` = all cores, ``-2`` = all but one, …).
    """
    cores = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        return cores
    if n_jobs < 0:
        return max(1, cores + 1 + n_jobs)
    return int(n_jobs)


def collect_cv_result(
    fold_results: list[tuple[dict[str, float], float]],
    metrics: tuple[str, ...],
    n_folds: int,
) -> CVResult:
    """Assemble per-fold (metrics, ratio) pairs — in plan order — into a
    :class:`CVResult`."""
    return CVResult(
        metric_values={
            m: np.asarray([fr[0][m] for fr in fold_results]) for m in metrics
        },
        sampling_ratios=np.asarray([fr[1] for fr in fold_results]),
        n_folds=n_folds,
    )


def splits_for_plan(
    y: np.ndarray, n_splits: int, plan: list[FoldPlan]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """All split index pairs of a fold plan, indexed by ``FoldPlan.index``."""
    splits: list[tuple[np.ndarray, np.ndarray]] = []
    for rep in range(len(plan) // n_splits):
        splits.extend(
            stratified_kfold_indices(
                y,
                n_splits=n_splits,
                shuffle=True,
                random_state=plan[rep * n_splits].split_seed,
            )
        )
    return splits


# ----------------------------------------------------------------------
# Process-pool fold execution, shared by evaluate_pipeline (one payload)
# and the experiment executor (one payload per grid cell).  Payload
# arrays — (x, y, splits) — live in the zero-copy shared-memory data
# plane (:mod:`repro.experiments.data_plane`): the parent publishes each
# unique block once, workers attach read-only views by block id, and a
# task stays a small (block meta, fold index, fold seed, factories,
# metrics) tuple, so per-worker shipped bytes are O(unique blocks) rather
# than O(payloads × workers).
# ----------------------------------------------------------------------


def budget_blas_threads(n_workers: int) -> None:
    """Pool initializer: share the usable CPUs' BLAS threads among workers.

    Sets every OpenBLAS loaded in this process (numpy and scipy each bundle
    one) to ``max(1, usable CPUs // n_workers)`` threads, so concurrent
    workers do not each run one BLAS thread per core.  A no-op where no
    OpenBLAS is found.
    """
    import ctypes

    try:
        threads = max(1, len(os.sched_getaffinity(0)) // n_workers)
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except (AttributeError, OSError):
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(threads)


def _pool_fold_task(task) -> tuple[tuple[dict[str, float], float], float]:
    """Run one planned fold against a shared block; returns (result, secs)."""
    import time

    from repro.experiments.data_plane import cv_block_views

    meta, fold_index, fold_seed, classifier_factory, sampler_factory, metrics = task
    start = time.perf_counter()
    x, y, splits = cv_block_views(meta)
    train, test = splits[fold_index]
    result = run_fold(
        x, y, train, test, classifier_factory, sampler_factory, fold_seed, metrics
    )
    return result, time.perf_counter() - start


def run_folds_pooled(payloads, tasks, n_jobs: int, chunksize: int = 1):
    """Fan fold tasks over a worker pool; returns results in task order.

    ``payloads`` are ``(x, y, splits, classifier_factory, sampler_factory,
    metrics)`` tuples; ``tasks`` are ``(payload index, fold index, fold
    seed)`` triples.  Each payload's arrays are published to the shared
    data plane once and unlinked when all tasks have finished.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.data_plane import SharedArrayPlane, publish_cv_block

    with SharedArrayPlane() as plane:
        metas, extras = [], []
        for i, (x, y, splits, clf_factory, smp_factory, metrics) in enumerate(
            payloads
        ):
            metas.append(publish_cv_block(plane, i, x, y, splits))
            extras.append((clf_factory, smp_factory, metrics))
        pool_tasks = [
            (metas[pi], fold_index, fold_seed, *extras[pi])
            for pi, fold_index, fold_seed in tasks
        ]
        workers = min(n_jobs, len(tasks))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=budget_blas_threads,
            initargs=(workers,),
        ) as pool:
            return [
                result
                for result, _seconds in pool.map(
                    _pool_fold_task, pool_tasks, chunksize=chunksize
                )
            ]


def evaluate_pipeline(
    x: np.ndarray,
    y: np.ndarray,
    classifier_factory: Callable[[int], object],
    sampler_factory: Callable[[int], object] | None = None,
    n_splits: int = 5,
    n_repeats: int = 5,
    metrics: tuple[str, ...] = ("accuracy",),
    random_state: int | None = 0,
    n_jobs: int | None = 1,
) -> CVResult:
    """Repeated stratified CV of a (sampler → classifier) pipeline.

    Parameters
    ----------
    x, y:
        The (possibly noise-injected) dataset.
    classifier_factory:
        ``factory(seed) -> estimator`` with ``fit``/``predict``; a fresh
        estimator per fold keeps folds independent.
    sampler_factory:
        ``factory(seed) -> sampler`` with ``fit_resample``, applied to the
        training fold only; ``None`` trains on the raw fold.
    n_splits, n_repeats:
        The paper's protocol is 5 × 5.
    metrics:
        Names resolved through :mod:`repro.evaluation.metrics`.
    random_state:
        Master seed; folds, samplers and classifiers get derived seeds.
    n_jobs:
        Worker processes to fan folds over (``1`` = serial in-process,
        ``None``/``0`` = all cores).  Results are bit-identical to serial
        for any value.  For portability beyond fork-based platforms the
        factories should be picklable (module-level callables).

    Returns
    -------
    CVResult
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    plan = plan_folds(n_splits, n_repeats, random_state)
    splits = splits_for_plan(y, n_splits, plan)

    n_jobs = resolve_n_jobs(n_jobs)
    if n_jobs > 1 and len(plan) > 1:
        payloads = [(x, y, splits, classifier_factory, sampler_factory, metrics)]
        tasks = [(0, p.index, p.fold_seed) for p in plan]
        chunksize = max(1, len(tasks) // (n_jobs * 4))
        fold_results = run_folds_pooled(payloads, tasks, n_jobs, chunksize=chunksize)
    else:
        fold_results = [
            run_fold(
                x,
                y,
                splits[p.index][0],
                splits[p.index][1],
                classifier_factory,
                sampler_factory,
                p.fold_seed,
                metrics,
            )
            for p in plan
        ]

    return collect_cv_result(fold_results, metrics, n_splits * n_repeats)
