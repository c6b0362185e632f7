"""Parallel experiment engine: fan a CV cell grid over worker processes.

The paper's protocol multiplies out to hundreds of cross-validation
*cells* — (dataset, noise, sampler, classifier, rho) combinations — each
holding ``n_splits × n_repeats`` independent folds.  The
:class:`ExperimentExecutor` turns that grid into a flat stream of tasks
and fans the stream over one shared ``ProcessPoolExecutor``.

Cold runs use a **dependency-aware scheduler** over two task kinds:

* **payload tasks** resolve a cell's inputs in the pool — dataset
  generation (:func:`~repro.experiments.runner.resolve_dataset_task`) and
  GBABS reference ratios (:func:`~repro.experiments.runner.resolve_ratio_task`)
  — so the parent never granulates and cores are busy from the first
  second; resolved values flush through the
  :class:`~repro.experiments.store.CellStore` exactly as the serial path
  would write them;
* **fold tasks** dispatch per cell the moment the cell's payload lands
  (no global barrier between the phases).

Data movement is zero-copy: each unique ``(x, y, splits)`` block is
published once to the :class:`~repro.experiments.data_plane.SharedArrayPlane`
and workers attach read-only views, so task tuples stay index-sized and
per-worker shipped bytes are O(unique datasets), not O(cells × workers).

Guarantees:

* **Bit-identical results.**  Every fold's seed comes from the pure
  :func:`~repro.evaluation.cross_validation.plan_folds` derivation, the
  per-fold computation is the same :func:`run_fold` the serial path uses
  and fold results are re-assembled in plan order, so a parallel run's
  :class:`CVResult` equals the serial one float for float — for any
  worker count and any task completion interleaving.
* **Incremental durability.**  Finished cells are written to the store
  as soon as their last fold returns, so a killed run resumes from the
  persistent store instead of recomputing.
* **No shared-memory leaks.**  The plane is context-managed (plus an
  ``atexit`` net), so segments are unlinked on normal exit, worker
  crashes and ``KeyboardInterrupt``.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

import numpy as np

from repro.evaluation.cross_validation import (
    CVResult,
    budget_blas_threads,
    collect_cv_result,
    plan_folds,
    resolve_n_jobs,
    run_fold,
    splits_for_plan,
    _pool_fold_task,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.store import CellStore

__all__ = ["CellSpec", "ExperimentExecutor", "cell_key_for", "prefetch_cells"]


@dataclass(frozen=True)
class CellSpec:
    """One cell of the experiment grid (the non-config coordinates).

    Hashable, picklable and JSON-roundtrippable (see
    :mod:`repro.experiments.dispatch`), because a spec is shipped to
    pool workers, deduplicated in sets and serialised into distributed
    work manifests.  ``rho=None`` means "the profile's rho" — note that
    a ``rho=None`` spec and an explicit ``rho=cfg.rho`` spec are
    *different specs naming the same cell key*.
    """

    code: str
    method: str
    classifier: str
    noise_ratio: float = 0.0
    metrics: tuple[str, ...] = ("accuracy",)
    rho: int | None = None


def cell_key_for(cfg: ExperimentConfig, spec: CellSpec) -> str:
    """Store key of one cell — the identity shared by the executor, the
    distributed dispatcher and the worker loop (all three must agree on
    what one unit of work *is*)."""
    from repro.experiments import runner

    return runner.cell_key(
        spec.code,
        spec.method,
        spec.classifier,
        cfg,
        noise_ratio=spec.noise_ratio,
        metrics=spec.metrics,
        rho=spec.rho,
    )


class _CellState:
    """Parent-side bookkeeping for one in-flight cell."""

    __slots__ = (
        "key", "spec", "block_id", "needs_ratio", "classifier_factory",
        "sampler_factory", "results", "remaining",
    )

    def __init__(self, key, spec, block_id, needs_ratio, classifier_factory,
                 sampler_factory, n_folds):
        self.key = key
        self.spec = spec
        self.block_id = block_id
        self.needs_ratio = needs_ratio
        self.classifier_factory = classifier_factory
        self.sampler_factory = sampler_factory
        self.results = [None] * n_folds
        self.remaining = n_folds


class ExperimentExecutor:
    """Executes batches of experiment cells, cached and optionally parallel.

    Parameters
    ----------
    cfg:
        The experiment profile (CV protocol, sizes, master seed).
    n_jobs:
        Worker processes (``1`` = serial in-process, ``None``/``0`` = all
        cores).  Any value yields bit-identical results.
    store:
        Result store consulted before and updated after computing; defaults
        to the process-wide store.

    After :meth:`run`, :attr:`last_stats` holds the phase breakdown of the
    pass that computed missing cells: worker seconds spent on payload
    resolution vs folds, plane bytes published, pickled task bytes and
    task counts (all zero-filled for pure store hits).
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        n_jobs: int | None = 1,
        store: CellStore | None = None,
    ):
        from repro.experiments import runner

        self.cfg = cfg
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.store = store if store is not None else runner.get_store()
        self.last_stats: dict | None = None
        # Test seams: _pool_factory builds the worker pool (defaults to a
        # ProcessPoolExecutor), _completion_order permutes the order
        # completed futures are processed in (parity must hold for any).
        self._pool_factory = None
        self._completion_order = None

    # -- public API ----------------------------------------------------

    def key_for(self, spec: CellSpec) -> str:
        """Store key of ``spec`` under this executor's config."""
        return cell_key_for(self.cfg, spec)

    def run(self, specs: list[CellSpec]) -> list[CVResult]:
        """Evaluate every cell (store hits are free), preserving spec order.

        Contract: the returned list is positionally aligned with
        ``specs`` (duplicates included); results are bit-identical to a
        serial evaluation regardless of ``n_jobs``; and every freshly
        computed cell has been flushed through the store *before* this
        returns — an interruption mid-batch loses only in-flight cells.
        The executor never deletes store entries; it only reads and
        (idempotently) writes them.
        """
        keys = [self.key_for(s) for s in specs]
        results: dict[str, CVResult] = {}
        missing: set[str] = set()
        misses: list[tuple[str, CellSpec]] = []
        for key, spec in zip(keys, specs):
            if key in results or key in missing:
                continue
            cached = self.store.get("cell", key)
            if cached is not None:
                results[key] = cached
            else:
                missing.add(key)
                misses.append((key, spec))

        self.last_stats = self._fresh_stats()
        if misses:
            if self.n_jobs > 1:
                results.update(self._run_parallel(misses))
            else:
                results.update(self._run_serial(misses))
        return [results[key] for key in keys]

    # -- execution strategies ------------------------------------------

    @staticmethod
    def _fresh_stats() -> dict:
        return {
            "payload_seconds": 0.0,
            "fold_seconds": 0.0,
            "plane_bytes": 0,
            "task_bytes": 0,
            "n_blocks": 0,
            "n_data_tasks": 0,
            "n_ratio_tasks": 0,
            "n_fold_tasks": 0,
        }

    def _payload(self, spec: CellSpec):
        """Resolve one cell into (x, y, splits, factories, metrics).

        Mirrors ``evaluate_pipeline`` exactly: same float64 cast, same
        per-repetition split seeds.
        """
        from repro.experiments import runner

        x, y = runner.dataset_with_noise(spec.code, self.cfg, spec.noise_ratio)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        plan = plan_folds(self.cfg.n_splits, self.cfg.n_repeats, self.cfg.random_state)
        splits = splits_for_plan(y, self.cfg.n_splits, plan)
        sampler_factory = runner.sampler_factory_for(
            spec.method, spec.code, self.cfg, spec.noise_ratio, rho=spec.rho
        )
        classifier_factory = runner.classifier_factory_for(spec.classifier, self.cfg)
        return (x, y, splits, classifier_factory, sampler_factory, spec.metrics), plan

    def _finish(self, key: str, spec: CellSpec, fold_results) -> CVResult:
        result = collect_cv_result(
            list(fold_results),
            spec.metrics,
            self.cfg.n_splits * self.cfg.n_repeats,
        )
        self.store.put("cell", key, result)
        return result

    def _run_serial(self, misses) -> dict[str, CVResult]:
        stats = self.last_stats
        done: dict[str, CVResult] = {}
        for key, spec in misses:
            start = time.perf_counter()
            (x, y, splits, clf_f, smp_f, metrics), plan = self._payload(spec)
            stats["payload_seconds"] += time.perf_counter() - start
            start = time.perf_counter()
            fold_results = [
                run_fold(
                    x,
                    y,
                    splits[p.index][0],
                    splits[p.index][1],
                    clf_f,
                    smp_f,
                    p.fold_seed,
                    metrics,
                )
                for p in plan
            ]
            stats["fold_seconds"] += time.perf_counter() - start
            done[key] = self._finish(key, spec, fold_results)
        return done

    # -- dependency-aware pooled scheduler -----------------------------

    def _make_pool(self, max_workers: int):
        if self._pool_factory is not None:
            return self._pool_factory(max_workers)
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=budget_blas_threads,
            initargs=(max_workers,),
        )

    def _run_parallel(self, misses) -> dict[str, CVResult]:
        from concurrent.futures import FIRST_COMPLETED, wait

        from repro.experiments import runner
        from repro.experiments.data_plane import SharedArrayPlane, publish_cv_block

        cfg = self.cfg
        stats = self.last_stats
        plan = plan_folds(cfg.n_splits, cfg.n_repeats, cfg.random_state)
        n_folds = len(plan)

        # Dependency graph.  Block id = one unique (dataset, noise)
        # variant; srs cells additionally wait on that block's GBABS
        # reference ratio (always at cfg.rho, like the serial path).
        cells: list[_CellState] = []
        blocks: dict[tuple, dict] = {}
        ratios: dict[tuple, dict] = {}
        for key, spec in misses:
            block_id = (spec.code, round(spec.noise_ratio, 4))
            blocks.setdefault(
                block_id,
                {"meta": None, "cells": [], "ratio_waiting": False,
                 "code": spec.code, "noise": spec.noise_ratio},
            )
            needs_ratio = spec.method.lower() == "srs"
            sampler_factory = None
            if not needs_ratio:
                sampler_factory = runner.sampler_factory_for(
                    spec.method, spec.code, cfg, spec.noise_ratio, rho=spec.rho
                )
            classifier_factory = runner.classifier_factory_for(spec.classifier, cfg)
            state = _CellState(key, spec, block_id, needs_ratio,
                               classifier_factory, sampler_factory, n_folds)
            cells.append(state)
            if needs_ratio:
                ratios.setdefault(block_id, {"value": None})

        done: dict[str, CVResult] = {}
        futures: dict = {}
        sequence: dict = {}
        counter = 0

        with SharedArrayPlane() as plane, self._make_pool(self.n_jobs) as pool:

            def submit(fn, args, tag, account=True):
                nonlocal counter
                future = pool.submit(fn, *args)
                futures[future] = tag
                sequence[future] = counter
                counter += 1
                if account:
                    stats["task_bytes"] += len(pickle.dumps(args))
                return future

            def publish_block(block_id, x, y):
                block = blocks[block_id]
                splits = splits_for_plan(np.asarray(y), cfg.n_splits, plan)
                block["meta"] = publish_cv_block(plane, block_id, x, y, splits)
                stats["n_blocks"] += 1
                if block["ratio_waiting"]:
                    block["ratio_waiting"] = False
                    submit(
                        runner.resolve_ratio_task,
                        (block["meta"], cfg.rho, cfg.random_state),
                        ("ratio", block_id),
                    )
                    stats["n_ratio_tasks"] += 1
                for cell in block["cells"]:
                    if not cell.needs_ratio or ratios[block_id]["value"] is not None:
                        dispatch_folds(cell)

            def dispatch_folds(cell: _CellState):
                if cell.needs_ratio and cell.sampler_factory is None:
                    from repro.experiments.runner import SamplerSpec

                    cell.sampler_factory = SamplerSpec(
                        "srs", params=(("ratio", ratios[cell.block_id]["value"]),)
                    )
                meta = blocks[cell.block_id]["meta"]
                for p in plan:
                    task = (meta, p.index, p.fold_seed, cell.classifier_factory,
                            cell.sampler_factory, cell.spec.metrics)
                    submit(_pool_fold_task, (task,), ("fold", cell, p.index),
                           account=False)
                # A cell's fold tasks differ only in two small ints, so one
                # representative pickle accounts for all of them instead of
                # re-serialising every task on the dispatch hot path.
                stats["task_bytes"] += len(pickle.dumps((task,))) * n_folds
                stats["n_fold_tasks"] += n_folds

            # Initial dispatch: publish store-hit blocks, queue the rest;
            # ratio tasks go out as soon as their block is available.
            for block_id, block in blocks.items():
                for cell in cells:
                    if cell.block_id == block_id:
                        block["cells"].append(cell)
                if block_id in ratios:
                    cached = self.store.get(
                        "ratio", runner.gbabs_ratio_key(block["code"], cfg,
                                                        block["noise"])
                    )
                    if cached is not None:
                        ratios[block_id]["value"] = cached
                    else:
                        block["ratio_waiting"] = True
                cached_xy = self.store.get(
                    "data", runner.dataset_key(block["code"], cfg, block["noise"])
                )
                if cached_xy is not None:
                    publish_block(block_id, *cached_xy)
                else:
                    submit(
                        runner.resolve_dataset_task,
                        (block["code"], cfg.size_factor, cfg.random_state,
                         block["noise"]),
                        ("data", block_id),
                    )
                    stats["n_data_tasks"] += 1

            while futures:
                completed, _pending = wait(
                    list(futures), return_when=FIRST_COMPLETED
                )
                ordered = sorted(completed, key=sequence.__getitem__)
                if self._completion_order is not None:
                    ordered = self._completion_order(ordered)
                for future in ordered:
                    kind, *info = futures.pop(future)
                    sequence.pop(future)
                    payload = future.result()
                    if kind == "data":
                        (block_id,) = info
                        (x, y), seconds = payload
                        stats["payload_seconds"] += seconds
                        block = blocks[block_id]
                        self.store.put(
                            "data",
                            runner.dataset_key(block["code"], cfg, block["noise"]),
                            (x, y),
                            persist=False,
                        )
                        publish_block(block_id, x, y)
                    elif kind == "ratio":
                        (block_id,) = info
                        value, seconds = payload
                        stats["payload_seconds"] += seconds
                        block = blocks[block_id]
                        self.store.put(
                            "ratio",
                            runner.gbabs_ratio_key(block["code"], cfg,
                                                   block["noise"]),
                            value,
                        )
                        ratios[block_id]["value"] = value
                        for cell in block["cells"]:
                            if cell.needs_ratio:
                                dispatch_folds(cell)
                    else:  # fold
                        cell, fold_index = info
                        fold_result, seconds = payload
                        stats["fold_seconds"] += seconds
                        cell.results[fold_index] = fold_result
                        cell.remaining -= 1
                        if cell.remaining == 0:
                            done[cell.key] = self._finish(
                                cell.key, cell.spec, cell.results
                            )
            stats["plane_bytes"] = plane.total_bytes
        return done


def prefetch_cells(
    cfg: ExperimentConfig,
    specs: list[CellSpec],
    n_jobs: int | None,
) -> None:
    """Warm the store for a batch of cells (no-op when ``n_jobs`` is serial).

    Tables and figures call this before their serial assembly loops: the
    loops then hit the store's memory layer, so existing reporting code
    stays untouched while the actual computation saturates the machine.
    """
    if resolve_n_jobs(n_jobs) <= 1 or not specs:
        return
    ExperimentExecutor(cfg, n_jobs=n_jobs).run(specs)
