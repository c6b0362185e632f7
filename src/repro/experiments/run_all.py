"""Command-line entry point regenerating every table and figure.

Usage::

    python -m repro.experiments.run_all                 # quick profile, all
    python -m repro.experiments.run_all table2 fig6     # selected only
    python -m repro.experiments.run_all --profile medium
    python -m repro.experiments.run_all --profile full  # the paper's grid
    python -m repro.experiments.run_all --jobs 4        # parallel CV grid
    python -m repro.experiments.run_all --no-cache      # ignore disk store
    python -m repro.experiments.run_all --distributed --workers 4
    python -m repro.experiments.run_all --workers-external --store /mnt/grid

Results are printed as text reports and, with ``--json DIR``, also dumped
as JSON for post-processing.

``--jobs N`` fans every cross-validation cell over ``N`` worker processes
(``--jobs 0`` = all cores); results are bit-identical to serial.  Cold
runs resolve payloads (dataset generation, GBABS reference ratios) through
the pool too, and datasets ship to workers zero-copy via the shared-memory
data plane (one block per unique dataset, unlinked on exit).  Completed
cells land in the persistent store under ``benchmarks/output/cellstore/``
as soon as they finish, so an interrupted run resumes instead of
recomputing; ``--no-cache`` disables that disk layer for the session.

``--distributed`` turns this process into a *coordinator*: it serialises
the selected experiments' cell grids into a work manifest inside the
store directory, launches ``--workers N`` local worker processes
(``python -m repro.experiments.worker``) that split the grid through the
store's claim/lease protocol, waits for every cell to land, and then
assembles the tables/figures from pure store hits.  With
``--workers-external`` no workers are launched — point any number of
externally started workers (other machines sharing the directory) at the
same ``--store`` and the coordinator just plans, waits and assembles.
Either way the results are bit-identical to a serial run.

``--store`` / ``--store-url`` selects the store directory (a path or a
``file://`` URL) — see ``docs/architecture/store-backends.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments import ablations, figures, tables
from repro.experiments.backends import store_arg
from repro.experiments.config import FULL, MEDIUM, QUICK

_PROFILES = {"quick": QUICK, "medium": MEDIUM, "full": FULL}


def _jsonable(obj):
    """Recursively convert numpy containers for json.dump."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _experiments(cfg, n_jobs: int | None = 1):
    """(name, compute, render) triples for every table/figure/ablation."""
    t2_cache: dict = {}

    def table2_cached():
        if "result" not in t2_cache:
            t2_cache["result"] = tables.table2(cfg, n_jobs=n_jobs)
        return t2_cache["result"]

    return [
        ("table1", lambda: tables.table1(cfg), tables.format_table1),
        ("table2", table2_cached, tables.format_table2),
        ("table3", lambda: tables.table3(cfg, table2_cached()), tables.format_table3),
        ("table4", lambda: tables.table4(cfg, n_jobs=n_jobs), tables.format_table4),
        ("fig5", lambda: figures.fig5(cfg), figures.format_fig5),
        ("fig6", lambda: figures.fig6(cfg), figures.format_fig6),
        ("fig7_fig8", lambda: figures.fig7_fig8(cfg, n_jobs=n_jobs),
         figures.format_fig7_fig8),
        ("fig9", lambda: figures.fig9(cfg, n_jobs=n_jobs), figures.format_fig9),
        ("fig10_fig11", lambda: figures.fig10_fig11(cfg, n_jobs=n_jobs),
         figures.format_fig10_fig11),
        ("ablation_overlap", lambda: ablations.ablation_overlap(cfg, n_jobs=n_jobs),
         ablations.format_ablation),
        ("ablation_noise",
         lambda: ablations.ablation_noise_detection(cfg, n_jobs=n_jobs),
         ablations.format_ablation),
        ("ablation_borderline",
         lambda: ablations.ablation_borderline(cfg, n_jobs=n_jobs),
         ablations.format_ablation),
    ]


def _coordinate(args, cfg, selected: list[str]) -> None:
    """Distributed phase: plan, (maybe) launch workers, wait for the grid.

    On return every cell behind the selected experiments is in the store,
    so the regular serial rendering loop assembles from pure hits.
    Experiments without a cell grid (table1, fig5, fig6, the ablations)
    are simply computed locally by that loop.
    """
    from repro.experiments import dispatch
    from repro.experiments.runner import get_store

    store = get_store()
    if not store.persist or store.backend is None:
        raise RuntimeError(
            "distributed mode needs a persistent store "
            "(is REPRO_CELLSTORE=off?)"
        )
    cell_backed = [n for n in selected if n in dispatch.GRID_EXPERIMENTS]
    units = dispatch.plan_grid(cfg, cell_backed) if cell_backed else []
    units = dispatch.pending_units(store, units)
    if not units:
        print("[distributed] no pending cells; assembling from the store")
        return
    manifest = dispatch.write_manifest(store, cfg, units)
    print(f"[distributed] {len(units)} pending cells -> {manifest}")

    def log(message: str) -> None:
        print(f"[distributed] {message}", flush=True)

    # The manifest exists before any worker starts, so one that finds none
    # (it started after its peers finished the grid) exits 0, not idles.
    extra_args = ["--plan-written"]
    if args.store_codec:
        extra_args += ["--store-codec", args.store_codec]

    supervisor = None
    elastic = args.min_workers is not None or args.max_workers is not None
    if args.workers_external:
        print(f"[distributed] waiting for external workers on {store.url}")
    elif elastic:
        # Elastic fleet: start at the floor, let queue depth pull in more
        # workers.  The lru claim order makes late joiners steal the
        # least-recently-attempted cells instead of queueing behind a
        # straggler's fixed permutation.
        min_workers = max(1, args.min_workers or 1)
        max_workers = max(min_workers, args.max_workers or args.workers)

        def command_for(index: int) -> list[str]:
            return dispatch.worker_command(
                store.url, index, jobs=args.jobs, claim_order="lru",
                extra_args=extra_args,
            )

        supervisor = dispatch.FleetSupervisor(
            [command_for(index) for index in range(min_workers)],
            max_restarts=args.max_restarts, log=log,
            command_factory=command_for,
            min_workers=min_workers, max_workers=max_workers,
            scale_threshold=args.scale_threshold,
        )
        supervisor.start()
    else:
        n_workers = max(1, args.workers)
        stagger = max(1, len(units) // n_workers)
        commands = [
            dispatch.worker_command(
                store.url, index, jobs=args.jobs, stagger=stagger,
                extra_args=extra_args,
            )
            for index in range(n_workers)
        ]
        supervisor = dispatch.FleetSupervisor(
            commands, max_restarts=args.max_restarts, log=log
        )
        supervisor.start()

    def fleet_dead() -> bool:
        # poll() first: a freshly-died worker gets its exit logged and
        # its restart scheduled before it can count as dead.
        if supervisor is None:
            return False
        supervisor.poll()
        return supervisor.fleet_dead()

    def on_poll(remaining) -> None:
        if supervisor is not None:
            supervisor.autoscale(len(remaining))

    try:
        dispatch.wait_for_grid(
            store,
            units,
            poll=args.poll,
            timeout=args.timeout,
            should_abort=fleet_dead,
            on_progress=lambda done, total: print(
                f"[distributed] {done}/{total} cells done", flush=True
            ),
            on_poll=on_poll,
        )
        # Consumed manifests must not linger: workers joining this store
        # later would adopt them as part of their exit condition.
        dispatch.prune_manifests(store)
    finally:
        if supervisor is not None:
            supervisor.terminate()
            if supervisor.scale_ups or supervisor.scale_downs:
                log(f"fleet scaled up {supervisor.scale_ups}x, "
                    f"down {supervisor.scale_downs}x")
            for entry in supervisor.summary():
                codes = ",".join(str(c) for c in entry["exit_codes"]) or "-"
                if entry["gave_up"]:
                    status = "gave up"
                elif entry["retired"]:
                    status = "retired"
                else:
                    status = "stopped"
                log(f"worker {entry['worker']}: {status}, "
                    f"restarts={entry['restarts']}, exits=[{codes}]")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: all)")
    parser.add_argument("--profile", choices=sorted(_PROFILES), default="quick")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also dump raw results as JSON files")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the CV grids "
                             "(0 = all cores; results identical to serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent cell store for this run")
    parser.add_argument("--distributed", action="store_true",
                        help="coordinate worker processes over the shared "
                             "store instead of computing cells in-process")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes the coordinator launches "
                             "in --distributed mode (default: 2)")
    parser.add_argument("--workers-external", action="store_true",
                        help="distributed, but launch no workers: wait for "
                             "externally started ones sharing --store")
    parser.add_argument("--min-workers", type=int, default=None, metavar="N",
                        help="elastic fleet floor: start this many workers "
                             "and let queue depth scale the fleet up to "
                             "--max-workers (enables autoscaling)")
    parser.add_argument("--max-workers", type=int, default=None, metavar="N",
                        help="elastic fleet ceiling (default: --workers)")
    parser.add_argument("--scale-threshold", type=int, default=4, metavar="N",
                        help="pending cells per worker before the "
                             "autoscaler adds another (default: 4)")
    parser.add_argument("--store-codec", default=None, metavar="CODEC",
                        help="payload compression codec (zlib | lzma | "
                             "none; default: $REPRO_STORE_CODEC or zlib); "
                             "passed through to spawned workers")
    parser.add_argument("--max-restarts", type=int, default=2, metavar="N",
                        help="restarts per crashed worker slot before the "
                             "supervisor gives up on it (default: 2)")
    parser.add_argument("--store", "--store-url", dest="store",
                        metavar="DIR_OR_URL", default=None, type=store_arg,
                        help="cell store: a directory or a file:// URL "
                             "(default: benchmarks/output/cellstore, "
                             "$REPRO_CELLSTORE_DIR, or the profile's "
                             "store_url)")
    parser.add_argument("--poll", type=float, default=0.5, metavar="S",
                        help="coordinator poll interval while waiting for "
                             "distributed cells")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="fail the distributed wait after this long")
    args = parser.parse_args(argv)

    if args.workers_external:
        args.distributed = True
    if args.distributed and args.no_cache:
        parser.error("--distributed needs the persistent store; "
                     "drop --no-cache")

    cfg = _PROFILES[args.profile]

    from repro.experiments.runner import configure_store

    from repro.experiments.store import cellstore_disabled

    cellstore_off = cellstore_disabled()
    # Codec precedence mirrors the store-target one: explicit flag, then
    # the environment (inside CellStore), then the profile default.
    codec = args.store_codec or (
        cfg.store_codec if not os.environ.get("REPRO_STORE_CODEC") else None
    )
    if args.store:
        configure_store(root=args.store, persist=not args.no_cache,
                        codec=codec)
    elif (cfg.store_url and not os.environ.get("REPRO_CELLSTORE_DIR")
          and not cellstore_off):
        # Profile-level default store; explicit flags and the environment
        # — including the REPRO_CELLSTORE=off kill switch — override it
        # (it is deployment config, not an experiment knob).
        configure_store(root=cfg.store_url, persist=not args.no_cache,
                        codec=codec)
    elif args.no_cache:
        configure_store(persist=False)
    elif codec:
        configure_store(codec=codec)
    # In distributed mode grid experiments become pure store hits after
    # the wait, so --jobs only matters for the locally-computed rest
    # (ablations, fig5/6) — pass it through either way.
    available = _experiments(cfg, n_jobs=args.jobs)
    names = [n for n, _, _ in available]
    selected = args.experiments or names
    unknown = sorted(set(selected) - set(names))
    if unknown:
        parser.error(f"unknown experiments: {unknown}; available: {names}")

    if args.distributed:
        try:
            _coordinate(args, cfg, selected)
        except (RuntimeError, TimeoutError) as exc:
            print(f"[distributed] FAILED: {exc}")
            return 1

    json_dir = Path(args.json) if args.json else None
    if json_dir:
        json_dir.mkdir(parents=True, exist_ok=True)

    for name, compute, render in available:
        if name not in selected:
            continue
        start = time.time()
        result = compute()
        elapsed = time.time() - start
        print(f"\n=== {name} (profile: {cfg.name}, {elapsed:.1f}s) ===")
        print(render(result))
        if json_dir:
            path = json_dir / f"{name}.json"
            path.write_text(json.dumps(_jsonable(result), indent=2))
            print(f"[saved {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
