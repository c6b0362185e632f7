"""Standalone distributed grid worker.

Usage::

    python -m repro.experiments.worker --store DIR --jobs N

A worker points at a shared :class:`~repro.experiments.store.CellStore`
directory (``--store`` and ``--store-url`` are the same flag; both also
take a ``file://`` URL), reads the work manifests a coordinator wrote
there (:mod:`repro.experiments.dispatch`), and loops: claim a pending
cell (an ``O_EXCL`` claim file with a heartbeat lease), execute it
through the existing :class:`~repro.experiments.executor.ExperimentExecutor`
/ data-plane stack (``--jobs`` fans the cell's folds over a local
process pool), flush the result, release the claim.  It exits when every
manifest cell has a result.  A worker started *before* its coordinator
(the natural multi-node order) waits up to ``--max-idle`` seconds for a
manifest to appear, then exits with status 3 if none ever did.  A
spawner that wrote the manifest first passes ``--plan-written``: finding
no manifest then means the grid already finished and was pruned, so the
worker exits 0.  A bad command line — an unknown ``--claim-order`` or
``--store`` URL scheme among them — exits 2 (argparse's usage error),
which the fleet supervisor never restarts: the same command would fail
the same way again.

Fault model (the invariants the fault-injection suite pins down):

* a worker SIGKILLed mid-cell leaves its claim file behind; the lease
  expires after the TTL and any other worker reaps it and recomputes the
  cell — the grid is delayed, never lost;
* results are content-keyed, deterministic and written via atomic
  rename, so even a duplicated computation (reaped lease whose original
  owner was alive after all) converges to byte-identical store files —
  claims are an efficiency device, correctness never depends on them;
* torn claim/result/manifest files self-heal: corrupt results are
  dropped and recomputed, zero-byte claims age out by mtime, corrupt
  manifests are deleted for the coordinator to rewrite.

``--claim-order`` is the deterministic interleaving seam: it permutes
the order a worker attempts claims in (``sorted`` | ``reversed`` |
``rotate:N`` | ``lru``), which the parity tests sweep to show results
are bit-identical for *any* claim interleaving.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from repro.experiments.backends import store_arg
from repro.experiments.store import (
    DEFAULT_LEASE_TTL,
    CellStore,
    ClaimHeartbeat,
    default_claim_owner,
)

__all__ = [
    "LeastRecentlyAttempted",
    "claim_order_from",
    "default_owner",
    "worker_loop",
    "main",
]


def default_owner() -> str:
    """Claim-owner identity: host + pid (unique across a shared store)."""
    return default_claim_owner()


class LeastRecentlyAttempted:
    """Work-stealing claim order: never-attempted cells first (by key),
    then the one attempted longest ago.

    The worker notes every claim attempt (win or conflict), so a cell a
    peer is sitting on drifts to the *back* of this worker's list right
    after the conflict and migrates forward again as other cells are
    attempted — by the time the queue drains to stragglers, their cells
    are at the front of every idle worker's list and get stolen the
    moment the lease goes stale, instead of serialising the grid's tail
    behind a fixed permutation.  Ticks are a process-local counter, not
    wall-clock, so the order is deterministic for a given attempt
    history.
    """

    def __init__(self):
        self._tick = 0
        self._last_attempt: dict[str, int] = {}

    def note(self, key: str) -> None:
        """Record a claim attempt on ``key`` (called by the worker)."""
        self._tick += 1
        self._last_attempt[key] = self._tick

    def __call__(self, units):
        return sorted(
            units, key=lambda u: (self._last_attempt.get(u.key, 0), u.key)
        )


def claim_order_from(spec: str):
    """Resolve a ``--claim-order`` string into a list permutation.

    ``sorted`` (by unit key — the deterministic default), ``reversed``
    (descending key), ``rotate:N`` (sorted, then rotated left by N —
    gives each worker of a fleet a distinct starting point so they spread
    over the grid instead of racing for the same first cell) or ``lru``
    (least-recently-attempted first — the work-stealing order elastic
    fleets use so one straggler never serialises a grid's tail).
    """
    if spec == "sorted":
        return lambda units: sorted(units, key=lambda u: u.key)
    if spec == "lru":
        return LeastRecentlyAttempted()
    if spec == "reversed":
        return lambda units: sorted(units, key=lambda u: u.key, reverse=True)
    rotation = re.fullmatch(r"rotate:(-?[0-9]+)", spec)
    if rotation:
        shift = int(rotation.group(1))

        def rotate(units):
            ordered = sorted(units, key=lambda u: u.key)
            if not ordered:
                return ordered
            k = shift % len(ordered)
            return ordered[k:] + ordered[:k]
        return rotate
    raise ValueError(
        f"unknown claim order {spec!r}; use sorted, reversed, rotate:N "
        "or lru"
    )


def _claim_order_arg(spec: str):
    """argparse ``type=`` for ``--claim-order``: a bad value is a usage
    error (exit 2), not a traceback."""
    try:
        return claim_order_from(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def worker_loop(
    store_root,
    jobs: int | None = 1,
    owner: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = 0.25,
    heartbeat_interval: float | None = None,
    claim_order=None,
    max_idle: float = 300.0,
    plan_written: bool = False,
    units=None,
    log=None,
    codec: str | None = None,
) -> dict:
    """Claim-and-execute until the manifests' grid is complete.

    ``store_root`` is any store target (directory path, ``file://`` URL,
    or a ready :class:`~repro.experiments.backends.LocalFSBackend`).
    Returns a stats dict (cells computed, claim conflicts, reaped leases,
    polling rounds, lease-loss and heartbeat-retry counters, and
    ``idle_timeout`` when the loop gave up waiting on peers that stopped
    making progress for ``max_idle`` seconds).
    ``plan_written`` says the manifest predates this worker, so finding
    none means its grid finished and was pruned, not that it is unplanned.
    ``units`` overrides manifest discovery (tests inject a plan directly);
    ``claim_order`` is the interleaving seam (see :func:`claim_order_from`).

    Deletion discipline: this loop only ever deletes *claims it owns*,
    *stale* claims/spools (via :meth:`CellStore.reap_stale`) and
    *consumed or corrupt manifests* — never a result entry, which is
    immutable once written (corrupt results are healed inside the store's
    decode path, not here).
    """
    from repro.experiments import dispatch, runner
    from repro.experiments.executor import ExperimentExecutor

    owner = owner or default_owner()
    order = claim_order or claim_order_from("sorted")
    note_attempt = getattr(order, "note", lambda key: None)
    interval = heartbeat_interval or max(lease_ttl / 4.0, 0.05)
    log = log or (lambda message: None)

    store = CellStore(store_root, lease_ttl=lease_ttl, codec=codec)
    # The executor's serial payload path (datasets, SRS reference ratios)
    # resolves through the process-wide store: point it at the shared
    # directory so payload values are shared across the fleet too.
    previous_store = runner.get_store()
    runner.configure_store(store=store)
    stats = {
        "owner": owner,
        "computed": 0,
        "claim_conflicts": 0,
        "reaped_claims": 0,
        "rounds": 0,
        "idle_timeout": False,
        "lost_leases": 0,
        "heartbeat_retries": 0,
    }

    try:
        last_progress = time.monotonic()
        previous_pending = None
        seen_plan = plan_written
        while True:
            plan = units if units is not None else dispatch.load_manifests(store)
            if not plan:
                if units is not None or seen_plan:
                    # Explicitly told there is nothing to do — or the plan
                    # we worked from (or were spawned for) was pruned,
                    # which only happens once its grid completed.
                    break
                # No manifests yet: workers legitimately start before their
                # coordinator writes the plan (the multi-node flow), so wait
                # for one to appear instead of mistaking an empty queue for
                # a completed grid.
                if time.monotonic() - last_progress > max_idle:
                    stats["idle_timeout"] = True
                    break
                time.sleep(poll)
                continue
            seen_plan = True
            pending = dispatch.pending_units(store, plan)
            if not pending:
                # The pending scan is a cheap stat-level probe; before
                # declaring the grid done, decode-check every entry so a
                # torn result (healed to a miss here) is recomputed now
                # rather than surprising the coordinator's assembly.
                if all(store.verify("cell", unit.key) for unit in plan):
                    if units is None:
                        dispatch.prune_manifests(store)
                    break
                continue
            stats["rounds"] += 1
            if previous_pending is not None and len(pending) < previous_pending:
                last_progress = time.monotonic()  # peers are landing cells
            previous_pending = len(pending)
            progressed = False
            # One batched listing guards against cells that landed since the
            # pending scan; anything landing *after* this snapshot is still
            # safe — the executor consults the store before computing, so a
            # claimed-but-landed cell is a pure hit.
            still_missing = set(
                store.filter_missing("cell", [u.key for u in pending])
            )
            for unit in order(pending):
                if unit.key not in still_missing:
                    continue  # landed while we worked through the list
                note_attempt(unit.key)
                if not store.try_claim("cell", unit.key, owner):
                    stats["claim_conflicts"] += 1
                    continue
                log(f"claimed {unit.spec.code}/{unit.spec.method}/"
                    f"{unit.spec.classifier}")
                beat = ClaimHeartbeat(store, "cell", unit.key, owner, interval)
                try:
                    with beat:
                        executor = ExperimentExecutor(
                            unit.cfg, n_jobs=jobs, store=store
                        )
                        executor.run([unit.spec])
                finally:
                    stats["heartbeat_retries"] += beat.refresh_errors
                    if beat.lost:
                        stats["lost_leases"] += 1
                    store.release_claim("cell", unit.key, owner)
                stats["computed"] += 1
                progressed = True
                last_progress = time.monotonic()
                # Cells land continuously while we computed; refresh the
                # snapshot (one listing) so peer-landed cells are skipped
                # rather than claimed-and-hit.
                still_missing = set(
                    store.filter_missing("cell", [u.key for u in pending])
                )
            if progressed:
                continue
            # Everything pending is claimed by peers: wait for results to
            # land, reaping any leases (and orphan .tmp spools) whose owners
            # died so the grid cannot stall behind a crashed peer.
            store.reap_stale()
            if store.any_live_claim("cell", [u.key for u in pending]):
                # A heartbeated lease is proof a peer is computing (a
                # FULL-profile cell can legitimately outlast max_idle); only
                # a queue with no live leases counts as stalled.
                last_progress = time.monotonic()
            if time.monotonic() - last_progress > max_idle:
                stats["idle_timeout"] = True
                break
            time.sleep(poll)
    finally:
        stats["reaped_claims"] = store.stats["reaped_claims"]
        runner.configure_store(store=previous_store)
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", "--store-url", dest="store",
                        required=True, metavar="DIR_OR_URL", type=store_arg,
                        help="shared CellStore directory holding the work "
                             "manifests (a path or a file:// URL)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="local worker processes per cell "
                             "(0 = all cores; results identical to serial)")
    parser.add_argument("--owner", default=None,
                        help="claim-owner id (default: host:pid)")
    parser.add_argument("--ttl", type=float, default=DEFAULT_LEASE_TTL,
                        help="lease seconds before an unrefreshed claim "
                             "is presumed orphaned (fleet-wide setting)")
    parser.add_argument("--poll", type=float, default=0.25,
                        help="seconds between queue scans while waiting "
                             "on peers")
    parser.add_argument("--max-idle", type=float, default=300.0,
                        help="give up after this many seconds without "
                             "fleet-wide progress")
    parser.add_argument("--claim-order", default="sorted",
                        type=_claim_order_arg,
                        help="claim attempt order: sorted | reversed | "
                             "rotate:N | lru (deterministic interleaving "
                             "seam; lru is the work-stealing order)")
    parser.add_argument("--store-codec", default=None, metavar="CODEC",
                        help="payload compression codec (zlib | lzma | "
                             "none); every worker of a fleet must agree "
                             "for byte-identical convergence")
    parser.add_argument("--plan-written", action="store_true",
                        help="the manifest predates this worker: finding "
                             "none means its grid finished (exit 0)")
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(f"[worker {os.getpid()}] {message}", flush=True)

    # Exit code contract (the supervisor in run_all keys restart decisions
    # off these): 0 done, 2 usage error from argparse (never restarted —
    # it would fail identically), 3 idle timeout.
    stats = worker_loop(
        args.store,
        jobs=args.jobs,
        owner=args.owner,
        lease_ttl=args.ttl,
        poll=args.poll,
        claim_order=args.claim_order,
        max_idle=args.max_idle,
        plan_written=args.plan_written,
        log=log,
        codec=args.store_codec,
    )
    print(json.dumps(stats))
    return 3 if stats["idle_timeout"] else 0


if __name__ == "__main__":
    sys.exit(main())
