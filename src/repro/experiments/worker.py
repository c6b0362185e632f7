"""Standalone distributed grid worker.

Usage::

    python -m repro.experiments.worker --store DIR --jobs N
    python -m repro.experiments.worker --store-url fakes3://BUCKET_DIR
    python -m repro.experiments.worker --store-url s3://bucket/prefix

A worker points at a shared :class:`~repro.experiments.store.CellStore`
— a directory, or any store URL resolved by
:func:`repro.experiments.backends.resolve_backend` (``file://`` /
``fakes3://`` / ``s3://``; ``--store`` and ``--store-url`` are the same
flag) — reads the work manifests a coordinator wrote there
(:mod:`repro.experiments.dispatch`), and loops: claim a pending cell
(exclusive claim entry — ``O_EXCL`` file or conditional put — with a
heartbeat lease), execute it through the existing
:class:`~repro.experiments.executor.ExperimentExecutor` / data-plane
stack (``--jobs`` fans the cell's folds over a local process pool),
flush the result, release the claim.  It exits when every manifest cell
has a result.  A worker started *before* its coordinator (the natural
multi-node order) waits up to ``--max-idle`` seconds for a manifest to
appear, then exits with status 3 if none ever did.  A spawner that wrote
the manifest first passes ``--plan-written``: finding no manifest then
means the grid already finished and was pruned, so the worker exits 0.

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
``rotate:N``), which the parity tests sweep to show results are
bit-identical for *any* claim interleaving.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.experiments.resilience import (
    StorePermanentError,
    StoreUnavailableError,
)
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

#: Default seconds a worker keeps polling through a store outage before
#: giving up (exit code 4).  Sized to ride out a typical object-store
#: brownout (tens of seconds) without masking a real dead store for long.
DEFAULT_OUTAGE_GRACE = 60.0


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
    if spec.startswith("rotate:"):
        shift = int(spec.split(":", 1)[1])
        def rotate(units):
            ordered = sorted(units, key=lambda u: u.key)
            if not ordered:
                return ordered
            k = shift % len(ordered)
            return ordered[k:] + ordered[:k]
        return rotate
    raise ValueError(
        f"unknown claim order {spec!r}; use sorted, reversed or rotate:N"
    )


def worker_loop(
    store_root,
    jobs: int | None = 1,
    owner: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = 0.25,
    heartbeat_interval: float | None = None,
    claim_order=None,
    max_idle: float = 300.0,
    outage_grace: float = DEFAULT_OUTAGE_GRACE,
    plan_written: bool = False,
    units=None,
    log=None,
    codec: str | None = None,
) -> dict:
    """Claim-and-execute until the manifests' grid is complete.

    ``store_root`` is any store target (directory path, store URL, or a
    ready :class:`~repro.experiments.store.CellStore`'s backend).
    Returns a stats dict (cells computed, claim conflicts, reaped leases,
    polling rounds, outage/lease-loss counters plus the resilient
    backend's retry/breaker counters under ``store_resilience``, and
    ``idle_timeout`` when the loop gave up waiting on peers that stopped
    making progress for ``max_idle`` seconds).
    ``plan_written`` says the manifest predates this worker, so finding
    none means its grid finished and was pruned, not that it is unplanned.
    ``units`` overrides manifest discovery (tests inject a plan directly);
    ``claim_order`` is the interleaving seam (see :func:`claim_order_from`).

    **Outage behaviour.**  A transient store failure
    (:class:`~repro.experiments.resilience.StoreUnavailableError`, i.e.
    the resilient backend already exhausted its per-operation retries or
    its circuit breaker is open) does *not* kill the worker: the loop
    backs off and keeps polling for up to ``outage_grace`` seconds,
    resuming exactly where it left off when the store answers again (a
    cell lost mid-compute is simply reclaimed and recomputed — results
    are content-keyed and idempotent).  Only an outage outlasting the
    grace window propagates (exit code 4 from :func:`main`); a
    :class:`~repro.experiments.resilience.StorePermanentError`
    (``AccessDenied``-class faults) propagates immediately (exit code 2)
    because retrying it is a storm, not resilience.

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
        "outages": 0,
        "lost_leases": 0,
        "heartbeat_retries": 0,
    }

    def release_best_effort(kind: str, key: str) -> None:
        # Releasing a claim during an outage must not mask the original
        # error (or crash the outage handler): an unreleased claim has
        # no heartbeat and ages out by TTL like any orphan.
        try:
            store.release_claim(kind, key, owner)
        except StoreUnavailableError:
            pass

    try:
        last_progress = time.monotonic()
        previous_pending = None
        seen_plan = plan_written
        outage_since = None
        while True:
            try:
                plan = units if units is not None else dispatch.load_manifests(store)
                if units is None:
                    outage_since = None  # the manifest listing answered
                if not plan:
                    if units is not None or seen_plan:
                        # Explicitly told there is nothing to do — or the
                        # plan we worked from (or were spawned for) was
                        # pruned, which only happens once its grid completed.
                        break
                    # No manifests yet: workers legitimately start before
                    # their coordinator writes the plan (the multi-node
                    # flow), so wait for one to appear instead of mistaking
                    # an empty queue for a completed grid.
                    if time.monotonic() - last_progress > max_idle:
                        stats["idle_timeout"] = True
                        break
                    time.sleep(poll)
                    continue
                seen_plan = True
                pending = dispatch.pending_units(store, plan)
                outage_since = None  # the pending scan answered: store is back
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
                # One batched listing guards against cells that landed since
                # the pending scan; anything landing *after* this snapshot is
                # still safe — the executor consults the store before
                # computing, so a claimed-but-landed cell is a pure hit.
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
                    beat = ClaimHeartbeat(store, "cell", unit.key, owner,
                                          interval)
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
                        release_best_effort("cell", unit.key)
                    if beat.failed:
                        raise StorePermanentError(
                            f"lease refresh rejected permanently while "
                            f"computing {unit.spec.code}/{unit.spec.method}",
                            op="refresh_claim",
                        )
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
                # land, reaping any leases (and orphan .tmp spools) whose
                # owners died so the grid cannot stall behind a crashed peer.
                store.reap_stale()
                if store.any_live_claim("cell", [u.key for u in pending]):
                    # A heartbeated lease is proof a peer is computing (a
                    # FULL-profile cell can legitimately outlast max_idle);
                    # only a queue with no live leases counts as stalled.
                    last_progress = time.monotonic()
                if time.monotonic() - last_progress > max_idle:
                    stats["idle_timeout"] = True
                    break
                time.sleep(poll)
            except StoreUnavailableError as exc:
                now = time.monotonic()
                if outage_since is None:
                    outage_since = now
                    stats["outages"] += 1
                    log(f"store unavailable ({exc}); degrading gracefully "
                        f"for up to {outage_grace:.0f}s")
                if now - outage_since > outage_grace:
                    log("store outage outlasted the grace window; giving up")
                    raise
                # The resilient backend already retried with backoff (and
                # its breaker fast-fails while open), so a gentle fixed
                # cadence here is enough — the breaker's half-open probe is
                # what discovers recovery.
                time.sleep(max(poll, min(1.0, outage_grace / 16.0)))
                # An interrupted round is simply retried: claims we held are
                # released best-effort above, results are idempotent, and a
                # worker never deletes anything mid-outage.
    finally:
        stats["reaped_claims"] = store.stats["reaped_claims"]
        backend_stats = getattr(store.backend, "stats", None)
        if callable(backend_stats):
            stats["store_resilience"] = backend_stats()
        runner.configure_store(store=previous_store)
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", "--store-url", dest="store",
                        required=True, metavar="DIR_OR_URL",
                        help="shared CellStore holding the work manifests: "
                             "a directory, or a file:// / fakes3:// / "
                             "s3:// store URL")
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
    parser.add_argument("--outage-grace", type=float,
                        default=DEFAULT_OUTAGE_GRACE,
                        help="keep polling through a store outage for this "
                             "many seconds before giving up (exit code 4)")
    parser.add_argument("--claim-order", default="sorted",
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
    # off these): 0 done, 2 permanent store error (do not restart — it
    # will fail identically), 3 idle timeout, 4 outage grace exhausted.
    try:
        stats = worker_loop(
            args.store,
            jobs=args.jobs,
            owner=args.owner,
            lease_ttl=args.ttl,
            poll=args.poll,
            claim_order=claim_order_from(args.claim_order),
            max_idle=args.max_idle,
            outage_grace=args.outage_grace,
            plan_written=args.plan_written,
            log=log,
            codec=args.store_codec,
        )
    except StorePermanentError as exc:
        log(f"fatal: {exc}")
        return 2
    except StoreUnavailableError as exc:
        log(f"store unavailable past --outage-grace: {exc}")
        return 4
    print(json.dumps(stats))
    return 3 if stats["idle_timeout"] else 0


if __name__ == "__main__":
    sys.exit(main())
