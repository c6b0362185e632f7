"""Distributed grid dispatch: serialise experiments into work manifests.

The paper's evaluation protocol is a grid of content-keyed CV *cells*
(see :mod:`repro.experiments.executor`).  This module turns the grids
behind the tables and figures into durable **work manifests** that any
number of worker processes — on one machine, or on many machines sharing
the store directory over a network filesystem — can split.  Manifests
live in the same directory as the results they describe, so every
function here accepts a store target in any form (directory path,
``file://`` URL, a :class:`~repro.experiments.store.CellStore` or a raw
:class:`~repro.experiments.backends.LocalFSBackend`):

* :func:`grid_specs` single-sources the cell grid of each named
  experiment (``table2``, ``table4``, ``fig9`` …) from the same spec
  builders the in-process prefetch uses, so every execution mode computes
  exactly the same cells;
* :func:`plan_grid` pairs each deduplicated spec with its store key,
  yielding :class:`WorkUnit` values — the unit of claimable work;
* :func:`write_manifest` persists a plan as ``plan-<digest>.plan`` inside
  the store (atomic put, content-keyed name, so re-planning an identical
  grid is idempotent); :func:`load_manifests` is the worker side,
  deleting any manifest that fails to parse (same self-heal policy as
  corrupt results: a torn manifest is rewritten by the next coordinator
  run);
* :func:`wait_for_grid` is the coordinator's barrier: poll the store
  until every unit has a result, then assemble tables/figures from pure
  store hits;
* :func:`spawn_workers` launches local worker processes
  (``python -m repro.experiments.worker``) for the single-node
  convenience path — multi-node runs start workers out-of-band and point
  them at the shared directory;
* :class:`FleetSupervisor` keeps a spawned fleet alive: it logs every
  worker exit with its exit code as it happens, restarts crashed workers
  with crash-loop backoff up to a ``max_restarts`` cap, and reports
  per-worker status (restarts, exit-code history) in a final summary —
  so one SIGKILLed worker no longer silently shrinks the fleet until
  nothing is left.

Experiments without a cell-backed grid (Table I, Figs. 5–6, the
ablations) have nothing to distribute; the coordinator computes them
locally during assembly.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.backoff import BackoffPolicy
from repro.experiments.backends import LocalFSBackend, resolve_backend
from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import CellSpec, cell_key_for
from repro.experiments.store import CellStore, SCHEMA_VERSION

__all__ = [
    "GRID_EXPERIMENTS",
    "WorkUnit",
    "grid_specs",
    "plan_grid",
    "manifest_name",
    "write_manifest",
    "load_manifests",
    "prune_manifests",
    "pending_units",
    "wait_for_grid",
    "worker_command",
    "spawn_workers",
    "FleetSupervisor",
]

#: Manifest files live next to the results they describe.
MANIFEST_SUFFIX = ".plan"


@dataclass(frozen=True)
class WorkUnit:
    """One claimable unit of distributed work: a cell plus its identity.

    ``key`` is the cell's content key (what the store files and claim
    files are named after); ``cfg`` rides along so a worker process can
    execute the unit without any out-of-band profile configuration.
    """

    key: str
    spec: CellSpec
    cfg: ExperimentConfig


def _spec_payload(spec: CellSpec) -> dict:
    payload = asdict(spec)
    payload["metrics"] = list(payload["metrics"])
    return payload


def _spec_from_payload(payload: dict) -> CellSpec:
    payload = dict(payload)
    payload["metrics"] = tuple(payload["metrics"])
    return CellSpec(**payload)


def _grid_experiment_specs():
    """name -> spec-list builder for every cell-backed experiment.

    Derived experiments map to the grid they read: Table III consumes the
    Table-II cells, Figs. 7–8 re-plot Table-IV slices.
    """
    from repro.experiments import figures, tables

    return {
        "table2": tables.table2_specs,
        "table3": tables.table2_specs,
        "table4": tables.table4_specs,
        "fig7_fig8": tables.table4_specs,
        "fig9": figures.fig9_specs,
        "fig10_fig11": figures.fig10_fig11_specs,
    }


#: Names of experiments whose computation is a cell grid (distributable).
GRID_EXPERIMENTS = tuple(sorted(_grid_experiment_specs()))


def grid_specs(
    cfg: ExperimentConfig, experiments: list[str] | None = None
) -> list[CellSpec]:
    """Deduplicated cell specs behind ``experiments`` (default: all grids).

    Order is deterministic: experiments in the requested order, each
    grid's specs in definition order, first occurrence wins.
    """
    builders = _grid_experiment_specs()
    names = list(experiments) if experiments is not None else list(GRID_EXPERIMENTS)
    unknown = sorted(set(names) - set(builders))
    if unknown:
        raise ValueError(
            f"not cell-backed experiments: {unknown}; known: {GRID_EXPERIMENTS}"
        )
    seen: set[CellSpec] = set()
    specs: list[CellSpec] = []
    for name in names:
        for spec in builders[name](cfg):
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
    return specs


def plan_grid(
    cfg: ExperimentConfig, experiments: list[str] | None = None
) -> list[WorkUnit]:
    """Serialise the selected experiments into content-keyed work units."""
    units = []
    seen: set[str] = set()
    for spec in grid_specs(cfg, experiments):
        key = cell_key_for(cfg, spec)
        # Distinct specs can share a key (rho=None vs rho=cfg.rho).
        if key not in seen:
            seen.add(key)
            units.append(WorkUnit(key=key, spec=spec, cfg=cfg))
    return units


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------


def _backend_of(target) -> LocalFSBackend | None:
    """Backend behind any accepted store target (see module docstring)."""
    if isinstance(target, CellStore):
        return target.backend
    return resolve_backend(target)


def manifest_name(units: list[WorkUnit]) -> str:
    """Content-keyed manifest entry name for this exact set of unit keys."""
    digest = hashlib.sha256(
        "\n".join(sorted(u.key for u in units)).encode("utf-8")
    ).hexdigest()[:16]
    return f"plan-{digest}{MANIFEST_SUFFIX}"


def write_manifest(
    store_target, cfg: ExperimentConfig, units: list[WorkUnit]
) -> Path:
    """Atomically persist a work manifest into the store.

    The entry name is content-keyed over the unit keys, so re-planning an
    identical grid rewrites the same entry with the same bytes
    (idempotent); two racing coordinators converge the same way results
    do.  Returns the manifest's path.
    """
    if not units:
        raise ValueError("refusing to write an empty manifest")
    backend = _backend_of(store_target)
    payload = {
        "schema": SCHEMA_VERSION,
        "profile": cfg.to_dict(),
        "units": [{"key": u.key, "spec": _spec_payload(u.spec)} for u in units],
    }
    name = manifest_name(units)
    backend.put_atomic(name, json.dumps(payload, indent=1).encode("utf-8"))
    return backend.path(name)


#: Parse cache: manifests are immutable once published, so re-parsing
#: them on every worker poll round would cost O(grid) JSON decoding per
#: poll.  Keyed by (backend url, name), invalidated by mtime.
_MANIFEST_CACHE: dict[tuple[str, str], tuple[float, list[WorkUnit]]] = {}


def _manifest_names(backend: LocalFSBackend) -> list[str]:
    return [n for n in backend.list(prefix="plan-")
            if n.endswith(MANIFEST_SUFFIX)]


def _parse_manifest(backend: LocalFSBackend, name: str) -> list[WorkUnit] | None:
    """Parse one manifest (cached); ``None`` when corrupt or vanished."""
    stamp = backend.mtime(name)
    if stamp is None:
        return None
    cache_key = (backend.url, name)
    cached = _MANIFEST_CACHE.get(cache_key)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    try:
        raw = backend.get(name)
        if raw is None:
            return None
        payload = json.loads(raw)
        if payload["schema"] != SCHEMA_VERSION:
            raise ValueError("manifest schema mismatch")
        cfg = ExperimentConfig.from_dict(payload["profile"])
        parsed = [
            WorkUnit(
                key=entry["key"],
                spec=_spec_from_payload(entry["spec"]),
                cfg=cfg,
            )
            for entry in payload["units"]
        ]
    except Exception:
        return None
    _MANIFEST_CACHE[cache_key] = (stamp, parsed)
    return parsed


def load_manifests(store_target) -> list[WorkUnit]:
    """Every work unit described by manifests in the store.

    Corrupt manifests (torn writes, stale schema) are deleted — the
    self-heal contract: the coordinator that produced them rewrites the
    identical content-keyed entry on its next run.  Units are
    deduplicated by key across manifests.
    """
    backend = _backend_of(store_target)
    if backend is None:
        return []
    units: list[WorkUnit] = []
    seen: set[str] = set()
    for name in _manifest_names(backend):
        parsed = _parse_manifest(backend, name)
        if parsed is None:
            backend.delete(name)
            _MANIFEST_CACHE.pop((backend.url, name), None)
            continue
        for unit in parsed:
            if unit.key not in seen:
                seen.add(unit.key)
                units.append(unit)
    return units


def prune_manifests(store: CellStore) -> int:
    """Delete manifests whose every cell has landed; returns the count.

    Without pruning, a reused store accumulates every grid ever planned
    and workers would adopt all of them as their exit condition
    (recomputing stale grids nobody asked about).  Workers and
    coordinators prune on completion; a worker that later observes its
    previously-seen plan gone treats the grid as finished.  Manifests are
    the only entries this function may delete — results are immutable.
    """
    backend = store.backend
    if backend is None:
        return 0
    pruned = 0
    for name in _manifest_names(backend):
        parsed = _parse_manifest(backend, name)
        if parsed is None:
            continue  # load_manifests owns corrupt-entry healing
        if all(store.has("cell", unit.key) for unit in parsed):
            backend.delete(name)
            _MANIFEST_CACHE.pop((backend.url, name), None)
            pruned += 1
    return pruned


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


def pending_units(store: CellStore, units: list[WorkUnit]) -> list[WorkUnit]:
    """Units whose result has not landed in the store yet.

    Uses the store's *batched* existence probe (see
    :meth:`CellStore.filter_missing`): polling loops call this every few
    hundred milliseconds over whole grids.  Nothing is deserialised
    (loading every landed cell in every poller would cost O(grid) memory
    per process).
    """
    missing = set(store.filter_missing("cell", [u.key for u in units]))
    return [u for u in units if u.key in missing]


def wait_for_grid(
    store: CellStore,
    units: list[WorkUnit],
    poll: float = 0.5,
    timeout: float | None = None,
    should_abort=None,
    on_progress=None,
    on_poll=None,
) -> None:
    """Block until every unit's result is in the store.

    ``should_abort`` (optional callable) is consulted each poll; a truthy
    return raises ``RuntimeError`` — the coordinator passes a "did every
    spawned worker die?" probe so a crashed fleet fails fast instead of
    hanging on an empty queue.  ``on_progress(done, total)`` fires
    whenever the completed count changes.  ``on_poll(remaining)`` fires
    every poll round with the still-pending units — the elastic
    coordinator feeds this queue depth to
    :meth:`FleetSupervisor.autoscale`.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    total = len(units)
    last_done = -1
    while True:
        remaining = pending_units(store, units)
        done = total - len(remaining)
        if done != last_done and on_progress is not None:
            on_progress(done, total)
            last_done = done
        if on_poll is not None:
            on_poll(remaining)
        if not remaining:
            return
        if should_abort is not None and should_abort():
            raise RuntimeError(
                f"distributed run aborted with {len(remaining)} cells pending "
                "(no live workers left)"
            )
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(
                f"grid incomplete after {timeout:.0f}s: "
                f"{len(remaining)}/{total} cells pending"
            )
        time.sleep(poll)


def worker_command(
    store_root: str | Path,
    index: int = 0,
    jobs: int = 1,
    lease_ttl: float | None = None,
    claim_order: str | None = None,
    stagger: int = 0,
    extra_args: list[str] | None = None,
) -> list[str]:
    """The ``python -m repro.experiments.worker`` argv for fleet slot
    ``index``.

    Factored out of :func:`spawn_workers` so the supervisor can respawn
    a crashed slot with *exactly* the command that started it (same
    claim order, same flags) — a restarted worker must be
    indistinguishable from the original.
    """
    command = [sys.executable, "-m", "repro.experiments.worker",
               "--store", str(store_root), "--jobs", str(jobs)]
    if lease_ttl is not None:
        command += ["--ttl", str(lease_ttl)]
    if claim_order is not None:
        command += ["--claim-order", claim_order]
    elif stagger > 0:
        command += ["--claim-order", f"rotate:{index * stagger}"]
    if extra_args:
        command += list(extra_args)
    return command


def spawn_workers(
    store_root: str | Path,
    n_workers: int,
    jobs: int = 1,
    lease_ttl: float | None = None,
    claim_order: str | None = None,
    stagger: int = 0,
    extra_args: list[str] | None = None,
) -> list[subprocess.Popen]:
    """Launch local worker processes against a shared store directory.

    With ``stagger > 0`` (and no explicit ``claim_order``) worker ``i``
    claims in ``rotate:i*stagger`` order, so a fleet starts spread over
    the grid instead of racing for the same first cell.
    """
    return [
        subprocess.Popen(
            worker_command(store_root, index, jobs=jobs, lease_ttl=lease_ttl,
                           claim_order=claim_order, stagger=stagger,
                           extra_args=extra_args),
        )
        for index in range(max(1, n_workers))
    ]


# ----------------------------------------------------------------------
# Fleet supervision
# ----------------------------------------------------------------------


@dataclass
class _WorkerSlot:
    """Lifecycle record of one fleet position (survives its processes)."""

    index: int
    command: list[str]
    process: subprocess.Popen | None = None
    restarts: int = 0
    exit_codes: list[int] = field(default_factory=list)
    restart_at: float | None = None
    gave_up: bool = False
    retired: bool = False


class FleetSupervisor:
    """Keep a worker fleet alive: observe exits, restart crashes.

    Before supervision existed the coordinator only noticed worker
    deaths when *all* of them had died (``fleet_dead``), so a single
    OOM-kill quietly halved a two-worker fleet for the rest of the grid.
    The supervisor polls each slot, logs every exit with its exit code
    the moment it happens, and classifies it by the worker exit-code
    contract:

    * ``0`` (grid done) and ``3`` (idle timeout) are *benign* — the
      worker finished; nothing to restart;
    * ``2`` (usage error) is *fatal* — the same command fails the same
      way again, so the slot is abandoned immediately;
    * anything else (signal deaths like ``-SIGKILL``, crashes) is
      *restartable*: the slot respawns with its original command after a
      crash-loop backoff delay (:class:`~repro.backoff.BackoffPolicy`, so
      a worker dying instantly on start cannot hot-loop), up to
      ``max_restarts`` restarts per slot.

    The coordinator drives :meth:`poll` from its wait loop and uses
    :meth:`fleet_dead` as the abort probe; :meth:`summary` is the
    per-worker status block for the final report.  Restarts never spawn
    *extra* workers — one process per slot, always — so claim-owner
    cardinality stays bounded by the requested fleet size.

    **Elasticity.**  With a ``command_factory`` the fleet autoscales:
    the coordinator feeds pending-queue depth to :meth:`autoscale`,
    which spawns a new slot while depth exceeds ``scale_threshold``
    cells per active worker (up to ``max_workers``) and retires the
    newest slots (SIGTERM; exit recorded as retirement, never
    restarted) when the queue drains below the threshold (down to
    ``min_workers``).  A retired worker's orphaned claims simply age
    out by lease TTL and are stolen by survivors — claims are an
    efficiency device, never a correctness one, so scaling down
    mid-grid cannot lose results.
    """

    BENIGN_EXITS = frozenset({0, 3})
    FATAL_EXITS = frozenset({2})

    def __init__(
        self,
        commands: list[list[str]],
        max_restarts: int = 2,
        backoff: BackoffPolicy | None = None,
        env: dict | None = None,
        clock=time.monotonic,
        log=None,
        command_factory=None,
        min_workers: int | None = None,
        max_workers: int | None = None,
        scale_threshold: int = 4,
    ):
        self._slots = [
            _WorkerSlot(index=i, command=list(cmd))
            for i, cmd in enumerate(commands)
        ]
        self.max_restarts = int(max_restarts)
        self._backoff = backoff if backoff is not None else BackoffPolicy(
            base=0.5, factor=2.0, cap=10.0
        )
        self._env = None
        if env:
            self._env = dict(os.environ)
            self._env.update({k: str(v) for k, v in env.items()})
        self._clock = clock
        self._log = log or (lambda message: None)
        self._command_factory = command_factory
        self.min_workers = max(1, int(min_workers if min_workers is not None
                                      else len(self._slots)))
        self.max_workers = max(self.min_workers,
                               int(max_workers if max_workers is not None
                                   else len(self._slots)))
        self.scale_threshold = max(1, int(scale_threshold))
        self.scale_ups = 0
        self.scale_downs = 0

    def start(self) -> None:
        for slot in self._slots:
            slot.process = subprocess.Popen(slot.command, env=self._env)
            self._log(f"worker {slot.index} started (pid {slot.process.pid})")

    def poll(self) -> None:
        """Observe exits, schedule and perform due restarts (non-blocking)."""
        now = self._clock()
        for slot in self._slots:
            if slot.process is not None:
                code = slot.process.poll()
                if code is None:
                    continue
                slot.process = None
                slot.exit_codes.append(code)
                if slot.retired:
                    # An asked-for exit (scale-down SIGTERM usually lands
                    # as a signal death) — never restarted.
                    self._log(f"worker {slot.index} retired (exit {code})")
                elif code in self.BENIGN_EXITS:
                    self._log(f"worker {slot.index} finished (exit {code})")
                elif code in self.FATAL_EXITS:
                    slot.gave_up = True
                    self._log(
                        f"worker {slot.index} exited with a usage error "
                        f"(exit {code}); not restarting"
                    )
                elif slot.restarts >= self.max_restarts:
                    slot.gave_up = True
                    self._log(
                        f"worker {slot.index} died (exit {code}) after "
                        f"{slot.restarts} restart(s); giving up on this slot"
                    )
                else:
                    delay = self._backoff.delay(slot.restarts)
                    slot.restart_at = now + delay
                    self._log(
                        f"worker {slot.index} died (exit {code}); "
                        f"restarting in {delay:.1f}s "
                        f"({slot.restarts + 1}/{self.max_restarts})"
                    )
            if slot.restart_at is not None and now >= slot.restart_at:
                slot.restart_at = None
                slot.restarts += 1
                slot.process = subprocess.Popen(slot.command, env=self._env)
                self._log(
                    f"worker {slot.index} restarted "
                    f"(pid {slot.process.pid}, restart {slot.restarts})"
                )

    def _active_slots(self) -> list[_WorkerSlot]:
        """Slots still participating: running, or with a restart pending."""
        return [
            s for s in self._slots
            if not s.gave_up and not s.retired
            and ((s.process is not None and s.process.poll() is None)
                 or s.restart_at is not None)
        ]

    def autoscale(self, pending: int) -> None:
        """Resize the fleet to the queue depth (no-op on fixed fleets).

        Desired size is one worker per ``scale_threshold`` pending
        cells, clamped to ``[min_workers, max_workers]``.  Scaling up
        appends fresh slots from ``command_factory``; scaling down
        SIGTERMs the *newest* active slots (their exits are recorded as
        retirements by :meth:`poll`, never restarted).  Call after
        :meth:`poll` so freshly-dead slots are not counted active.
        """
        if self._command_factory is None:
            return
        active = self._active_slots()
        desired = -(-int(pending) // self.scale_threshold)  # ceil division
        desired = max(self.min_workers, min(self.max_workers, desired))
        if pending <= 0 and len(active) < desired:
            # A drained queue never spawns: workers that already exited
            # benignly (grid done) must not be replaced at shutdown.
            desired = len(active)
        if len(active) < desired:
            for _ in range(desired - len(active)):
                index = len(self._slots)
                slot = _WorkerSlot(
                    index=index, command=list(self._command_factory(index))
                )
                self._slots.append(slot)
                slot.process = subprocess.Popen(slot.command, env=self._env)
                self.scale_ups += 1
                self._log(
                    f"scaled up: worker {index} started "
                    f"(pid {slot.process.pid}; {pending} cells pending)"
                )
        elif len(active) > desired:
            for slot in reversed(active[desired - len(active):]):
                slot.retired = True
                slot.restart_at = None
                if slot.process is not None and slot.process.poll() is None:
                    slot.process.terminate()
                self.scale_downs += 1
                self._log(
                    f"scaling down: worker {slot.index} retiring "
                    f"({pending} cells pending)"
                )

    @property
    def processes(self) -> list[subprocess.Popen]:
        """Live worker processes (one per running slot)."""
        return [s.process for s in self._slots if s.process is not None]

    def live_count(self) -> int:
        return sum(
            1 for s in self._slots
            if s.process is not None and s.process.poll() is None
        )

    def fleet_dead(self) -> bool:
        """No live process, no restart pending: the fleet cannot recover.

        The coordinator's abort probe — call :meth:`poll` first so
        freshly-died slots get their restart scheduled before being
        counted dead.
        """
        return all(
            (s.process is None or s.process.poll() is not None)
            and s.restart_at is None
            for s in self._slots
        )

    def total_restarts(self) -> int:
        return sum(s.restarts for s in self._slots)

    def terminate(self, timeout: float = 5.0) -> None:
        """Stop every live worker (grid finished or coordinator aborting)."""
        for slot in self._slots:
            slot.restart_at = None  # no respawns after shutdown begins
            if slot.process is not None and slot.process.poll() is None:
                slot.process.terminate()
        for slot in self._slots:
            if slot.process is not None:
                try:
                    slot.process.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    slot.process.kill()
                    slot.process.wait()
                slot.exit_codes.append(slot.process.returncode)
                slot.process = None

    def summary(self) -> list[dict]:
        """Per-slot status for the coordinator's final report."""
        report = []
        for slot in self._slots:
            running = slot.process is not None and slot.process.poll() is None
            report.append({
                "worker": slot.index,
                "restarts": slot.restarts,
                "exit_codes": list(slot.exit_codes),
                "running": running,
                "gave_up": slot.gave_up,
                "retired": slot.retired,
            })
        return report
