"""Persistent, content-keyed result store for experiment cells.

Every expensive intermediate of the benchmark protocol — a cross-validated
(dataset, noise, sampler, classifier, rho) *cell*, a GBABS reference
sampling ratio, a generated dataset — is identified by a **stable JSON
key**: a ``json.dumps(..., sort_keys=True)`` rendering of every parameter
that influences the value.  The :class:`CellStore` maps such keys to
values through two layers:

* an in-process **memory layer** (a plain dict), which preserves the old
  ``_CELL_CACHE``-style object identity within a session, and
* a **durable layer** in one directory, through
  :class:`~repro.experiments.backends.LocalFSBackend` (one file per key,
  named ``<kind>-<sha256 prefix>.npz|.json``), which lets an interrupted
  table/figure regeneration *resume* instead of recompute and lets
  parallel workers share results across runs and machines.

The default location is ``benchmarks/output/cellstore/``, with a
byte-identical layout to every earlier release (existing stores resume
without migration).  Writes are atomic (temp file + rename), so
concurrent writers can never expose a torn entry; unreadable/corrupt
entries are deleted and treated as misses, so a damaged store heals
itself by recomputation.

**Claims and leases.**  The durable layer doubles as a work queue for
distributed execution (many worker processes — possibly on many machines
sharing a network filesystem directory — splitting one grid).
``try_claim(kind, key, owner)`` creates ``<kind>-<digest>.claim``
exclusively (``O_CREAT | O_EXCL``), so exactly one worker wins each
entry; the holder heartbeats via :meth:`refresh_claim` (an atomic
rewrite that advances the file's mtime) and removes the claim with
:meth:`release_claim` when the result has been written.  A claim whose
mtime is older than the store's ``lease_ttl`` is *stale* — its owner is presumed dead — and is reaped by
the next claimer, so a SIGKILLed worker delays its cell by at most one
TTL.  Truncated or otherwise unreadable claim files (a crash between the
exclusive create and the payload write leaves a zero-byte file) carry no
owner information but still age by mtime, so they too expire and can
never deadlock the grid.

The invariant that makes all of this safe: **claims are an efficiency
device, not a correctness device**.  Results are content-keyed and every
computation is deterministic, so if two workers ever compute the same
entry (a lease reaped from a live-but-stalled owner, a heartbeat lost to
a reap race), both write byte-identical entries through the atomic
rename and the store still converges to the single correct value.

**Compressed payloads.**  Result entries are written through a
*compress-once / decode-many* codec (``zlib`` by default — cells are
computed once and polled/read many times, so one compression pays for
itself across every later read).  Each entry carries a small
self-describing envelope naming the codec that produced it, which is
what keeps a store readable forever: legacy pre-envelope entries (raw
``.npz``/``.json`` bytes) pass through untouched, and entries written
with different codecs coexist in one store.  A truncated or corrupt
compressed payload fails its decode exactly like a torn legacy entry
and heals the same way — deleted, recomputed, rewritten.  All workers
sharing a store should agree on the codec (like ``lease_ttl``): mixed
codecs stay *readable* but duplicated computations then converge in
value rather than byte-for-byte.

Environment knobs: ``REPRO_CELLSTORE_DIR`` overrides the store location
(a directory or a ``file://`` URL),
``REPRO_CELLSTORE=off`` disables the durable layer entirely,
``REPRO_STORE_CODEC`` selects the payload codec (``zlib`` | ``lzma`` |
``none``; the ``--store-codec`` flags override it).
"""

from __future__ import annotations

import hashlib
import io
import json
import lzma
import os
import socket
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.evaluation.cross_validation import CVResult
from repro.experiments.backends import LocalFSBackend, resolve_backend

__all__ = [
    "CellStore",
    "ClaimHeartbeat",
    "stable_key",
    "cellstore_disabled",
    "default_store_root",
    "default_claim_owner",
    "default_store_codec",
    "encode_envelope",
    "decode_envelope",
    "CODECS",
    "DEFAULT_CODEC",
    "DEFAULT_LEASE_TTL",
]

#: Bump when the on-disk layout of stored values changes incompatibly.
SCHEMA_VERSION = 1

#: Default lease duration: a claim not heartbeat within this many seconds
#: is presumed orphaned (its owner crashed) and may be reaped.
DEFAULT_LEASE_TTL = 30.0

# ----------------------------------------------------------------------
# Payload codec (compress once on put, decode on every get/verify)
# ----------------------------------------------------------------------

#: codec name -> (encode, decode).  Every encoder must be deterministic
#: for a given input (fixed level/preset): identical recomputations must
#: keep producing identical stored bytes, the property the distributed
#: convergence argument rests on.  Registry is extensible — a zstd pair
#: would slot in here if the dependency were available.
CODECS: dict[str, tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]] = {
    "none": (lambda data: data, lambda data: data),
    "zlib": (lambda data: zlib.compress(data, 6), zlib.decompress),
    "lzma": (lambda data: lzma.compress(data, preset=1), lzma.decompress),
}

#: Cells are written once and read many times, so the cheap-to-decode
#: codec wins by default.
DEFAULT_CODEC = "zlib"

#: Envelope prefix of codec-wrapped entries.  The first byte collides
#: with neither legacy representation — raw ``.npz`` payloads start with
#: ``PK\x03\x04`` (zip), raw ``.json`` payloads with ``{`` — so legacy
#: entries are recognised unambiguously and keep reading forever.
_ENVELOPE_MAGIC = b"\xabRS1\x00"


def default_store_codec() -> str:
    """Codec selected by ``REPRO_STORE_CODEC`` (default: ``zlib``)."""
    return os.environ.get("REPRO_STORE_CODEC", "").strip().lower() or DEFAULT_CODEC


def encode_envelope(codec: str, raw: bytes) -> bytes:
    """Wrap ``raw`` in the self-describing codec envelope."""
    name = codec.encode("ascii")
    return _ENVELOPE_MAGIC + bytes([len(name)]) + name + CODECS[codec][0](raw)


def decode_envelope(payload: bytes) -> tuple[str | None, bytes]:
    """``(codec name, raw bytes)`` of a stored entry payload.

    Legacy pre-envelope entries return ``(None, payload)`` untouched.
    Raises (``KeyError`` for an unknown codec, the codec's own error for
    a truncated/garbage body) so the caller's heal path can treat the
    entry as corrupt.
    """
    if not payload.startswith(_ENVELOPE_MAGIC):
        return None, payload
    offset = len(_ENVELOPE_MAGIC)
    name_len = payload[offset]
    name = payload[offset + 1:offset + 1 + name_len].decode("ascii")
    body = payload[offset + 1 + name_len:]
    return name, CODECS[name][1](body)


def default_claim_owner(tag: str = "") -> str:
    """Claim-owner identity, unique across every machine sharing a store.

    Must be host-qualified: pid-only identities collide across machines
    on a network filesystem, which would defeat ``release_claim``'s
    owner guard.
    """
    prefix = f"{tag}-" if tag else ""
    return f"{prefix}{socket.gethostname()}:{os.getpid()}"


def stable_key(params: dict) -> str:
    """Canonical JSON rendering of a parameter dict (stable across runs)."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def cellstore_disabled() -> bool:
    """Whether the ``REPRO_CELLSTORE`` kill switch turns the durable
    layer off.  The single source of the accepted off-values — every
    path that might (re-)enable persistence must consult this."""
    return os.environ.get("REPRO_CELLSTORE", "").lower() in (
        "off", "0", "false"
    )


def default_store_root() -> str | Path | None:
    """Store location: ``$REPRO_CELLSTORE_DIR`` or benchmarks/output/cellstore.

    ``REPRO_CELLSTORE_DIR`` may be a directory or a ``file://`` URL.
    The directory default is anchored to the source checkout (three
    levels above this file), not the current working directory, so
    resumed runs find the same store no matter where the process was
    launched; outside a checkout (installed package) it falls back to
    the working directory.  Returns ``None``
    when ``REPRO_CELLSTORE`` is ``off``/``0`` (durable layer disabled).
    """
    if cellstore_disabled():
        return None
    env_dir = os.environ.get("REPRO_CELLSTORE_DIR")
    if env_dir:
        return env_dir if "://" in env_dir else Path(env_dir)
    checkout = Path(__file__).resolve().parents[3]
    if (checkout / "benchmarks").is_dir():
        return checkout / "benchmarks" / "output" / "cellstore"
    return Path("benchmarks") / "output" / "cellstore"


class CellStore:
    """Two-layer (memory + directory) store of content-keyed results.

    Parameters
    ----------
    root:
        Durable-layer target: a directory path, a ``file://`` URL, a
        ready-made :class:`~repro.experiments.backends.LocalFSBackend`,
        or ``None`` for a memory-only store.
    persist:
        Master switch for the durable layer (``False`` keeps only the
        memory layer even when ``root`` is set) — this is what
        ``--no-cache`` toggles.
    lease_ttl:
        Seconds a claim may go without a heartbeat before other workers
        may reap it.  All workers sharing one store must agree on this
        value.
    clock:
        Time source leases age against (tests inject a fake clock so
        lease-expiry scenarios advance time instead of sleeping).  Must
        share an epoch with file mtimes; the default — and the only
        sensible production value — is ``time.time``.
    codec:
        Payload codec new entries are written with (``zlib`` | ``lzma``
        | ``none``; default: ``REPRO_STORE_CODEC`` or ``zlib``).  Reads
        are codec-agnostic — the per-entry envelope says how to decode —
        so this only shapes *new* writes.
    """

    #: kind -> file extension of the durable representation.
    _EXT = {"cell": ".npz", "ratio": ".json"}

    #: Pending-key count at or below which the batched probes pay
    #: per-key round trips instead of a listing sweep, so steady-state
    #: polling cost scales with *pending* work — never with how many
    #: cells have already landed in the store.
    PROBE_LIMIT = 16

    def __init__(
        self,
        root: str | Path | LocalFSBackend | None,
        persist: bool = True,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.time,
        codec: str | None = None,
    ):
        self.backend = resolve_backend(root)
        #: Original constructor target, so a derived store (e.g. the
        #: ``--no-cache`` copy) can be rebuilt over the same location.
        self.source = root
        self.persist = bool(persist) and self.backend is not None
        self.lease_ttl = float(lease_ttl)
        self.clock = clock
        self.codec_name = (codec or default_store_codec()).lower()
        if self.codec_name not in CODECS:
            raise ValueError(
                f"unknown store codec {self.codec_name!r}; "
                f"known: {sorted(CODECS)}"
            )
        self._memory: dict[tuple[str, str], Any] = {}
        #: kind -> entry names this process has observed landed.  Valid
        #: as a positive cache because results are immutable once
        #: written — the only removal is corrupt-entry healing, which
        #: evicts here too.  This is what keeps polling cost independent
        #: of store size: known-landed keys never pay another round trip.
        self._landed: dict[str, set[str]] = {}
        self.probe_limit = self.PROBE_LIMIT
        self.stats = self._fresh_stats()

    def _fresh_stats(self) -> dict:
        return {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "reaped_claims": 0,
            # codec accounting (what this process wrote/read)
            "codec": self.codec_name,
            "encoded_raw_bytes": 0,
            "encoded_stored_bytes": 0,
            "decoded_by_codec": {},
            "healed_entries": 0,
            # per-key probes paid by polling (the landed-cache misses)
            "landed_probes": 0,
        }

    @property
    def root(self) -> Path | None:
        """Directory of the durable layer; ``None`` if memory-only."""
        return None if self.backend is None else self.backend.root

    @property
    def url(self) -> str | None:
        """``file://`` URL of the durable layer; ``None`` if memory-only.

        This is the form the coordinator hands to spawned workers: any
        process that resolves the same URL reaches the same store.
        """
        return None if self.backend is None else self.backend.url

    # -- public API ----------------------------------------------------

    def reset_stats(self) -> None:
        """Zero the hit/miss/put counters (benchmark phase accounting)."""
        self.stats = self._fresh_stats()

    def get(self, kind: str, key: str) -> Any | None:
        """Look up ``key`` in memory, then durably; ``None`` on miss.

        A durable hit is decode-checked: corrupt entries are deleted
        (healed) and reported as misses, so callers recompute and rewrite
        rather than ever consuming a torn value.
        """
        mem_key = (kind, key)
        if mem_key in self._memory:
            self.stats["hits"] += 1
            return self._memory[mem_key]
        if not self.persist or kind not in self._EXT:
            self.stats["misses"] += 1
            return None
        value = self._read(kind, key)
        if value is not None:
            self._memory[mem_key] = value
            self.stats["hits"] += 1
        else:
            self.stats["misses"] += 1
        return value

    def has(self, kind: str, key: str) -> bool:
        """Cheap existence probe: memory layer, then a backend ``stat``.

        Unlike :meth:`get` this never deserialises (polling loops — the
        coordinator's grid wait, the workers' pending scans — would
        otherwise load every landed cell into every process).  The cost:
        a torn durable entry reports ``True`` here; the reader that later
        fails to decode it heals by recomputation, so ``has`` is only
        ever optimistic by a corrupt entry's lifetime.
        """
        if (kind, key) in self._memory:
            return True
        if not self.persist or kind not in self._EXT:
            return False
        return self.backend.exists(self._entry_name(kind, key))

    def filter_missing(self, kind: str, keys) -> list[str]:
        """Subset of ``keys`` with no entry in memory or durable storage.

        The batched form of :meth:`has` — and a polling hot path: the
        coordinator's grid wait and the workers' pending scans call this
        every few hundred milliseconds.  Keys already observed landed
        (the per-process delta cache, maintained by :meth:`put` and
        every probe) cost nothing; the remaining *unknown* keys pay
        per-key ``exists`` probes when few (≤ :attr:`probe_limit` —
        steady-state cost then scales with pending work, never with how
        many cells have landed), or one directory listing when many
        (which also reseeds the cache).  Same optimism as
        :meth:`has`: a torn entry counts as present until a decode heals
        it — healing evicts it from the cache.
        """
        keys = list(keys)
        if not self.persist or kind not in self._EXT or self.backend is None:
            return [k for k in keys if (kind, k) not in self._memory]
        landed = self._landed.setdefault(kind, set())
        unknown = [
            k for k in keys
            if (kind, k) not in self._memory
            and self._entry_name(kind, k) not in landed
        ]
        if not unknown:
            return []
        if len(unknown) <= self.probe_limit:
            missing = []
            for key in unknown:
                name = self._entry_name(kind, key)
                self.stats["landed_probes"] += 1
                if self.backend.exists(name):
                    landed.add(name)
                else:
                    missing.append(key)
            return missing
        suffix = self._EXT[kind]
        fresh = {
            n for n in self.backend.list(prefix=f"{kind}-")
            if n.endswith(suffix)
        }
        self._landed[kind] = fresh
        return [k for k in unknown if self._entry_name(kind, k) not in fresh]

    def verify(self, kind: str, key: str) -> bool:
        """:meth:`has`, but decode-checked and without memory caching.

        A torn durable entry is healed (deleted) and reported missing
        instead of optimistically present.  Workers run this as a final
        integrity sweep before declaring a grid complete: polling stays
        stat-cheap, yet no torn entry can survive to assembly.
        """
        if (kind, key) in self._memory:
            return True
        if not self.persist or kind not in self._EXT:
            return False
        return self._read(kind, key) is not None

    def put(self, kind: str, key: str, value: Any, persist: bool = True) -> None:
        """Store ``value`` in memory and (for persistable kinds) durably.

        The durable write is atomic (temp file + rename), so a
        concurrent reader sees the previous entry or the new one — never
        a mix.  Identical recomputations overwrite with identical bytes,
        which is what lets duplicated distributed work converge instead
        of conflict.
        """
        self.stats["puts"] += 1
        self._memory[(kind, key)] = value
        if persist and self.persist and kind in self._EXT:
            self._write(kind, key, value)

    def clear_memory(self) -> None:
        """Drop the in-process layer (durable entries survive)."""
        self._memory.clear()

    def clear_disk(self) -> None:
        """Delete every durable entry, claim and spool (memory survives)."""
        if self.backend is None:
            return
        for name in self.backend.list():
            if name.endswith((".npz", ".json", ".claim")):
                self.backend.delete(name)
        for name in self.backend.stray_spools():
            self.backend.delete(name)
        self._landed.clear()

    def disk_entries(self) -> list[Path]:
        """Paths of all persisted entries (diagnostics, tests)."""
        if self.backend is None:
            return []
        return [self.backend.path(n) for n in self.backend.list()
                if n.endswith((".npz", ".json"))]

    # -- claims / leases -----------------------------------------------

    def claim_name(self, kind: str, key: str) -> str:
        """Backend entry name of the claim guarding ``(kind, key)``."""
        return f"{kind}-{self._digest(key)}.claim"

    def claim_path(self, kind: str, key: str) -> Path:
        """Filesystem path of the claim guarding ``(kind, key)``."""
        return self.backend.path(self.claim_name(kind, key))

    def try_claim(self, kind: str, key: str, owner: str) -> bool:
        """Atomically acquire the lease on ``(kind, key)``.

        Returns ``True`` when this caller now holds the claim (stale and
        expired-corrupt claims are reaped first), ``False`` when another
        owner holds a live claim.  Exactly one concurrent caller can win:
        the ``O_EXCL`` create is the arbiter.  Stores without a durable
        layer have no peers to coordinate with, so every claim trivially
        succeeds.
        """
        if self.backend is None or not self.persist:
            return True
        name = self.claim_name(kind, key)
        self._reap_if_stale(name)
        return self.backend.try_claim_exclusive(
            name, self._claim_payload(key, owner)
        )

    def refresh_claim(self, kind: str, key: str, owner: str) -> bool:
        """Heartbeat a held lease (atomic rewrite advances its mtime).

        Returns ``False`` when the lease was lost — the claim is gone or
        a different owner holds it (it went stale and was reaped).  The
        caller may still finish and store its computation (results are
        idempotent) but must stop heartbeating so it cannot stomp the new
        owner's claim.
        """
        if self.backend is None or not self.persist:
            return True
        info = self.claim_info(kind, key)
        if info is None or info.get("owner") != owner:
            return False
        self.backend.stamp_mtime(
            self.claim_name(kind, key), self._claim_payload(key, owner)
        )
        return True

    def release_claim(self, kind: str, key: str, owner: str | None = None) -> None:
        """Drop a claim; with ``owner`` given, only if still held by them.

        Only the owner (or an unconditional caller such as
        :meth:`clear_disk`) may delete a claim; result entries are never
        deleted here — they are immutable once written, except for
        corrupt-entry healing in :meth:`get`/:meth:`verify`.
        """
        if self.backend is None:
            return
        if owner is not None:
            info = self.claim_info(kind, key)
            if info is not None and info.get("owner") != owner:
                return
        self.backend.delete(self.claim_name(kind, key))

    def claim_info(self, kind: str, key: str) -> dict | None:
        """Parsed claim payload; ``None`` when absent, torn or unreadable."""
        if self.backend is None:
            return None
        payload = self.backend.get(self.claim_name(kind, key))
        if payload is None:
            return None
        try:
            parsed = json.loads(payload)
        except ValueError:
            return None
        return parsed if isinstance(parsed, dict) else None

    def any_live_claim(self, kind: str, keys) -> bool:
        """Whether any of ``keys`` holds an unexpired lease.

        The batched form of :meth:`claim_is_live` for polling loops.
        Few keys (≤ :attr:`probe_limit`) pay one ``mtime`` probe each —
        cost proportional to pending work, independent of store size.
        Many keys fall back to one directory listing, and only the
        claims found pay a timestamp probe.
        """
        if self.backend is None:
            return False
        keys = list(keys)
        if len(keys) <= self.probe_limit:
            for key in keys:
                name = self.claim_name(kind, key)
                self.stats["landed_probes"] += 1
                mtime = self.backend.mtime(name)
                if mtime is not None and self.clock() - mtime <= self.lease_ttl:
                    return True
            return False
        present = {
            n for n in self.backend.list(prefix=f"{kind}-")
            if n.endswith(".claim")
        }
        for key in keys:
            name = self.claim_name(kind, key)
            if name in present and not self._is_stale(name):
                return True
        return False

    def claim_is_live(self, kind: str, key: str) -> bool:
        """Whether ``(kind, key)`` is claimed and the lease is unexpired.

        A live lease means its owner is heartbeating (or died less than
        one TTL ago) — waiters should treat it as work in progress, not
        as a stalled fleet.
        """
        if self.backend is None:
            return False
        name = self.claim_name(kind, key)
        return self.backend.exists(name) and not self._is_stale(name)

    def claim_names(self) -> list[str]:
        """Entry names of every claim currently in the store."""
        if self.backend is None:
            return []
        return [n for n in self.backend.list() if n.endswith(".claim")]

    def claim_files(self) -> list[Path]:
        """Paths of every claim in the store."""
        return [self.backend.path(n) for n in self.claim_names()]

    def stale_claim_files(self) -> list[Path]:
        """Claims whose lease has expired (owner presumed dead)."""
        return [self.backend.path(n) for n in self.claim_names()
                if self._is_stale(n)]

    def reap_stale(self) -> int:
        """Remove expired claims and orphaned ``.tmp`` spool files.

        A SIGKILLed writer can leave a ``.tmp`` behind (the atomic-rename
        spool of an in-flight result).  Anything older than the lease TTL
        cannot belong to a live writer.  Returns the number of entries
        removed.
        """
        if self.backend is None:
            return 0
        reaped = 0
        stale_candidates = [
            n for n in self.backend.list() if n.endswith(".claim")
        ] + self.backend.stray_spools()
        for name in stale_candidates:
            if self._is_stale(name):
                self.backend.delete(name)
                reaped += 1
                self.stats["reaped_claims"] += 1
        return reaped

    def _claim_payload(self, key: str, owner: str) -> bytes:
        return json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "key": key,
                "owner": owner,
                "ttl": self.lease_ttl,
                "stamped_at": self.clock(),
            }
        ).encode("utf-8")

    def _is_stale(self, name: str) -> bool:
        """Lease expiry by mtime (meaningful even for torn claims, which
        carry no readable payload)."""
        mtime = self.backend.mtime(name)
        if mtime is None:
            return False
        return self.clock() - mtime > self.lease_ttl

    def _reap_if_stale(self, name: str) -> None:
        if self._is_stale(name):
            self.backend.delete(name)
            self.stats["reaped_claims"] += 1

    # -- durable representation ----------------------------------------

    @staticmethod
    def _digest(key: str) -> str:
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]

    def _entry_name(self, kind: str, key: str) -> str:
        return f"{kind}-{self._digest(key)}{self._EXT[kind]}"

    def _read(self, kind: str, key: str) -> Any | None:
        name = self._entry_name(kind, key)
        payload = self.backend.get(name)
        if payload is None:
            # The entry vanished (healed by a peer, cleared): the landed
            # cache must forget it or pending scans would report it
            # present forever while every verify fails.
            self._landed.get(kind, set()).discard(name)
            return None
        try:
            codec_name, raw = decode_envelope(payload)
            if kind == "cell":
                value = self._decode_cell(raw, key)
            else:
                value = self._decode_json(raw, key)
        except Exception:
            # Torn/corrupt/stale-format entry: heal by dropping it so the
            # caller recomputes and rewrites.
            self.backend.delete(name)
            self._landed.get(kind, set()).discard(name)
            self.stats["healed_entries"] += 1
            return None
        label = codec_name or "legacy"
        by_codec = self.stats["decoded_by_codec"]
        by_codec[label] = by_codec.get(label, 0) + 1
        return value

    def _write(self, kind: str, key: str, value: Any) -> None:
        if kind == "cell":
            raw = self._encode_cell(key, value)
        else:
            raw = json.dumps(
                {"schema": SCHEMA_VERSION, "key": key, "value": value}
            ).encode("utf-8")
        payload = encode_envelope(self.codec_name, raw)
        self.stats["encoded_raw_bytes"] += len(raw)
        self.stats["encoded_stored_bytes"] += len(payload)
        name = self._entry_name(kind, key)
        self.backend.put_atomic(name, payload)
        self._landed.setdefault(kind, set()).add(name)

    def codec_report(self) -> dict:
        """Stored-vs-raw byte accounting over every durable entry.

        A full-store scan (one decode per entry) — incident tooling and
        the bench harness call it once per run, never per poll.  Entries
        whose envelope cannot be decoded are tallied as ``unreadable``
        with zero raw bytes rather than raising.
        """
        report = {
            "entries": 0,
            "stored_bytes": 0,
            "raw_bytes": 0,
            "by_codec": {},
        }
        if self.backend is None:
            return report
        for name in self.backend.list():
            if not name.endswith((".npz", ".json")):
                continue
            payload = self.backend.get(name)
            if payload is None:
                continue
            try:
                codec_name, raw = decode_envelope(payload)
                label = codec_name or "legacy"
            except Exception:
                label, raw = "unreadable", b""
            report["entries"] += 1
            report["stored_bytes"] += len(payload)
            report["raw_bytes"] += len(raw)
            report["by_codec"][label] = report["by_codec"].get(label, 0) + 1
        return report

    # -- cell (CVResult) codec -----------------------------------------

    @staticmethod
    def _encode_cell(key: str, result: CVResult) -> bytes:
        """Serialise a :class:`CVResult` to ``.npz`` bytes.

        Deterministic for a given (key, result): identical recomputations
        produce identical bytes, the property the distributed convergence
        argument rests on.
        """
        arrays = {
            f"metric:{name}": np.asarray(values)
            for name, values in result.metric_values.items()
        }
        buffer = io.BytesIO()
        np.savez(
            buffer,
            sampling_ratios=np.asarray(result.sampling_ratios),
            n_folds=np.asarray(result.n_folds),
            schema=np.asarray(SCHEMA_VERSION),
            key=np.frombuffer(key.encode("utf-8"), dtype=np.uint8),
            **arrays,
        )
        return buffer.getvalue()

    @staticmethod
    def _decode_cell(payload: bytes, key: str) -> CVResult:
        """Inverse of :meth:`_encode_cell`; raises on any mismatch
        (schema, digest collision, missing arrays) so ``_read`` heals."""
        with np.load(io.BytesIO(payload)) as data:
            if int(data["schema"]) != SCHEMA_VERSION:
                raise ValueError("cell store schema mismatch")
            stored_key = bytes(data["key"]).decode("utf-8")
            if stored_key != key:
                raise ValueError("cell store digest collision")
            metric_values = {
                name[len("metric:"):]: data[name]
                for name in data.files
                if name.startswith("metric:")
            }
            if not metric_values:
                raise ValueError("cell entry has no metric arrays")
            return CVResult(
                metric_values=metric_values,
                sampling_ratios=data["sampling_ratios"],
                n_folds=int(data["n_folds"]),
            )

    @staticmethod
    def _decode_json(payload: bytes, key: str) -> Any:
        parsed = json.loads(payload.decode("utf-8"))
        if parsed.get("schema") != SCHEMA_VERSION or parsed.get("key") != key:
            raise ValueError("ratio entry schema/key mismatch")
        return parsed["value"]


class ClaimHeartbeat:
    """Background lease refresher for one held claim (context manager).

    Re-stamps the claim every ``interval`` seconds (default: a quarter of
    the store's TTL) while the guarded computation runs, so a lease can
    only expire when its holder actually died — without this, any
    computation longer than the TTL triggers a fleet-wide
    reap-and-recompute stampede.  If a refresh discovers the lease was
    lost anyway (reaped by a peer that thought us dead), it stops
    silently: the computation still finishes and stores its (idempotent)
    result, but must not stomp the new owner's claim.

    **Refresh errors do not kill the heartbeat.**  Any exception out of
    :meth:`CellStore.refresh_claim` (an NFS hiccup, say) would otherwise
    kill this thread silently, expire a *live* lease mid-computation and
    trigger exactly the duplicate-compute stampede the heartbeat exists
    to prevent.  A failed refresh instead retries in-thread on a tighter
    cadence (quarter interval, so several attempts fit inside one TTL)
    until the store answers again, and a successful refresh re-stamps
    the lease.  ``lost`` reports a reaped lease (the result is still
    stored, the claim must not be stomped); ``refresh_errors`` counts
    the weathered errors for diagnostics.
    """

    def __init__(self, store: CellStore, kind: str, key: str, owner: str,
                 interval: float | None = None):
        self._store = store
        self._kind = kind
        self._key = key
        self._owner = owner
        self._interval = interval or max(store.lease_ttl / 4.0, 0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.lost = False
        self.refresh_errors = 0

    def _run(self) -> None:
        wait = self._interval
        while not self._stop.wait(wait):
            try:
                alive = self._store.refresh_claim(
                    self._kind, self._key, self._owner
                )
            except Exception:
                # Keep the thread alive and retry sooner than the normal
                # cadence, so the lease is re-stamped the moment the
                # store answers again.
                self.refresh_errors += 1
                wait = max(self._interval / 4.0, 0.05)
                continue
            if not alive:
                self.lost = True
                return
            wait = self._interval

    def __enter__(self) -> "ClaimHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
