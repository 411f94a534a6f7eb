"""Persistent on-disk store for simulation results.

Simulations are deterministic functions of (system config, application,
footprint, seed, policy, policy kwargs), so their results can be reused
across processes and sessions, not just within one interpreter.  The
store keys each run by a SHA-256 content hash of that full parameter
tuple — plus a simulator-version salt and the replay-path selection, so
a semantic change to the simulator or an ``REPRO_FORCE_SLOW_PATH`` A/B
run can never read a stale entry — and keeps one JSON file per result
under ``results/cache/`` (override with ``REPRO_CACHE_DIR``).

Writes are atomic and durable (temp file + ``fsync`` + ``os.replace`` +
directory ``fsync``), so concurrent workers racing on the same key at
worst both compute it; neither can observe a half-written file, and a
power loss after :meth:`DiskCache.store` returns cannot roll the entry
back.  Set ``REPRO_NO_FSYNC=1`` to skip the durability barriers for
test speed (atomicity is unaffected).

Every entry carries a content checksum over its result payload.  A load
that finds a truncated, unparsable, mislabeled or checksum-mismatched
file treats it as a miss, moves the file into ``<root>/quarantine/`` for
post-mortem inspection, and counts it in :meth:`DiskCache.stats` — a
corrupted cache (killed worker mid-write on a non-atomic filesystem,
bit rot, manual tampering) can never crash a sweep or return wrong data.

Besides whole-run results, the store holds a second record kind:
**phase-boundary snapshot blobs** (see :mod:`repro.sim.snapshot`) under
``<root>/snap/``, with the same atomic-write, checksum and quarantine
discipline (:meth:`DiskCache.store_blob` / :meth:`DiskCache.load_blob`).
Snapshot payloads are opaque bytes here — the snapshot layer runs its
own structural validation on top and calls
:meth:`DiskCache.quarantine_blob` for entries that decode but lie.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.config import SystemConfig
from repro.sim.fastpath import force_slow_path
from repro.sim.results import SimulationResult

#: Bump whenever simulator semantics change in a way that alters results;
#: every previously cached entry becomes unreachable (stale files are
#: inert JSON; delete them by removing the store, ``rm -r results/cache``).
SIMULATOR_VERSION = 2

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = "results/cache"

def fsync_enabled() -> bool:
    """Durability barriers are on unless ``REPRO_NO_FSYNC`` is set."""
    return os.environ.get("REPRO_NO_FSYNC", "").strip() in ("", "0")


def fsync_dir(path: Path) -> None:
    """Flush directory metadata (new/renamed names) to stable storage."""
    if not fsync_enabled():
        return
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms without O_RDONLY directory opens
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _canonical(value):
    """Insertion-order-independent, JSON-serializable form of a value.

    ``json.dumps(..., sort_keys=True)`` only canonicalizes dicts with
    uniformly sortable keys; anything that falls through to
    ``default=repr`` (sets, non-string-keyed mappings, arbitrary
    objects) keeps its insertion/iteration order in the blob, so two
    semantically equal ``policy_kwargs`` could hash to different cache
    keys.  Canonicalize recursively instead: mappings become pair lists
    sorted by their canonical-key JSON, sets become sorted element
    lists, dataclasses flatten through ``asdict``, and only opaque
    leaves fall back to ``repr``.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        items = [
            (json.dumps(_canonical(k), sort_keys=True), _canonical(v))
            for k, v in value.items()
        ]
        items.sort(key=lambda kv: kv[0])
        return {"__map__": items}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {
            "__set__": sorted(
                json.dumps(_canonical(v), sort_keys=True) for v in value
            )
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": _canonical(dataclasses.asdict(value)),
        }
    return {"__repr__": repr(value)}


def cache_key(
    config: SystemConfig,
    app: str,
    policy: str,
    footprint_mb: float | None,
    seed: int,
    policy_kwargs: dict,
) -> str:
    """Content hash identifying one simulation run.

    ``policy_kwargs`` is canonicalized recursively (see
    :func:`_canonical`), so equal-but-reordered kwargs — including
    nested dict values and non-string keys — always hash to the same
    entry.
    """
    payload = {
        "simulator_version": SIMULATOR_VERSION,
        "slow_path": force_slow_path(),
        "config": dataclasses.asdict(config),
        "app": app,
        "policy": policy,
        "footprint_mb": footprint_mb,
        "seed": seed,
        "policy_kwargs": _canonical(policy_kwargs),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _result_checksum(result_dict: dict) -> str:
    """Content checksum of one serialized result."""
    blob = json.dumps(result_dict, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class DiskCache:
    """One directory of content-addressed simulation results."""

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.snap_hits = 0
        self.snap_misses = 0

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directory listings manageable.
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is inspectable but inert."""
        target = self.root / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Can't move it (e.g. racing worker already did, or read-only
            # store): the load already counted the miss, and nothing was
            # quarantined — leave the counter alone so stats() stays
            # truthful.
            return
        self.quarantined += 1

    def _atomic_write(self, path: Path, payload: dict) -> Path:
        """Durably write one JSON entry: tmp + fsync + rename + dir fsync."""
        path.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps(payload)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
                if fsync_enabled():
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        fsync_dir(path.parent)
        return path

    def load(self, key: str) -> SimulationResult | None:
        """The stored result for ``key``, or None on miss/corruption.

        Corrupt entries — truncated or unparsable JSON, missing fields,
        a key that does not match the filename, or a checksum mismatch —
        are quarantined rather than raised: a damaged cache degrades to
        recomputation, never to a crashed or wrong-answer sweep.
        """
        path = self._path(key)
        try:
            with path.open() as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, EOFError):
            self.misses += 1
            self._quarantine(path)
            return None
        except OSError:
            self.misses += 1
            return None
        try:
            if payload["key"] != key:
                raise ValueError("entry key does not match its filename")
            result_dict = payload["result"]
            if payload["checksum"] != _result_checksum(result_dict):
                raise ValueError("checksum mismatch")
            result = SimulationResult.from_dict(result_dict)
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def store(self, key: str, result: SimulationResult) -> Path:
        """Persist ``result`` under ``key`` atomically; returns the path."""
        result_dict = result.to_dict()
        payload = {
            "key": key,
            "simulator_version": SIMULATOR_VERSION,
            "checksum": _result_checksum(result_dict),
            "result": result_dict,
        }
        return self._atomic_write(self._path(key), payload)

    # -- snapshot blobs ----------------------------------------------------

    def _blob_path(self, key: str) -> Path:
        return self.root / "snap" / key[:2] / f"{key}.json"

    def has_blob(self, key: str) -> bool:
        return self._blob_path(key).exists()

    def load_blob(self, key: str) -> bytes | None:
        """The stored snapshot blob for ``key``, or None.

        The same degradation contract as :meth:`load`: anything
        truncated, unparsable, mislabeled or checksum-mismatched is
        quarantined and reported as a miss, never raised.
        """
        path = self._blob_path(key)
        try:
            with path.open() as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.snap_misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, EOFError):
            self.snap_misses += 1
            self._quarantine(path)
            return None
        except OSError:
            self.snap_misses += 1
            return None
        try:
            if payload["key"] != key:
                raise ValueError("entry key does not match its filename")
            blob = base64.b64decode(payload["blob"], validate=True)
            if payload["checksum"] != hashlib.sha256(blob).hexdigest():
                raise ValueError("checksum mismatch")
        except (KeyError, TypeError, ValueError):
            self.snap_misses += 1
            self._quarantine(path)
            return None
        self.snap_hits += 1
        return blob

    def store_blob(self, key: str, blob: bytes) -> Path:
        """Persist a snapshot blob under ``key`` atomically."""
        payload = {
            "key": key,
            "simulator_version": SIMULATOR_VERSION,
            "checksum": hashlib.sha256(blob).hexdigest(),
            "blob": base64.b64encode(blob).decode("ascii"),
        }
        return self._atomic_write(self._blob_path(key), payload)

    def quarantine_blob(self, key: str) -> None:
        """Move a structurally-invalid snapshot aside (checksum passed,
        but the snapshot layer's validation rejected the contents)."""
        path = self._blob_path(key)
        if path.exists():
            self._quarantine(path)

    def stats(self) -> dict[str, int]:
        return {
            "disk_hits": self.hits,
            "disk_misses": self.misses,
            "disk_quarantined": self.quarantined,
            "snap_hits": self.snap_hits,
            "snap_misses": self.snap_misses,
        }

