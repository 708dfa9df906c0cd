"""On-disk result cache keyed by spec content + code version.

Re-running a sweep with one changed point only simulates that point: every
other spec hashes to the same key (:meth:`RunSpec.key`), whose pickle is
already on disk.  Keys mix in :func:`~repro.runtime.spec.code_version`,
so editing any module under ``repro`` invalidates everything — the cache
can never serve a result produced by different simulator code.

Entries are single files written atomically (temp file + rename): the
sha256 digest of the pickled entry, then the pickle.  A reader checks the
digest before it unpickles anything, so a flipped bit or a truncated file
is a miss (and is removed), never a traceback or a silently different
row.  A
writer killed *between* open and rename does leave its anonymous ``*.tmp``
file behind, though — nothing ever trusted it, but nothing ever reclaimed
it either, so crashes slowly filled the cache directory with orphans.
:class:`ResultCache` now sweeps stale temp files on construction (age-
guarded, so live writers in sibling processes are never raced).

The directory also holds mid-run checkpoint snapshots
(:meth:`ResultCache.snapshot_path`), content-addressed by the same spec
key plus the capture time — warm states are cached right next to the
finished results they short-circuit.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from ..errors import ConfigurationError
from .metrics import RunMetrics
from .spec import RunSpec, code_version

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
_DEFAULT_DIR = ".repro-cache"

#: Orphaned ``*.tmp`` files older than this (seconds) are swept on init.
#: Any live writer finishes its temp file in well under an hour; anything
#: older is debris from a writer that died between open and rename.
TMP_SWEEP_AGE = 3600.0

#: Bytes of the sha256 digest an entry file starts with.
_DIGEST_BYTES = 32


@dataclass(frozen=True)
class CacheEntry:
    """One cached run: the spec's canonical form, its result, its cost."""

    canonical: str
    result: Any
    metrics: RunMetrics


class ResultCache:
    """Pickle-per-entry cache of finished runs.

    Parameters
    ----------
    path:
        Cache directory, created on first write.  Defaults to
        ``$REPRO_CACHE_DIR`` or ``.repro-cache`` under the working
        directory.
    code:
        Code-version string mixed into every key; defaults to the live
        :func:`code_version` and only needs overriding in tests.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 code: Optional[str] = None) -> None:
        if path is None:
            path = os.environ.get(CACHE_DIR_ENV, _DEFAULT_DIR)
        self.path = Path(path)
        if self.path.exists() and not self.path.is_dir():
            raise ConfigurationError(
                f"cache path {self.path} exists and is not a directory")
        self.code = code_version() if code is None else code
        self.hits = 0
        self.misses = 0
        self.swept_tmp = self._sweep_orphaned_tmp()

    def _sweep_orphaned_tmp(self, max_age: float = TMP_SWEEP_AGE) -> int:
        """Remove stale ``*.tmp`` debris left by writers that crashed
        between open and rename; returns how many files were removed.

        Only files older than ``max_age`` go — a concurrent writer's
        in-progress temp file is seconds old and is left alone.
        """
        if not self.path.is_dir():
            return 0
        removed = 0
        cutoff = time.time() - max_age
        for tmp_path in self.path.glob("*.tmp"):
            try:
                if tmp_path.stat().st_mtime < cutoff:
                    tmp_path.unlink()
                    removed += 1
            except OSError:
                continue
        return removed

    # ------------------------------------------------------------------
    def _entry_path(self, spec: RunSpec) -> Path:
        return self.path / f"{spec.key(self.code)}.pkl"

    def snapshot_path(self, spec: RunSpec, at: float) -> Path:
        """Content-addressed location for ``spec``'s snapshot at time ``at``.

        Keyed like result entries (spec canonical form + code version) plus
        the capture sim-time, so a warm state is reused only by reruns of
        the exact same spec under the exact same code.
        """
        return self.path / f"{spec.key(self.code)}.t{at:g}.ckpt"

    def get(self, spec: RunSpec) -> Optional[CacheEntry]:
        """The cached entry for ``spec``, or ``None`` on a miss.

        An entry whose bytes do not match their digest (a flipped bit, a
        truncation), that does not unpickle, or whose canonical form
        differs (a key collision) counts as a miss and is evicted.
        """
        entry_path = self._entry_path(spec)
        try:
            data = entry_path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        entry = None
        payload = data[_DIGEST_BYTES:]
        if hashlib.sha256(payload).digest() == data[:_DIGEST_BYTES]:
            try:
                entry = pickle.loads(payload)
            except Exception:  # intact bytes naming a class that is gone
                pass
        if not isinstance(entry, CacheEntry) or entry.canonical != spec.canonical():
            entry_path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def ensure_dir(self) -> None:
        """Create the cache directory, or say why it cannot be one.

        :func:`~repro.runtime.run_specs` calls this before its first miss
        starts simulating, so an impossible ``--cache`` path costs no run.
        """
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create cache directory {self.path}: "
                f"{exc.strerror}") from exc

    def put(self, spec: RunSpec, result: Any, metrics: RunMetrics) -> None:
        """Store a finished run atomically, its digest ahead of it."""
        import tempfile

        self.ensure_dir()
        entry = CacheEntry(canonical=spec.canonical(), result=result,
                           metrics=metrics)
        payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(hashlib.sha256(payload).digest())
                handle.write(payload)
            os.replace(tmp_name, self._entry_path(spec))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __contains__(self, spec: RunSpec) -> bool:
        return self._entry_path(spec).exists()

    def __len__(self) -> int:
        if not self.path.is_dir():
            return 0
        return sum(1 for _ in self.path.glob("*.pkl"))

    def clear(self) -> int:
        """Delete all entries and snapshots; returns how many were removed."""
        removed = 0
        if self.path.is_dir():
            for pattern in ("*.pkl", "*.ckpt"):
                for entry_path in self.path.glob(pattern):
                    entry_path.unlink(missing_ok=True)
                    removed += 1
        return removed

    def __repr__(self) -> str:
        return (f"ResultCache({str(self.path)!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
