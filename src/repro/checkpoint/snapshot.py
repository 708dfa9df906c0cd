"""Snapshot/restore of full simulation state.

A :class:`Snapshot` captures *everything* a run needs to continue —
the :class:`~repro.sim.engine.Simulator` (event heap, sequence counter,
cancelled count, clock), every named RNG stream
(:class:`~repro.sim.rng.RngStreams` pickles via ``random.Random``'s exact
``getstate``/``setstate``), protocol agents (TCP and RLA senders with
their aggregates, SACK trackers, RTT estimators and reach tables),
gateway/queue contents, and any attached :mod:`repro.audit` ledgers — by
pickling the whole world object graph at once, so shared references stay
shared on restore.

Two pieces of state live *outside* that graph and get special handling:

* the process-global packet uid counter (:mod:`repro.net.packet`) is
  recorded in :attr:`Snapshot.uid_next` and reset by :func:`restore` —
  a fresh process would otherwise re-issue uids still held by pickled
  in-flight packets;
* the process-global packet-creation hook the conservation auditor
  installs is re-armed by :func:`restore` through the world's ``rearm()``
  method (the hook is a module global, not part of the object graph).

The correctness contract is absolute: snapshot at any interior time,
restore (in the same or a fresh process), run to completion — the final
report must be byte-identical (as a pickle) to the straight-through run.
``tests/checkpoint`` enforces this for every figure workload and every
churn-catalog scenario.

Files are written atomically (temp + rename) like
:mod:`repro.runtime.cache` entries, with a small versioned header pickled
ahead of the world payload so incompatible files fail fast and cleanly.
The header carries a sha256 over its own fields and the payload, checked
before anything is unpickled from the payload: a truncated or bit-flipped
file — a damaged ``uid_next`` as much as a damaged world — is refused in
one line, never restored into a world that fails later.  So is a header
holding an opcode outside :data:`HEADER_OPCODES`, before it is unpickled.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from ..errors import ReproError
from ..net.packet import restore_uid_counter, uid_counter_state
from ..sim.engine import Simulator

#: Bump when the snapshot layout changes incompatibly.  v2: the world's
#: ``Network.graph`` is a plain adjacency dict (v1 pickled a graph-library
#: object, so a v1 file restores only where that library is installed).
#: v3: audited worlds hold flat recorder entries and no queued-uid mirror.
#: v4: every header names the one resume entrypoint
#: (``repro.lifecycle:finish_world``); the per-backend ones v3 names are gone.
#: v5: the engine's ready lane holds queue entries and the heap may hold
#: handle-free ones (v4 pickles a ready lane of bare ``Event`` objects).
#: v6: a ``Simulator`` holds no record store of its own (v5 pickles, inside
#: every engine, an instance of a class whose module no longer exists).
#: v7: the header holds the payload's sha256 (v6 has none to check).
#: v8: a ``Link`` keeps ``_free_at``/``_waking`` and queues one event per
#: hop (v7 pickles ``_busy`` links with ``_transmission_done`` events), and
#: nodes and packets carry no hop counters.
#: v9: a restarted timer's heap entry may carry an earlier key than its
#: ``Event`` (which records the entry's in ``_filed_at``), so a v8 engine
#: would fire it early; and the header's sha256 covers ``code``, ``label``,
#: ``resume``, ``sim_time`` and ``uid_next`` as well as the payload.
#: v10: a ``Simulator`` holds one queue, the heap, and no ``_ready`` lane;
#: v9 code restoring a v10 engine under ``--allow-code-mismatch`` would
#: fail mid-run with ``AttributeError: _ready`` instead of refusing at load.
#: v11: a ``TcpReceiver`` is slotted (a ``SackReceiver``) and pickles no
#: ``__dict__``; v11 code restoring a v10 one under ``--allow-code-mismatch``
#: would die with ``AttributeError: ... no attribute '__dict__'``.
#: v12: a ``Network`` pickles its default queue as one ``GatewayFactory``;
#: v11 ones pickle one of four per-discipline factory classes that no
#: longer exist, so a v11 file resumed under ``--allow-code-mismatch``
#: would die at restore with ``Can't get attribute ...``.
FORMAT_VERSION = 12

#: File magic identifying a repro checkpoint file.
MAGIC = "repro-ckpt"

#: Every pickle opcode a header (a dict of strings and numbers) may hold.
#: Checked before unpickling: one bit turns ``MEMOIZE`` into ``BYTEARRAY8``,
#: whose unpickling makes CPython print a ``SystemError`` line of its own.
HEADER_OPCODES = frozenset({
    "PROTO", "FRAME", "EMPTY_DICT", "MARK", "SETITEM", "SETITEMS",
    "SHORT_BINUNICODE", "BINUNICODE", "BININT", "BININT1", "BININT2",
    "LONG1", "BINFLOAT", "MEMOIZE", "BINGET", "LONG_BINGET", "STOP",
})


class CheckpointError(ReproError):
    """Snapshot capture, serialization, or restore failed."""


@dataclass(frozen=True)
class Snapshot:
    """One captured simulation state, ready to save, restore, or fork.

    ``payload`` is the world pickled *at capture time*: the snapshot stays
    frozen while the originating run continues, and every :func:`restore`
    deserializes a fresh, independent copy (which is exactly what
    :func:`fork` needs to branch variant futures).
    """

    version: int
    code: str
    label: str
    #: ``"module:function"`` entrypoint that finishes a restored world and
    #: returns the run's report (empty for bare-world snapshots).
    resume: str
    sim_time: float
    #: Next process-global packet uid at capture time.
    uid_next: int
    payload: bytes

    def digest(self) -> str:
        """sha256 over every field a restore acts on, payload last."""
        fields = (self.version, self.code, self.label, self.resume,
                  self.sim_time, self.uid_next)
        digest = hashlib.sha256(repr(fields).encode())
        digest.update(self.payload)
        return digest.hexdigest()

    def header(self) -> Dict[str, Any]:
        """The versioned metadata written ahead of the payload."""
        return {
            "magic": MAGIC,
            "version": self.version,
            "code": self.code,
            "label": self.label,
            "resume": self.resume,
            "sim_time": self.sim_time,
            "uid_next": self.uid_next,
            "sha256": self.digest(),
        }


def _find_simulator(world: Any) -> Simulator:
    sim = getattr(world, "sim", None)
    if sim is None and isinstance(world, dict):
        sim = world.get("sim")
    if not isinstance(sim, Simulator):
        raise CheckpointError(
            f"world of type {type(world).__name__} exposes no .sim / ['sim'] "
            f"Simulator to snapshot"
        )
    return sim


def capture(world: Any, label: str = "", resume: str = "") -> Snapshot:
    """Serialize ``world`` into a :class:`Snapshot` (read-only operation).

    ``world`` must expose the engine as ``world.sim`` (attribute) or
    ``world["sim"]`` (mapping) and must not be mid-event: capture is only
    legal between :meth:`~repro.sim.engine.Simulator.run` calls.
    """
    sim = _find_simulator(world)
    if sim._running:
        raise CheckpointError(
            "cannot capture while the simulator is running; snapshot "
            "between run() calls (e.g. after run(until=checkpoint_time))"
        )
    from ..runtime.spec import code_version

    try:
        payload = pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"world is not picklable: {type(exc).__name__}: {exc}"
        ) from exc
    return Snapshot(
        version=FORMAT_VERSION,
        code=code_version(),
        label=label,
        resume=resume,
        sim_time=sim.now,
        uid_next=uid_counter_state(),
        payload=payload,
    )


def restore(snapshot: Snapshot, rearm: bool = True) -> Any:
    """Deserialize a fresh world copy and take over process-global state.

    Resets the packet uid counter to the captured value and, when
    ``rearm`` is true, calls the world's ``rearm()`` method (if any) so
    process-global hooks — e.g. the conservation auditor's packet-creation
    hook — are re-installed.  Only one audited world can be armed per
    process at a time; pass ``rearm=False`` when restoring several
    branches up front and arm each one around its run instead.
    """
    if snapshot.version != FORMAT_VERSION:
        raise CheckpointError(
            f"snapshot format v{snapshot.version} not supported "
            f"(this build reads v{FORMAT_VERSION})"
        )
    try:
        world = pickle.loads(snapshot.payload)
    except Exception as exc:  # a class or module the payload names is gone
        raise CheckpointError(
            f"snapshot written by an incompatible build: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    restore_uid_counter(snapshot.uid_next)
    if rearm:
        rearm_fn = getattr(world, "rearm", None)
        if rearm_fn is not None:
            rearm_fn()
    return world


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------
def save(snapshot: Snapshot, path: Union[str, Path]) -> Path:
    """Write ``snapshot`` to ``path`` atomically (temp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(snapshot.header(), handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(snapshot.payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load(path: Union[str, Path],
         allow_code_mismatch: bool = False) -> Snapshot:
    """Read a snapshot file, validating magic, version, digest and code hash.

    A snapshot captured under different simulator code may deserialize
    into silently different behavior, so a :func:`code_version` mismatch
    is an error unless explicitly allowed.  A payload that does not match
    the header's sha256 (a truncated or corrupted file) always is.
    """
    import pickletools

    from ..runtime.spec import code_version

    path = Path(path)
    try:
        # unpickled from memory: a damaged frame length then reads short
        # instead of asking the file for gigabytes
        stream = io.BytesIO(path.read_bytes())
        for opcode, _arg, _pos in pickletools.genops(stream):
            if opcode.name not in HEADER_OPCODES:
                raise ValueError(f"opcode {opcode.name} in the header")
        stream.seek(0)
        header = pickle.load(stream)
        payload = stream.read()
    except Exception as exc:  # any byte of a header may be damaged
        raise CheckpointError(
            f"unreadable checkpoint file {path}: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise CheckpointError(f"{path} is not a repro checkpoint file")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} has snapshot format v{header.get('version')}; "
            f"this build reads v{FORMAT_VERSION}"
        )
    try:
        snapshot = Snapshot(
            version=header["version"],
            code=header["code"],
            label=header["label"],
            resume=header["resume"],
            sim_time=header["sim_time"],
            uid_next=header["uid_next"],
            payload=payload,
        )
    except KeyError as exc:
        raise CheckpointError(f"{path} has a corrupt header: no {exc} field")
    if header.get("sha256") != snapshot.digest():
        raise CheckpointError(
            f"{path} is truncated or corrupt: its header and payload do not "
            f"match the sha256 it carries"
        )
    if snapshot.code != code_version() and not allow_code_mismatch:
        raise CheckpointError(
            f"{path} was captured under different simulator code "
            f"({snapshot.code} vs {code_version()}); restoring would not "
            f"reproduce the original run (pass allow_code_mismatch=True "
            f"to override)"
        )
    return snapshot


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------
def resolve_entrypoint(entrypoint: str) -> Callable[..., Any]:
    """Import ``"module:function"`` (same convention as RunSpec)."""
    module_name, sep, func_name = entrypoint.partition(":")
    if not sep or not module_name or not func_name:
        raise CheckpointError(
            f"entrypoint must look like 'module:function': {entrypoint!r}"
        )
    try:
        func = getattr(importlib.import_module(module_name), func_name)
    except (ImportError, AttributeError) as exc:
        raise CheckpointError(
            f"cannot resolve entrypoint {entrypoint!r}: {exc}"
        ) from exc
    if not callable(func):
        raise CheckpointError(f"entrypoint {entrypoint!r} is not callable")
    return func


def resume(source: Union[Snapshot, str, Path],
           allow_code_mismatch: bool = False) -> Any:
    """Restore a snapshot and run its recorded resume entrypoint to the end.

    The entrypoint receives the restored (and re-armed) world and returns
    the finished run's report — byte-identical to what the straight-through
    run would have produced.
    """
    snapshot = source if isinstance(source, Snapshot) else load(
        source, allow_code_mismatch=allow_code_mismatch)
    if not snapshot.resume:
        raise CheckpointError(
            "snapshot records no resume entrypoint; restore() it manually"
        )
    func = resolve_entrypoint(snapshot.resume)
    world = restore(snapshot)
    return func(world)


def dumps(snapshot: Snapshot) -> bytes:
    """Snapshot file bytes without touching disk (for tests and caches)."""
    buffer = io.BytesIO()
    pickle.dump(snapshot.header(), buffer, protocol=pickle.HIGHEST_PROTOCOL)
    buffer.write(snapshot.payload)
    return buffer.getvalue()
