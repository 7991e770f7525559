"""Sealed storage: persisting trusted-component state across restarts.

SGX enclaves persist state with *sealing*: the enclave encrypts and MACs
its state with a key derived from the CPU and enclave identity, so only
the same enclave on the same platform can unseal it.  For the paper's
trust model the critical property is that a restarted checker resumes
from its latest sealed step and prepared block - never from an earlier
one, which would let a Byzantine host rewind the monotonic counter and
equivocate.

We model sealing with an authenticated (HMAC) snapshot bound to the
component's private identity, plus a monotonic seal counter so stale
snapshots are rejected on unseal (rollback protection, as provided by
SGX's monotonic counters or an external trusted store).  The payload is
the wire-codec bytes of the fields a Checker declares ``SEALED``.

A sealed snapshot travels inside a replica's :class:`DurableState`: the
one record a host keeps across a restart, whatever the protocol (its
``DURABLE`` attributes, the latest checkpoint among them, and the sealed
checker if it has one).  :class:`FileSealStore` makes that record
*durable*: the record and the trusted latest-counter record survive a
real process death (SIGKILL included) via atomic write-temp + fsync +
rename, so a replica process restarted by
:class:`repro.runtime.resilience.supervisor.ReplicaSupervisor` resumes
from its latest record - and refuses rollback exactly as the simulator's
crash and recovery do.  Each file is one versioned record
(:func:`repro.core.codec.encode_record`).
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
from dataclasses import dataclass
from pathlib import Path

from repro.core import codec
from repro.errors import TEERefusal
from repro.tee.checker import Checker


@dataclass(frozen=True)
class SealedState:
    """An authenticated checker snapshot (opaque to the untrusted host)."""

    component_id: int
    seal_counter: int
    payload: bytes
    mac: bytes


@dataclass(frozen=True)
class SealCounter:
    """The durable latest-counter record of one component."""

    component_id: int
    latest: int


@dataclass(frozen=True)
class DurableState:
    """What a replica's host keeps across a restart, as one record.

    ``payload`` is the wire-codec bytes of the ``DURABLE`` attributes of
    the replica, its pacemaker and its components
    (``BaseReplica.durable_record``); ``sealed`` the checker's snapshot,
    ``None`` for a protocol without one.
    """

    payload: bytes
    sealed: SealedState | None


def _mac(checker: Checker, counter: int, payload: bytes) -> bytes:
    # Keyed by the component's confidential signing identity: only this
    # component can produce or verify its seals.  Reaching into the private
    # attribute mirrors "inside the enclave" code.  The scheme is bound by
    # its stable name, never id(): seal keys must be identical across
    # identically-seeded runs.  The MAC covers the whole record, so its
    # counter cannot be raised past the rollback check on its own.
    name = str(checker._signer).encode() + checker._scheme.name.encode()
    key = hashlib.sha256(b"seal-key" + name).digest()
    kinds = (codec.I64, codec.I64, codec.BYTES)
    record = codec.encode_fields(kinds, (checker.component_id, counter, payload))
    return hmac.new(key, record, hashlib.sha256).digest()


@functools.cache
def _sealed_fields(cls: type[Checker]) -> tuple[tuple[str, ...], tuple[codec.Kind, ...]]:
    """``cls``'s ``SEALED`` names and kinds, merged once along the MRO."""
    fields: dict[str, codec.Kind] = {}
    for klass in reversed(cls.__mro__):
        fields.update(vars(klass).get("SEALED", {}))
    return tuple(fields), tuple(fields.values())


class SealManager:
    """Seal/unseal checker state with rollback protection.

    One manager per platform: it remembers the latest seal counter per
    component (the role SGX delegates to a monotonic counter service), so
    an old snapshot - however authentic - cannot be replayed.
    """

    def __init__(self) -> None:
        self._latest: dict[int, int] = {}

    def prime(self, component_id: int, counter: int) -> None:
        """Install a trusted floor for ``component_id``'s seal counter.

        This is how a freshly started process rejoins the monotonic
        counter service: the durable counter record (written by
        :class:`FileSealStore` before any snapshot is trusted) primes the
        new manager, so a stale snapshot is refused across a real process
        death just as within one.  Priming never lowers the floor.
        """
        if counter < 0:
            raise TEERefusal(f"prime: negative seal counter {counter}")
        self._latest[component_id] = max(self._latest.get(component_id, 0), counter)

    def seal(self, checker: Checker) -> SealedState:
        """Snapshot the checker's protected state."""
        component = checker.component_id
        counter = self._latest.get(component, 0) + 1
        self._latest[component] = counter
        names, kinds = _sealed_fields(type(checker))
        payload = codec.encode_fields(kinds, [getattr(checker, name) for name in names])
        return SealedState(component, counter, payload, _mac(checker, counter, payload))

    def unseal_into(self, checker: Checker, sealed: SealedState) -> None:
        """Restore a fresh checker from a sealed snapshot.

        Refuses snapshots with a bad MAC, for a different component,
        older than the latest seal (rollback), or whose authenticated
        payload does not decode - in which case nothing is assigned.
        """
        if sealed.component_id != checker.component_id:
            raise TEERefusal("unseal: snapshot belongs to a different component")
        expected = _mac(checker, sealed.seal_counter, sealed.payload)
        if not hmac.compare_digest(expected, sealed.mac):
            raise TEERefusal("unseal: authentication failed")
        latest = self._latest.get(checker.component_id, 0)
        if sealed.seal_counter < latest:
            raise TEERefusal(
                f"unseal: rollback detected (snapshot {sealed.seal_counter} < "
                f"latest {latest})"
            )
        names, kinds = _sealed_fields(type(checker))
        try:
            values = codec.decode_fields(kinds, sealed.payload)
        except codec.CodecError as exc:
            raise TEERefusal(f"unseal: payload does not decode: {exc}") from exc
        for name, value in zip(names, values):
            setattr(checker, name, value)
        self._latest[checker.component_id] = max(latest, sealed.seal_counter)


#: The files older builds left in a seal directory, and what they were.
_OLDER_LAYOUTS = (
    ("component-*.json", "the old JSON seal format"),
    ("component-*.seal", "the three-file seal format"),
    ("component-*.checkpoint", "the three-file seal format"),
)


class FileSealStore:
    """Durable replica records: survive SIGKILL, refuse rollback.

    Two files per replica under ``root``, one record each:

    * ``replica-<pid>.state`` - the latest :class:`DurableState`;
    * ``component-<id>.counter`` - its checker's trusted monotonic-counter
      record (the role SGX delegates to a counter service), for a replica
      with a checker.  It is written *after* the state, so a crash
      between the two writes leaves a counter one behind the sealed
      snapshot - which still unseals - never a counter ahead of every
      available snapshot.

    Every write is atomic: write a temp file in the same directory,
    flush + fsync, then :func:`os.replace` over the target and fsync the
    directory.  A process killed mid-write leaves either the old file or
    the new one, never a torn half of each.  A counter that does not
    decode, and a directory an older build wrote (``.json`` files, or
    separate ``.seal`` / ``.checkpoint`` files), are refused - never read
    as "no file", which would cold-start the Checker at step 0.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def record_path(self, pid: int) -> Path:
        return self.root / f"replica-{pid}.state"

    def counter_path(self, component_id: int) -> Path:
        return self.root / f"component-{component_id}.counter"

    def save(self, pid: int, record: bytes) -> None:
        """Persist ``pid``'s record, then advance its sealed checker's counter."""
        self._atomic_write(self.record_path(pid), record)
        sealed = codec.decode_record(DurableState, record).sealed
        if sealed is not None and sealed.seal_counter > self.load_counter(sealed.component_id):
            counter = SealCounter(sealed.component_id, sealed.seal_counter)
            self._atomic_write(self.counter_path(sealed.component_id), codec.encode_record(counter))

    def load(self, pid: int) -> bytes | None:
        """``pid``'s latest record, ``None`` if it never wrote one.

        The bytes are the replica's to decode and check
        (``BaseReplica.restore``): durability is not authenticity.
        """
        try:
            return self.record_path(pid).read_bytes()
        except FileNotFoundError:
            pass
        for pattern, layout in _OLDER_LAYOUTS:
            for legacy in self.root.glob(pattern):
                raise TEERefusal(f"{legacy} is in {layout}: delete the seal dir")
        return None

    def load_counter(self, component_id: int) -> int:
        """The durable latest-counter record (0 when none was written)."""
        path = self.counter_path(component_id)
        try:
            record = codec.decode_record(SealCounter, path.read_bytes())
        except FileNotFoundError:
            return 0
        except codec.CodecError as exc:
            raise TEERefusal(f"durable SealCounter record {path} is corrupt: {exc}") from exc
        if record.component_id != component_id or record.latest < 0:
            raise TEERefusal(f"durable SealCounter record {path} is corrupt: {record}")
        return int(record.latest)

    def prime_manager(self, manager: SealManager, component_id: int) -> None:
        """Prime ``manager`` with the durable counter floor for a component."""
        manager.prime(component_id, self.load_counter(component_id))

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        # fsync the directory so the rename itself is durable.
        dir_fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
