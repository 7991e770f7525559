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

:class:`FileSealStore` makes sealing *durable*: snapshots and the
trusted latest-counter record survive a real process death (SIGKILL
included) via atomic write-temp + fsync + rename, so a replica process
restarted by :class:`repro.runtime.resilience.supervisor.ReplicaSupervisor`
resumes from its latest sealed step - and refuses rollback exactly as
the in-memory path does, even across restarts.  Each file is one
versioned record (:func:`repro.core.codec.encode_record`).
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TypeVar

from repro.core import codec
from repro.errors import TEERefusal
from repro.tee.checker import Checker
from repro.tee.checkpoint import Checkpoint

R = TypeVar("R")


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


class FileSealStore:
    """Durable sealed snapshots: survive SIGKILL, refuse rollback.

    Three files per component under ``root``, one record each:

    * ``component-<id>.seal`` - the latest :class:`SealedState`;
    * ``component-<id>.counter`` - the trusted monotonic-counter record
      (the role SGX delegates to a counter service).  It is written
      *after* the snapshot, so a crash between the two writes leaves a
      counter one behind the snapshot - which still unseals - never a
      counter ahead of every available snapshot;
    * ``component-<id>.checkpoint`` - the latest certified checkpoint.

    Every write is atomic: write a temp file in the same directory,
    flush + fsync, then :func:`os.replace` over the target and fsync the
    directory.  A process killed mid-write leaves either the old file or
    the new one, never a torn half of each.  A record that does not
    decode, and an old ``.json`` file beside it, are refused - never read
    as "no file", which would cold-start the Checker at step 0.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths --------------------------------------------------------------

    def seal_path(self, component_id: int) -> Path:
        return self.root / f"component-{component_id}.seal"

    def counter_path(self, component_id: int) -> Path:
        return self.root / f"component-{component_id}.counter"

    def checkpoint_path(self, component_id: int) -> Path:
        return self.root / f"component-{component_id}.checkpoint"

    # -- persistence --------------------------------------------------------

    def save(self, sealed: SealedState) -> None:
        """Persist ``sealed`` and advance the durable counter record."""
        component = sealed.component_id
        self._atomic_write(self.seal_path(component), sealed)
        if sealed.seal_counter > self.load_counter(component):
            self._atomic_write(
                self.counter_path(component), SealCounter(component, sealed.seal_counter)
            )

    def load(self, component_id: int) -> SealedState | None:
        """Read the latest durable snapshot, or ``None`` if none exists."""
        return self._read(self.seal_path(component_id), SealedState)

    def load_counter(self, component_id: int) -> int:
        """The durable latest-counter record (0 when none was written)."""
        path = self.counter_path(component_id)
        record = self._read(path, SealCounter) or SealCounter(component_id, 0)
        if record.component_id != component_id or record.latest < 0:
            raise TEERefusal(f"durable SealCounter record {path} is corrupt: {record}")
        return record.latest

    def save_checkpoint(self, component_id: int, checkpoint: Checkpoint) -> None:
        """Persist the latest certified checkpoint (atomic, never regresses).

        The checkpoint rides next to the sealed snapshot so a restarted
        replica resumes from its certified horizon instead of replaying
        (or re-fetching) the whole chain.  A write for a height at or
        below the durable one is skipped: the file only ever moves
        forward, so a crash mid-sequence cannot demote it.
        """
        existing = self.load_checkpoint(component_id)
        if existing is not None and existing.height >= checkpoint.height:
            return
        self._atomic_write(self.checkpoint_path(component_id), checkpoint)

    def load_checkpoint(self, component_id: int) -> Checkpoint | None:
        """Read the durable certified checkpoint, or ``None`` if absent.

        The caller must still verify the Checker signature and the
        embedded quorum commitment (:func:`repro.tee.checkpoint.
        verify_checkpoint`) - durability is not authenticity.
        """
        return self._read(self.checkpoint_path(component_id), Checkpoint)

    def prime_manager(self, manager: SealManager, component_id: int) -> None:
        """Prime ``manager`` with the durable counter floor for a component."""
        manager.prime(component_id, self.load_counter(component_id))

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _read(path: Path, cls: type[R]) -> R | None:
        """The ``cls`` record in ``path``, ``None`` when there is none."""
        legacy = path.with_name(path.name + ".json")
        if legacy.exists():
            raise TEERefusal(f"{legacy} is in the old JSON seal format: delete the seal dir")
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            record: R = codec.decode_record(cls, data)
        except codec.CodecError as exc:
            raise TEERefusal(f"durable {cls.__name__} record {path} is corrupt: {exc}") from exc
        return record

    def _atomic_write(self, path: Path, record: Any) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            os.write(fd, codec.encode_record(record))
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
