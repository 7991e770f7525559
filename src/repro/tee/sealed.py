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
SGX's monotonic counters or an external trusted store).

:class:`FileSealStore` makes sealing *durable*: snapshots and the
trusted latest-counter record survive a real process death (SIGKILL
included) via atomic write-temp + fsync + rename, so a replica process
restarted by :class:`repro.runtime.resilience.supervisor.ReplicaSupervisor`
resumes from its latest sealed step - and refuses rollback exactly as
the in-memory path does, even across restarts.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.core.codec import CodecError, decode_checkpoint, encode_checkpoint
from repro.errors import TEERefusal
from repro.tee.checker import Checker
from repro.tee.checkpoint import Checkpoint


@dataclass(frozen=True)
class SealedState:
    """An authenticated checker snapshot (opaque to the untrusted host)."""

    component_id: int
    seal_counter: int
    payload: bytes
    mac: bytes


def _seal_key(checker: Checker) -> bytes:
    # Derived from the component's confidential signing identity: only
    # this component can produce or verify its seals.  Reaching into the
    # private attribute mirrors "inside the enclave" code.  The scheme is
    # bound by its stable name, never id(): seal keys must be identical
    # across identically-seeded runs.
    return hashlib.sha256(
        b"seal-key"
        + str(checker._signer).encode()
        + checker._scheme.name.encode()
    ).digest()


def _encode_state(checker: Checker, seal_counter: int) -> bytes:
    # The checker serializes its own protected fields (subclasses append
    # theirs, e.g. the Damysus-C lock); the seal header binds identity
    # and the rollback counter.
    return b"|".join(
        [
            str(checker._signer).encode(),
            str(seal_counter).encode(),
            *checker._seal_fields(),
        ]
    )


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
        counter = self._latest.get(checker.component_id, 0) + 1
        self._latest[checker.component_id] = counter
        payload = _encode_state(checker, counter)
        mac = hmac.new(_seal_key(checker), payload, hashlib.sha256).digest()
        return SealedState(
            component_id=checker.component_id,
            seal_counter=counter,
            payload=payload,
            mac=mac,
        )

    def unseal_into(self, checker: Checker, sealed: SealedState) -> None:
        """Restore a fresh checker from a sealed snapshot.

        Refuses snapshots with a bad MAC, for a different component, or
        older than the latest seal (rollback).
        """
        if sealed.component_id != checker.component_id:
            raise TEERefusal("unseal: snapshot belongs to a different component")
        expected = hmac.new(_seal_key(checker), sealed.payload, hashlib.sha256).digest()
        if not hmac.compare_digest(expected, sealed.mac):
            raise TEERefusal("unseal: authentication failed")
        latest = self._latest.get(checker.component_id, 0)
        if sealed.seal_counter < latest:
            raise TEERefusal(
                f"unseal: rollback detected (snapshot {sealed.seal_counter} < "
                f"latest {latest})"
            )
        checker._restore_seal_fields(sealed.payload.split(b"|")[2:])
        self._latest[checker.component_id] = max(latest, sealed.seal_counter)


class FileSealStore:
    """Durable sealed snapshots: survive SIGKILL, refuse rollback.

    Two files per component under ``root``:

    * ``component-<id>.seal.json`` - the latest :class:`SealedState`;
    * ``component-<id>.counter.json`` - the trusted monotonic-counter
      record (the role SGX delegates to a counter service).  It is
      written *after* the snapshot, so a crash between the two writes
      leaves a counter one behind the snapshot - which still unseals -
      never a counter ahead of every available snapshot.

    Every write is atomic: write a temp file in the same directory,
    flush + fsync, then :func:`os.replace` over the target and fsync the
    directory.  A process killed mid-write leaves either the old file or
    the new one, never a torn half of each.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths --------------------------------------------------------------

    def seal_path(self, component_id: int) -> Path:
        return self.root / f"component-{component_id}.seal.json"

    def counter_path(self, component_id: int) -> Path:
        return self.root / f"component-{component_id}.counter.json"

    def checkpoint_path(self, component_id: int) -> Path:
        return self.root / f"component-{component_id}.checkpoint.json"

    # -- persistence --------------------------------------------------------

    def save(self, sealed: SealedState) -> None:
        """Persist ``sealed`` and advance the durable counter record."""
        snapshot = {
            "component_id": sealed.component_id,
            "seal_counter": sealed.seal_counter,
            "payload": sealed.payload.hex(),
            "mac": sealed.mac.hex(),
        }
        self._atomic_write(self.seal_path(sealed.component_id), snapshot)
        stored = self.load_counter(sealed.component_id)
        if sealed.seal_counter > stored:
            self._atomic_write(
                self.counter_path(sealed.component_id),
                {"component_id": sealed.component_id, "latest": sealed.seal_counter},
            )

    def load(self, component_id: int) -> SealedState | None:
        """Read the latest durable snapshot, or ``None`` if none exists."""
        path = self.seal_path(component_id)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            return SealedState(
                component_id=int(data["component_id"]),
                seal_counter=int(data["seal_counter"]),
                payload=bytes.fromhex(data["payload"]),
                mac=bytes.fromhex(data["mac"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise TEERefusal(f"durable seal file {path} is corrupt: {exc}") from exc

    def load_counter(self, component_id: int) -> int:
        """The durable latest-counter record (0 when none was written)."""
        path = self.counter_path(component_id)
        if not path.exists():
            return 0
        try:
            data = json.loads(path.read_text())
            return int(data["latest"])
        except (ValueError, KeyError, TypeError) as exc:
            raise TEERefusal(f"durable counter file {path} is corrupt: {exc}") from exc

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
        self._atomic_write(
            self.checkpoint_path(component_id),
            {
                "component_id": component_id,
                "height": checkpoint.height,
                "encoded": encode_checkpoint(checkpoint).hex(),
            },
        )

    def load_checkpoint(self, component_id: int) -> Checkpoint | None:
        """Read the durable certified checkpoint, or ``None`` if absent.

        The caller must still verify the Checker signature and the
        embedded quorum commitment (:func:`repro.tee.checkpoint.
        verify_checkpoint`) - durability is not authenticity.
        """
        path = self.checkpoint_path(component_id)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            ckpt = decode_checkpoint(bytes.fromhex(data["encoded"]))
        except (ValueError, KeyError, TypeError, CodecError) as exc:
            raise TEERefusal(
                f"durable checkpoint file {path} is corrupt: {exc}"
            ) from exc
        if not isinstance(ckpt, Checkpoint):  # pragma: no cover - decoder invariant
            raise TEERefusal(f"durable checkpoint file {path} is corrupt")
        return ckpt

    def prime_manager(self, manager: SealManager, component_id: int) -> None:
        """Prime ``manager`` with the durable counter floor for a component."""
        manager.prime(component_id, self.load_counter(component_id))

    # -- internals ----------------------------------------------------------

    def _atomic_write(self, path: Path, payload: dict[str, object]) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        data = json.dumps(payload, sort_keys=True).encode()
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
