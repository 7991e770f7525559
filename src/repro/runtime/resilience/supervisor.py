"""Replica process supervision: spawn, SIGKILL, respawn from sealed state.

The crash-recovery loop is only closed end-to-end when a *real* process
dies without warning and a new one resumes from durable sealed state.
:class:`ReplicaSupervisor` owns one replica's OS process: it spawns
``python -m repro serve`` with a seal directory, health file and fault
spec, kills it with SIGKILL (no cleanup handlers run - exactly the
crash the sealed store must survive), and respawns it with identical
arguments so the new process restores the sealed checker and rejoins.

This is host-side orchestration code: it runs on wall-clock time and is
exempted from the determinism lint alongside the asyncio host.
"""

from __future__ import annotations

import os
import signal
import subprocess  # noqa: S404 - process supervision is this module's purpose
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import SystemConfig


@dataclass(frozen=True)
class ReplicaProcessSpec:
    """Everything needed to (re)spawn one ``repro serve`` process.

    ``config`` is the deployment, written out as ``repro serve`` flags:
    only the fields those flags carry may differ from the defaults
    (``f`` is sized from ``n`` by the replica).
    """

    pid: int
    config: SystemConfig
    n: int
    base_port: int
    host: str = "127.0.0.1"
    adversary: str | None = None
    seal_dir: Path | None = None
    health_file: Path | None = None
    health_interval_s: float = 0.5
    fault_spec: Path | None = None

    def argv(self) -> list[str]:
        config = self.config
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--protocol", config.protocol,
            "--pid", str(self.pid),
            "--n", str(self.n),
            "--host", self.host,
            "--base-port", str(self.base_port),
            "--seed", str(config.seed),
            "--payload", str(config.payload_bytes),
            "--block-size", str(config.block_size),
            "--timeout-ms", str(config.timeout_ms),
        ]
        if config.max_timeout_ms > 0:
            argv += ["--max-timeout-ms", str(config.max_timeout_ms)]
        if config.timeout_jitter > 0:
            argv += ["--timeout-jitter", str(config.timeout_jitter)]
        if self.adversary is not None:
            argv += ["--adversary", self.adversary]
        if config.checkpoint_interval > 0:
            argv += ["--checkpoint-interval", str(config.checkpoint_interval)]
        if self.seal_dir is not None:
            argv += ["--seal-dir", str(self.seal_dir)]
        if self.health_file is not None:
            argv += [
                "--health-file", str(self.health_file),
                "--health-interval", str(self.health_interval_s),
            ]
        if self.fault_spec is not None:
            argv += ["--fault-spec", str(self.fault_spec)]
        return argv


@dataclass
class ReplicaSupervisor:
    """Owns one replica process: spawn / SIGKILL / respawn.

    The supervisor never restarts automatically - the chaos scenario
    (and eventually an operator) decides when; what it guarantees is
    that respawns reuse identical arguments, so recovery is always
    "same replica, restored from its sealed state".
    """

    spec: ReplicaProcessSpec
    log_path: Path | None = None
    _process: subprocess.Popen[bytes] | None = field(default=None, repr=False)
    _log_handle: object | None = field(default=None, repr=False)

    def spawn(self) -> None:
        """Start the replica process (idempotent while it is running)."""
        if self.running:
            return
        stdout: object
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            self._log_handle = open(self.log_path, "ab")
            stdout = self._log_handle
        else:
            stdout = subprocess.DEVNULL
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[3])
        existing = env.get("PYTHONPATH")
        if existing:
            if src_root not in existing.split(os.pathsep):
                env["PYTHONPATH"] = src_root + os.pathsep + existing
        else:
            env["PYTHONPATH"] = src_root
        self._process = subprocess.Popen(  # noqa: S603 - argv is the supervisor's own replica command, not user input
            self.spec.argv(),
            stdout=stdout,  # type: ignore[arg-type]
            stderr=subprocess.STDOUT,
            env=env,
        )

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.poll() is None

    def kill(self) -> None:
        """SIGKILL the process: no shutdown handlers, no final seal."""
        if self._process is not None and self._process.poll() is None:
            self._process.send_signal(signal.SIGKILL)
            self._process.wait()
        self._close_log()

    def terminate(self, grace_s: float = 5.0) -> None:
        """Polite shutdown: SIGTERM, then SIGKILL after ``grace_s``."""
        if self._process is not None and self._process.poll() is None:
            self._process.terminate()
            try:
                self._process.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        self._close_log()

    def _close_log(self) -> None:
        handle = self._log_handle
        if handle is not None:
            self._log_handle = None
            handle.close()  # type: ignore[attr-defined]
