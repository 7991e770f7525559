"""Exception hierarchy for the DAMYSUS reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause.  The TEE errors are
deliberately split from protocol errors: a :class:`TEERefusal` models a
trusted component declining an operation (the hardware analogue of an
enclave returning an error code), which Byzantine callers may legitimately
trigger, while :class:`ProtocolError` indicates a malformed message or an
invariant violation observed by untrusted replica code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Invalid system or protocol configuration."""


class CryptoError(ReproError):
    """Signature or hashing failure (bad key, malformed signature...)."""


class VerificationError(CryptoError):
    """A signature or certificate failed verification."""


class TEEError(ReproError):
    """Base class for trusted-component errors."""


class TEERefusal(TEEError):
    """A trusted service refused an operation.

    Raised when a caller (possibly Byzantine) invokes a TEE function with
    arguments that do not satisfy the function's guard, e.g. calling
    ``TEEprepare`` with an accumulator for a stale view.  Real enclaves
    return an error status; we raise so the refusal cannot be ignored
    silently.
    """


class ProtocolError(ReproError):
    """A replica observed a malformed or inconsistent protocol message."""


class CodecError(ProtocolError):
    """Malformed bytes on the wire, or a value out of range for its wire field."""


class MissingBlockError(ProtocolError):
    """An operation needed a block body this replica has not received.

    Recoverable: replicas react by fetching the block from peers (block
    synchronization), unlike other protocol errors.
    """


class SafetyViolation(ReproError):
    """Two conflicting blocks were executed - consensus safety is broken.

    This error is never raised during correct operation of Damysus or
    HotStuff; it exists so that tests and the Section-4 counter-example can
    detect when a deliberately weakened protocol loses safety.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""
