"""Cryptographic substrate.

The paper's implementation signs with ECDSA over prime256v1 via OpenSSL;
replicas and trusted components share one asymmetric signature scheme
(Section 5).  We provide:

* :mod:`~repro.crypto.hashing` - SHA-256 block/field hashing.
* :mod:`~repro.crypto.schnorr` - a real Schnorr signature scheme over
  RFC-3526 MODP groups, implemented from scratch with deterministic nonces.
* :mod:`~repro.crypto.hmac_scheme` - a fast HMAC-based scheme used for
  large simulations, where sign/verify CPU time is *modelled* by the cost
  model instead of burned in Python big-int arithmetic.
* :mod:`~repro.crypto.keys` - key pairs and the public-key directory that
  replicas and TEEs share.

Both schemes implement the same :class:`~repro.crypto.scheme.SignatureScheme`
interface, so protocols are agnostic to which one is installed.
"""
