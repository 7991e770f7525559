"""Production ingest pipeline: admission control and the bounded pool.

The paper's evaluation treats the transaction supply as inexhaustible
(Figs 6-8) or as a thin closed loop (Fig 9); a deployable replica needs
the layer in between.  This package provides it, sans-I/O and seeded-
deterministic so both the discrete-event simulator and the asyncio TCP
runtime host it bit-identically:

* :class:`~repro.mempool.pool.PriorityMempool` - a bounded,
  fee-prioritized pool with deterministic lowest-priority eviction,
  duplicate/replay rejection and watermark backpressure;
* :class:`~repro.mempool.limiter.TokenBucket` /
  :class:`~repro.mempool.limiter.SenderRateLimiter` - per-sender
  token-bucket admission rate limiting;
* :class:`~repro.mempool.watermark.Watermark` - high/low hysteresis on
  pool fill that surfaces as ``POOL_FULL`` admission verdicts.

Admission outcomes are :class:`repro.core.mempool.AdmissionVerdict`
values, carried back to clients in ``ClientReply``.
"""
