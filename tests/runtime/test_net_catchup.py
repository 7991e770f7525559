"""Socket-runtime catch-up: late starters rejoin via checkpoint transfer.

Real loopback TCP clusters (same machinery as ``test_asyncio_net``), with
one replica held back at start so the rest of the cluster commits and
compacts past it.  Far past it, replaying from genesis is impossible and
the late starter can only rejoin through a peer's certified checkpoint; a
few views past it, it jumps to the cluster's view and fetches what it
lacks.  The rolling state roots reported by the runtime are cross-checked
pairwise and against the simulator, closing the cross-runtime digest loop.
"""

from repro.config import SystemConfig
from repro.core.block import genesis_block
from repro.core.executor import fold_state_root
from repro.runtime.asyncio_net import LocalCluster
from repro.runtime.sim import ConsensusSystem
from tests.conftest import run_cluster, tcp_config


def root_at(ledger, height):
    """Recompute a ledger's rolling root at a retained height, else None."""
    base = ledger.base_height
    if height < base or height > ledger.height():
        return None
    root = ledger.base_state_root
    for block in ledger.executed[: height - base]:
        root = fold_state_root(root, block.hash)
    return root.hex()


def late_starter_cluster(**overrides):
    """Four Damysus replicas with checkpointing on; replica 3 starts 2 s late."""
    cluster = LocalCluster(
        tcp_config(seed=9, block_size=4, checkpoint_interval=5, **overrides), 4
    )
    run_cluster(cluster, 90.0, start_delay_s={3: 2.0}, target_blocks=40)
    ledgers = {replica.pid: replica.ledger for replica in cluster.replicas}
    # The cluster only stops once *every* replica - the late starter
    # included - reaches the target height.
    assert min(ledger.height() for ledger in ledgers.values()) >= 40
    # Digest equivalence at every mutually retained height: any two
    # replicas that can both recompute a root at some height agree on it
    # bit-for-bit - including the late starter, however it got there.
    checked = []
    pids = sorted(ledgers)
    for i, pid in enumerate(pids):
        for other in pids[i + 1 :]:
            height = min(ledgers[pid].height(), ledgers[other].height())
            a, b = root_at(ledgers[pid], height), root_at(ledgers[other], height)
            if a is not None and b is not None:
                assert a == b, f"state roots diverge at height {height}"
                checked.append((pid, other))
    assert any(3 in pair for pair in checked)
    return cluster


def test_late_starter_a_few_views_behind_rejoins_on_sockets():
    """With 2 s timeouts every fourth view waits out the absent leader, so
    the cluster is 3-5 views on when the late starter comes up: less than
    ``CATCHUP_VIEW_GAP``.  It jumps there and fetches the blocks it lacks
    one by one - bodies outlive the log compaction of the peers' ledgers."""
    late_starter_cluster()


def test_late_starter_rejoins_via_checkpoint_on_sockets():
    # Short timeouts: the cluster is dozens of views on, not a handful,
    # when the late starter comes up, and state transfer wins over the jump.
    cluster = late_starter_cluster(timeout_ms=200.0)
    # It got there by installing a certified checkpoint, not by replay:
    # the survivors compacted the genesis prefix long before it started.
    late = cluster.replicas[3]
    assert late.caught_up_via_checkpoint
    assert late.ledger.base_height > 0
    assert len(late.ledger.executed) < late.ledger.height()


def test_cross_runtime_checkpoint_digest_equivalence():
    """Simulator and socket runtime certify identical rolling roots.

    Same seed and sizing on both runtimes commits the same block chain
    (pinned by ``test_cross_runtime_equivalence_same_block_hashes``);
    with checkpointing on, the rolling roots are folds of that chain, so
    any height both runtimes still retain must carry the same root.
    """
    # Both sides checkpoint every 4 blocks and compact their ledgers; the
    # sim's monitor still holds replica 0's full execution log, and the
    # sim runs well past the net frontier, so it can recompute the root
    # at *any* height the net side reports - including the certified
    # compaction horizon.  The net side stops at a wall-clock poll, so how
    # far past ``target_blocks`` it gets depends on the host: the sim is
    # sized from the height it reports, not from a fixed view count.
    config = SystemConfig(
        protocol="damysus", f=1, payload_bytes=64, block_size=8, seed=7,
        checkpoint_interval=4,
    )
    cluster = LocalCluster(config)
    run_cluster(cluster, target_blocks=6)
    net_ledger = cluster.replicas[0].ledger
    system = ConsensusSystem(config)
    system.run_until_views(max(20, net_ledger.height() + 4), max_time_ms=240_000)
    sim_chain = [rec.block_hash for rec in system.monitor.executions if rec.replica == 0]

    assert cluster.n == system.num_replicas
    assert net_ledger.base_height > 0  # the net side really checkpointed
    assert len(sim_chain) >= net_ledger.height()
    # The certified horizon root and the tip root both match the sim's
    # full-log fold bit-for-bit.
    for h in (net_ledger.base_height, net_ledger.height()):
        sim_root = genesis_block().hash
        for block_hash in sim_chain[:h]:
            sim_root = fold_state_root(sim_root, block_hash)
        net_root = root_at(net_ledger, h)
        assert net_root is not None
        assert sim_root.hex() == net_root
