"""End-to-end runs over the real Schnorr signature scheme.

These are slower (pure-Python big-int arithmetic), so they use few views
and the 256-bit test group; they prove the protocols do not depend on any
HMAC-scheme artifact.
"""

import pytest

from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


@pytest.mark.parametrize("protocol", ["hotstuff", "damysus", "chained-damysus"])
def test_commits_with_schnorr_signatures(protocol):
    system = ConsensusSystem(small_config(protocol, use_real_crypto=True))
    result = system.run_until_views(3, max_time_ms=120_000)
    assert result.safe
    assert result.committed_blocks >= 3


def test_schnorr_and_hmac_agree_on_chain_length():
    fast = ConsensusSystem(small_config("damysus"))
    real = ConsensusSystem(small_config("damysus", use_real_crypto=True))
    r_fast = fast.run_until_views(3, max_time_ms=120_000)
    r_real = real.run_until_views(3, max_time_ms=120_000)
    assert r_fast.safe and r_real.safe
    assert r_fast.committed_blocks >= 3
    assert r_real.committed_blocks >= 3
