"""ReceiverPool failure safety and membership mechanics.

The regression this file pins: a receiver session that raises
mid-block must cancel its sibling tasks and surface the error through
:meth:`~repro.serve.receiver.ReceiverPool.wait_block` /
:meth:`~repro.serve.receiver.ReceiverPool.join` — before this, one
broken session left the per-block barrier waiting forever.  Every
barrier await here sits under a hard ``asyncio.wait_for`` timeout, so
a reintroduced deadlock fails the test instead of hanging the suite.
"""

import asyncio

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SimulationError
from repro.faults import WireDelivery
from repro.serve.receiver import BlockTruth, ReceiverPool
from repro.serve.transport import ControlFrame, LocalTransport, encode_control

IDS = ["r00", "r01", "r02"]
TIMEOUT = 5.0


def _control(pool, block_id, final=False):
    """A block boundary, its ground truth already in the pool's ledger."""
    if not final:
        for receiver_id in pool.sessions:
            pool.ledger[(receiver_id, block_id)] = BlockTruth(
                scheme="sign-each", phase="test", intact=frozenset(),
                digests={})
    frame = ControlFrame(block_id=block_id, base_seq=1, last_seq=2,
                         final=final)
    return WireDelivery(arrival_time=0.0, data=encode_control(frame),
                        kind="control", seq_hint=None)


async def _pool(ids=IDS):
    transport = LocalTransport()
    await transport.start(ids)
    pool = ReceiverPool(ids, HmacStubSigner(key=b"pool-safety"))
    pool.start(transport)
    return transport, pool


def _poison(pool, receiver_id):
    """Make one session raise on its next block close."""
    def boom(frame, now=None):
        raise RuntimeError("session exploded")
    pool.sessions[receiver_id].close_block = boom


class TestFailureSafety:
    def test_raising_session_fails_wait_block_instead_of_hanging(self):
        async def run():
            transport, pool = await _pool()
            _poison(pool, "r01")
            for receiver_id in IDS:
                await transport.send(receiver_id, [_control(pool, 0)])
            # r01 never reports block 0, so without the failure race
            # this barrier would wait forever.
            with pytest.raises(RuntimeError, match="session exploded"):
                await asyncio.wait_for(pool.wait_block(0), timeout=TIMEOUT)
            # The siblings were cancelled, not left running.
            for _ in range(3):
                await asyncio.sleep(0)
            assert pool.active_ids == []
            await transport.close()
        asyncio.run(run())

    def test_failure_surfaces_through_join(self):
        async def run():
            transport, pool = await _pool()
            _poison(pool, "r01")
            await transport.send("r01", [_control(pool, 0)])
            with pytest.raises(RuntimeError, match="session exploded"):
                await asyncio.wait_for(pool.join(), timeout=TIMEOUT)
            await transport.close()
        asyncio.run(run())

    def test_later_waits_keep_raising_the_recorded_failure(self):
        async def run():
            transport, pool = await _pool()
            _poison(pool, "r01")
            await transport.send("r01", [_control(pool, 0)])
            with pytest.raises(RuntimeError):
                await asyncio.wait_for(pool.wait_block(0), timeout=TIMEOUT)
            with pytest.raises(RuntimeError):
                await asyncio.wait_for(pool.wait_block(1), timeout=TIMEOUT)
            await transport.close()
        asyncio.run(run())

    def test_healthy_pool_still_releases_the_barrier(self):
        async def run():
            transport, pool = await _pool()
            for receiver_id in IDS:
                await transport.send(receiver_id, [_control(pool, 0)])
            reports = await asyncio.wait_for(pool.wait_block(0),
                                             timeout=TIMEOUT)
            assert [r.receiver_id for r in reports] == IDS
            for receiver_id in IDS:
                await transport.send(receiver_id,
                                     [_control(pool, -1, final=True)])
            await asyncio.wait_for(pool.join(), timeout=TIMEOUT)
            await transport.close()
        asyncio.run(run())


class TestMembershipMechanics:
    def test_crash_shrinks_the_barrier_set(self):
        async def run():
            transport, pool = await _pool()
            await transport.send("r00", [_control(pool, 0)])
            await transport.send("r02", [_control(pool, 0)])
            await pool.crash("r01")
            assert pool.active_ids == ["r00", "r02"]
            # The barrier releases on the survivors alone — the dead
            # member's missing report cannot wedge it.
            reports = await asyncio.wait_for(pool.wait_block(0),
                                             timeout=TIMEOUT)
            assert [r.receiver_id for r in reports] == ["r00", "r02"]
            # The victim's record survives for the session audit, and
            # its unread ground truth left the ledger with the block.
            assert "r01" in pool.sessions
            assert pool.ledger == {}
            await transport.close()
        asyncio.run(run())

    def test_admit_spawns_into_a_started_pool(self):
        async def run():
            transport, pool = await _pool()
            await transport.open_endpoint("r03")
            pool.admit("r03")
            assert "r03" in pool.active_ids
            for receiver_id in IDS + ["r03"]:
                await transport.send(receiver_id, [_control(pool, 0)])
            reports = await asyncio.wait_for(pool.wait_block(0),
                                             timeout=TIMEOUT)
            assert [r.receiver_id for r in reports] == IDS + ["r03"]
            await transport.close()
        asyncio.run(run())

    def test_members_never_rejoin_under_one_identity(self):
        async def run():
            transport, pool = await _pool()
            with pytest.raises(SimulationError):
                pool.admit("r00")
            await transport.close()
        asyncio.run(run())

    def test_retire_drains_the_leaver_and_keeps_its_record(self):
        async def run():
            transport, pool = await _pool()
            await transport.close_endpoint("r01")
            await asyncio.wait_for(pool.retire("r01"), timeout=TIMEOUT)
            assert pool.active_ids == ["r00", "r02"]
            assert "r01" in pool.sessions
            await transport.close()
        asyncio.run(run())

    def test_retire_finished_session_is_quiet(self):
        async def run():
            transport, pool = await _pool()
            await transport.send("r01", [_control(pool, -1, final=True)])
            for _ in range(3):
                await asyncio.sleep(0)
            assert "r01" not in pool.active_ids
            await asyncio.wait_for(pool.retire("r01"), timeout=TIMEOUT)
            await transport.close()
        asyncio.run(run())

    def test_unknown_ids_are_loud(self):
        async def run():
            transport, pool = await _pool()
            with pytest.raises(SimulationError):
                await pool.retire("ghost")
            with pytest.raises(SimulationError):
                await pool.crash("ghost")
            await transport.close()
        asyncio.run(run())
