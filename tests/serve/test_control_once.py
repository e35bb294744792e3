"""Work counts of a live session: one control encoding per block.

A control frame is a fixed 21-byte block boundary with nothing
per-receiver in it, so the sender encodes it once per block (plus
once for the final frame) and hands every receiver the same bytes,
with per-block and with batch signing alike.  Counted by wrapping the
name the sender looks up, ``repro.serve.sender.encode_control``.
"""

import pytest

import repro.serve.sender as sender_module
from repro.serve.service import ServeConfig, run_live_session
from repro.serve.transport import LocalTransport, decode_control


@pytest.mark.parametrize("batch_size", [1, 8])
@pytest.mark.parametrize("receivers", [1, 6])
def test_one_control_encoding_per_block(monkeypatch, receivers, batch_size):
    encodes = [0]
    controls = {}  # block id -> receiver id -> control bytes
    encode_control = sender_module.encode_control
    send = LocalTransport.send

    def counted_encode(frame):
        encodes[0] += 1
        return encode_control(frame)

    async def recorded_send(transport, receiver_id, deliveries):
        for delivery in deliveries:
            if delivery.kind == "control":
                block_id = decode_control(delivery.data).block_id
                controls.setdefault(block_id, {})[receiver_id] = delivery.data
        return await send(transport, receiver_id, deliveries)

    monkeypatch.setattr(sender_module, "encode_control", counted_encode)
    monkeypatch.setattr(LocalTransport, "send", recorded_send)
    config = ServeConfig(receivers=receivers, blocks=10, block_size=8,
                         attack="pollution", batch_size=batch_size, seed=13)
    result = run_live_session(config)

    assert result.forged_accepted == 0
    assert encodes[0] == config.blocks + 1
    assert sorted(controls) == [-1] + list(range(config.blocks))
    for block_id, by_receiver in controls.items():
        assert sorted(by_receiver) == config.receiver_ids()
        # One bytes object per block, the same for every receiver.
        assert len({id(data) for data in by_receiver.values()}) == 1
        assert all(len(data) == 21 for data in by_receiver.values())
