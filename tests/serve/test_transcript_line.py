"""``transcript_line`` writes exactly what ``json.dumps`` would."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.receiver import transcript_line

_names = st.text(max_size=12) | st.sampled_from(
    ['r"0', "r\\1", "récepteur", "接收器", "\x00\x1f", "emss(2,1)", ""])
_times = st.one_of(st.none(), st.floats(), st.integers(-10, 10 ** 12))


@st.composite
def records(draw):
    count = draw(st.integers(0, 20))
    base = draw(st.integers(1, 2 ** 32 - count - 1))
    shared = draw(st.floats(allow_nan=False))
    events = []
    for seq in range(base, base + count):
        code = draw(st.sampled_from("lva"))
        if code == "v":
            # Mostly one shared time object, as one ingest stamps many.
            when = draw(st.one_of(st.just(shared), _times))
        else:
            when = None
        events.append((seq, code, when))
    return (draw(_names), draw(st.integers(-1, 2 ** 32)), draw(_names),
            draw(_names), draw(st.integers(0, 10 ** 6)), events)


def _dumps(receiver_id, block_id, phase, scheme, delivered, events):
    record = {"r": receiver_id, "b": block_id, "phase": phase,
              "scheme": scheme, "delivered": delivered,
              "events": [list(event) for event in events]}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@settings(max_examples=400, deadline=None)
@given(records())
def test_matches_json_dumps(record):
    assert transcript_line(*record) == _dumps(*record)


def test_special_floats_and_signed_zero():
    nan = float("nan")
    events = [(1, "v", -0.0), (2, "v", 0.0), (3, "v", nan),
              (4, "v", float("inf")), (5, "v", float("-inf")),
              (6, "v", 1e-320), (7, "v", 7), (8, "a", None), (9, "l", None)]
    record = ("r0", 3, "steady", "emss(2,1)", 2, events)
    assert transcript_line(*record) == _dumps(*record)
