"""The relay probe times a fixed round trip through helper processes."""

from perfbench.relay import HELPERS, SLAB_SIZE, Relay, _answer


def test_answer_is_fixed_and_one_per_shape():
    slab = ((64, 128, 256), (4096, 64, 64))
    assert _answer(slab) == _answer(slab)
    assert [row[0] for row in _answer(slab)] == list(slab)


def test_probe_times_a_round_and_close_ends_every_helper():
    relay = Relay()
    procs = list(relay._procs)
    try:
        assert len(procs) == HELPERS
        assert 0 < relay.probe() < 5.0
        assert len(relay._slabs[0]) == SLAB_SIZE
    finally:
        relay.close()
    assert all(p.exitcode is not None for p in procs)
    relay.close()  # a second close is harmless
