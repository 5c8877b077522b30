import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardcart.arena import route_progress
from wardcart.comms import Link, Message, MessageKind
from wardcart.prng import MASK64, derive_seed, splitmix64
from wardcart.simcore import CartOutcome, SimConfig, run_scenario


def msg(seq, kind=MessageKind.PROCEED, sender=0):
    return Message(kind=kind, sender=sender, seq=seq)


def lcg_oracle(seed):
    """Independent reimplementation of the documented drop stream."""
    # splitmix64 of the seed, then the MMIX multiplier/increment
    x = (seed + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    state = x ^ (x >> 31)
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) & MASK64
        yield (state >> 11) / float(1 << 53)


def test_fixed_latency_delivery_tick():
    link = Link(latency_ticks=3, drop_probability=0.0)
    assert link.send(msg(0), now_tick=10)
    assert link.poll(12) == []
    assert link.poll(13) == [msg(0)]
    assert link.poll(14) == []  # delivered once


def test_full_drop_never_delivers():
    link = Link(latency_ticks=0, drop_probability=1.0, rng_seed=5)
    for i in range(50):
        assert link.send(msg(i), now_tick=i) is False
    for t in range(100):
        assert link.poll(t) == []


def test_drop_rate_matches_seeded_stream():
    link = Link(latency_ticks=1, drop_probability=0.5, rng_seed=42)
    stream = lcg_oracle(42)
    sent = []
    for i in range(1000):
        kept = link.send(msg(i), now_tick=0)
        expected_kept = next(stream) >= 0.5
        assert kept == expected_kept
        if kept:
            sent.append(i)
    got = link.poll(10)
    assert [m.seq for m in got] == sent
    assert 450 <= len(sent) <= 550  # 500 +- 50


def test_fifo_order_within_a_tick():
    link = Link(latency_ticks=2)
    for seq in (0, 1, 2):
        link.send(msg(seq), now_tick=5)
    assert [m.seq for m in link.poll(7)] == [0, 1, 2]


def test_poll_returns_only_due_messages():
    link = Link(latency_ticks=5)
    link.send(msg(0), now_tick=0)   # due at 5
    link.send(msg(1), now_tick=3)   # due at 8
    assert [m.seq for m in link.poll(5)] == [0]
    assert [m.seq for m in link.poll(7)] == []
    assert [m.seq for m in link.poll(8)] == [1]


@given(latency=st.integers(0, 12), gaps=st.lists(st.integers(0, 4), max_size=40),
       drop=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2 ** 64 - 1))
@settings(max_examples=150, deadline=None)
def test_poll_delivers_each_kept_message_once_at_its_due_tick_in_send_order(
        latency, gaps, drop, seed):
    link = Link(latency_ticks=latency, drop_probability=drop, rng_seed=seed)
    send_ticks = list(itertools.accumulate(gaps))  # never decreasing
    kept, delivered = [], []
    for now in range((send_ticks[-1] if send_ticks else 0) + latency + 2):
        for seq, tick in enumerate(send_ticks):
            if tick == now and link.send(msg(seq), now):
                kept.append((now + latency, seq))
        delivered += [(now, m.seq) for m in link.poll(now)]
    assert delivered == kept
    assert link.in_flight == []


def test_a_link_starts_with_nothing_in_flight():
    # only send fills the queue, so a link cannot be built holding messages
    with pytest.raises(TypeError):
        Link(in_flight=[(3, msg(0))])
    assert Link().in_flight == []


def test_a_send_before_one_in_flight_is_rejected():
    link = Link(latency_ticks=2)
    link.send(msg(0), now_tick=5)
    with pytest.raises(ValueError, match="later tick"):
        link.send(msg(1), now_tick=4)
    assert link.send(msg(1), now_tick=5)  # the same tick is fine
    link.poll(7)
    assert link.send(msg(2), now_tick=0)  # and so is any tick once nothing is in flight


def test_identical_seeds_reproduce_the_schedule():
    def run(seed):
        link = Link(latency_ticks=1, drop_probability=0.3, rng_seed=seed)
        out = []
        for i in range(200):
            out.append(link.send(msg(i), now_tick=i))
        return out

    assert run(9) == run(9)
    assert run(9) != run(10)


def test_link_validation():
    with pytest.raises(ValueError):
        Link(latency_ticks=-1)
    with pytest.raises(ValueError):
        Link(drop_probability=1.5)
    with pytest.raises(ValueError):
        Message(MessageKind.ACK, 0, -1)


def test_seed_derivation_is_stable_and_label_sensitive():
    assert derive_seed(1, "link") == derive_seed(1, "link")
    assert derive_seed(1, "link") != derive_seed(2, "link")
    assert derive_seed(1, "link") != derive_seed(1, "noise/cart0")
    assert 0 <= splitmix64(12345) <= MASK64


# ------------------------------------------------- protocol over scenarios

def test_lossless_protocol_is_one_proceed_one_ack(track):
    cfg = SimConfig(carts=2, wards=(4, 4), max_ticks=9000, seed=5, link_drop=0.0)
    report = run_scenario(track, cfg)
    txs = [e.text for e in report.events if e.text.startswith("tx=")]
    proceeds = [t for t in txs if t.startswith("tx=proceed")]
    acks = [t for t in txs if t.startswith("tx=ack")]
    # one announcement is enough without loss; the ack lands mid-turn and is
    # consumed when the turn releases, before the next retry is due
    assert 1 <= len(proceeds) <= 3
    assert len(acks) == len(proceeds)
    assert all(o is CartOutcome.DELIVERED_AND_RETURNED for o in report.outcomes)


def test_heavy_loss_still_completes(track):
    lossless = run_scenario(track, SimConfig(carts=2, wards=(4, 4), max_ticks=9000,
                                             seed=5, link_drop=0.0))
    lossy = run_scenario(track, SimConfig(carts=2, wards=(4, 4), max_ticks=20000,
                                          seed=5, link_drop=0.9))
    assert all(o is CartOutcome.DELIVERED_AND_RETURNED for o in lossy.outcomes)
    assert lossy.completion_ticks <= 10 * lossless.completion_ticks


def test_follower_never_passes_pause_point_without_proceed(track):
    from wardcart.arena import pause_distance, route_to
    cfg = SimConfig(carts=2, wards=(3, 3), max_ticks=12000, seed=11, link_drop=0.7)
    report = run_scenario(track, cfg)
    assert all(o is CartOutcome.DELIVERED_AND_RETURNED for o in report.outcomes)
    pause_dist = pause_distance(track, 3)
    route = route_to(track, 3)
    # find when the follower first received a proceed: it acks immediately
    ack_ticks = [ev.tick for ev in report.events
                 if ev.cart == 1 and ev.text.startswith("tx=ack")]
    first_ack = min(ack_ticks)
    for s in report.samples:
        if s.cart == 1 and s.tick < first_ack:
            assert route_progress(track, route, (s.x, s.y)) <= pause_dist + 1e-6
