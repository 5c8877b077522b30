"""Two-cart message link: seeded loss, fixed latency, FIFO delivery.

Stands in for the Bluetooth pairing between the carts. The protocol is a
minimal pause/proceed handshake: the lead cart announces Proceed when it
starts its return run and repeats it on a fixed interval until the waiting
cart acknowledges, so any drop rate below 1 is survivable. The resend
schedule is part of the leader's mission state (``mission.mission_step``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter

from .prng import Lcg64


class MessageKind(Enum):
    PROCEED = "proceed"
    ACK = "ack"


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    sender: int  # cart id
    seq: int

    def __post_init__(self):
        if self.seq < 0:
            raise ValueError("seq must be nonnegative")


@dataclass
class Link:
    latency_ticks: int = 3
    drop_probability: float = 0.0
    rng_seed: int = 0
    # (due tick, msg) pairs in send order; only send fills it
    in_flight: list[tuple[int, Message]] = field(default_factory=list, init=False)

    def __post_init__(self):
        if self.latency_ticks < 0:
            raise ValueError("latency_ticks must be nonnegative")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self._rng = Lcg64(self.rng_seed)

    def send(self, msg: Message, now_tick: int) -> bool:
        """Queue a message; returns False when the link dropped it."""
        if self.in_flight and now_tick + self.latency_ticks < self.in_flight[-1][0]:
            raise ValueError(f"send at tick {now_tick} after a send at a later tick")
        if self.drop_probability > 0 and self._rng.uniform() < self.drop_probability:
            return False
        self.in_flight.append((now_tick + self.latency_ticks, msg))
        return True

    def poll(self, now_tick: int) -> list[Message]:
        """All messages due by now_tick, in send order: with one latency and
        send ticks that never decrease, they are a prefix of in_flight."""
        n = bisect_right(self.in_flight, now_tick, key=itemgetter(0))
        due, self.in_flight = self.in_flight[:n], self.in_flight[n:]
        return [msg for _, msg in due]
