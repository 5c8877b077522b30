"""Two-cart message link: seeded loss, fixed latency, FIFO delivery.

Stands in for the Bluetooth pairing between the carts. The protocol is a
minimal pause/proceed handshake: the lead cart announces Proceed when it
starts its return run and repeats it on a fixed interval until the waiting
cart acknowledges, so any drop rate below 1 is survivable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

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
    in_flight: list[tuple[int, int, Message]] = field(default_factory=list)

    def __post_init__(self):
        if self.latency_ticks < 0:
            raise ValueError("latency_ticks must be nonnegative")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self._rng = Lcg64(self.rng_seed)
        self._order = 0

    def send(self, msg: Message, now_tick: int) -> bool:
        """Queue a message; returns False when the link dropped it."""
        if self.drop_probability > 0 and self._rng.uniform() < self.drop_probability:
            return False
        self.in_flight.append((now_tick + self.latency_ticks, self._order, msg))
        self._order += 1
        return True

    def poll(self, now_tick: int) -> list[Message]:
        """All messages due by now_tick, in send order."""
        due = sorted(t for t in self.in_flight if t[0] <= now_tick)
        self.in_flight = [t for t in self.in_flight if t[0] > now_tick]
        return [msg for _, _, msg in due]


@dataclass
class ProceedRetry:
    """Leader-side resend schedule: fire every retry_interval until acked.

    retry_interval = 0 disables resending (the first announcement, if any,
    is still made by the mission logic).
    """
    retry_interval: int = 20
    acked: bool = False
    last_sent_tick: int | None = None

    def should_send(self, now_tick: int) -> bool:
        if self.acked:
            return False
        if self.last_sent_tick is None:
            return True
        if self.retry_interval <= 0:
            return False
        return now_tick - self.last_sent_tick >= self.retry_interval

    def mark_sent(self, now_tick: int) -> None:
        self.last_sent_tick = now_tick

    def mark_acked(self) -> None:
        self.acked = True
