"""Golden trace digests: the sha256 of ``trace_to_csv`` for three short
scenarios, one per engine path (clean single cart, noisy and distorted
single cart, two carts over a lossy link).

A change that alters any trace byte fails here. If the change is meant to
alter behaviour, say so and update the values (``perfbench/digests.py``
keeps the same scenarios as its self-check).
"""

import hashlib

import pytest

from wardcart.simcore import SimConfig, run_scenario, trace_to_csv
from wardcart.vision.render import NoiseParams

GOLDEN = {
    "clean_ward1": (
        SimConfig(wards=(1,), seed=0),
        "7cab7e511905b86059ac7f0bebe79ec546b76d095b5f99353cb85c0332db69c5"),
    "noisy_ward2": (
        SimConfig(wards=(2,), seed=3,
                  noise=NoiseParams(brightness=-30.0, sigma=8.0, k1=0.05)),
        "bf58fecbdf3f6139845c6c5d557a7f7dca983213e135889ed8b6cf131806c699"),
    "twocart_1_2": (
        SimConfig(carts=2, wards=(1, 2), seed=5, link_drop=0.5),
        "1549b2461f649085d58a82a0011a6b7390e3ddaadfda386e98d8a28e8ebc52ad"),
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_trace_digest_is_unchanged(track, label):
    config, want = GOLDEN[label]
    text = trace_to_csv(run_scenario(track, config))
    assert hashlib.sha256(text.encode()).hexdigest() == want
