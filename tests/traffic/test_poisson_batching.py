"""Batched Poisson flow arrivals equal the per-step path at every rate.

Both flow generators batch their per-step ``rng.poisson`` draws through
one checkpoint/rewind helper whose array draw is sized to the rate
(about four expected arrivals, clamped to [16, 4096] steps).  The rates
below reach both clamps, the paper's rate (about 0.0063 flows/step) and
the zero-rate case; the horizons are long enough at sparse rates to
cross a 4,096-step array draw.  Parity covers the packets, their order
and the generator's final bit-generator state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import FlowTrafficConfig, FlowTrafficGenerator, PoissonFlowTraffic
from repro.traffic.distributions import WebsearchSizes

#: Flows per step -> steps simulated (shorter where flows are dense).
HORIZONS = {0.0: 9000, 1e-4: 9000, 0.0063: 5000, 0.05: 2000, 0.5: 400, 3.0: 200}


def _splits(horizon: int):
    """Span lengths summing to ``horizon``; empty spans included."""
    return st.lists(st.integers(0, horizon), max_size=4).map(
        lambda cuts: np.diff([0, *sorted(cuts), horizon]).tolist()
    )


def _per_step(generator, horizon: int) -> list[tuple[int, int, int]]:
    return [
        (step, packet.dst_port, packet.qclass)
        for step in range(horizon)
        for packet in generator.arrivals(step)
    ]


def _batched(generator, splits: list[int]) -> list[tuple[int, int, int]]:
    out: list[tuple[int, int, int]] = []
    start = 0
    for num_steps in splits:
        steps, dsts, qclasses = generator.arrivals_batch(start, num_steps)
        out.extend(zip(steps.tolist(), dsts.tolist(), qclasses.tolist()))
        start += num_steps
    return out


def _assert_parity(make, horizon: int, splits: list[int]) -> None:
    sequential, batched = make(), make()
    expected = _per_step(sequential, horizon)
    assert _batched(batched, splits) == expected
    (seq_rng,), (bat_rng,) = sequential.rng_streams(), batched.rng_streams()
    assert bat_rng.bit_generator.state == seq_rng.bit_generator.state


@given(
    lam=st.sampled_from(sorted(HORIZONS)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_poisson_flow_traffic_batch_parity(lam, seed, data):
    horizon = HORIZONS[lam]
    splits = data.draw(_splits(horizon))

    def make():
        return PoissonFlowTraffic(
            num_sources=4,
            num_ports=3,
            flows_per_step=lam,
            sizes=WebsearchSizes(0.1),
            seed=seed,
        )

    _assert_parity(make, horizon, splits)


@given(
    lam=st.sampled_from(sorted(HORIZONS)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_flow_traffic_generator_batch_parity(lam, seed, data):
    horizon = HORIZONS[lam]
    splits = data.draw(_splits(horizon))
    config = FlowTrafficConfig(flows_per_step=lam, websearch_scale=0.1)

    def make():
        return FlowTrafficGenerator(config, seed=seed)

    _assert_parity(make, horizon, splits)
