"""Tests for the on-off traffic generator."""

import numpy as np
import pytest

from repro.switchsim import Simulation, SwitchConfig
from repro.traffic import OnOffTraffic


class TestOnOffTraffic:
    def test_long_run_load(self):
        gen = OnOffTraffic(num_sources=30, num_ports=2, p_on=0.1, p_off=0.1, seed=0)
        total = sum(len(gen.arrivals(t)) for t in range(4000))
        expected = 30 * 4000 * gen.expected_load_per_source
        assert 0.85 * expected < total < 1.15 * expected

    def test_at_most_one_packet_per_source(self):
        gen = OnOffTraffic(num_sources=5, num_ports=2, p_on=0.9, p_off=0.05, seed=1)
        for t in range(200):
            packets = gen.arrivals(t)
            assert len(packets) <= 5
            assert len({p.flow_id for p in packets}) == len(packets)

    def test_bursts_are_contiguous(self):
        gen = OnOffTraffic(num_sources=1, num_ports=1, p_on=0.05, p_off=0.2, seed=2)
        active = [bool(gen.arrivals(t)) for t in range(2000)]
        runs = []
        length = 0
        for on in active:
            if on:
                length += 1
            elif length:
                runs.append(length)
                length = 0
        assert runs  # the source did burst
        assert np.mean(runs) > 2  # mean burst length ~ 1/p_off = 5

    def test_expected_load_property(self):
        gen = OnOffTraffic(num_sources=1, num_ports=1, p_on=0.2, p_off=0.2)
        assert gen.expected_load_per_source == pytest.approx(0.5)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            OnOffTraffic(1, 1, p_on=0.0, p_off=0.5)
        with pytest.raises(ValueError):
            OnOffTraffic(1, 1, p_on=0.5, p_off=1.5)

    def test_drives_simulator(self):
        cfg = SwitchConfig(num_ports=2, queues_per_port=2, buffer_capacity=40, alphas=(1.0, 0.5))
        gen = OnOffTraffic(num_sources=6, num_ports=2, p_on=0.2, p_off=0.1, seed=3)
        trace = Simulation(cfg, gen, steps_per_bin=4).run(100)
        trace.validate()
        assert trace.sent.sum() > 0
