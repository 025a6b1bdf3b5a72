"""Tests for flow-size distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import FixedSizes, FlowTrafficConfig, ParetoSizes, WebsearchSizes


class TestFixedSizes:
    def test_constant(self, rng):
        dist = FixedSizes(7)
        assert all(dist.sample(rng) == 7 for _ in range(10))
        assert dist.mean() == 7.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            FixedSizes(0)


class TestParetoSizes:
    def test_within_bounds(self, rng):
        dist = ParetoSizes(shape=1.2, minimum=2, maximum=50)
        samples = [dist.sample(rng) for _ in range(500)]
        assert min(samples) >= 2
        assert max(samples) <= 50

    def test_heavy_tail(self, rng):
        dist = ParetoSizes(shape=1.1, minimum=1, maximum=10000)
        samples = np.array([dist.sample(rng) for _ in range(5000)])
        # Median far below mean is the heavy-tail signature.
        assert np.median(samples) < samples.mean() / 3

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ParetoSizes(shape=0)
        with pytest.raises(ValueError):
            ParetoSizes(minimum=10, maximum=5)


class TestWebsearchSizes:
    def test_sizes_positive(self, rng):
        dist = WebsearchSizes()
        assert all(dist.sample(rng) >= 1 for _ in range(200))

    def test_mostly_mice(self, rng):
        dist = WebsearchSizes()
        samples = np.array([dist.sample(rng) for _ in range(3000)])
        # Per the CDF, ~60% of flows are <= 10 packets.
        assert (samples <= 10).mean() > 0.45

    def test_elephants_carry_most_bytes(self, rng):
        dist = WebsearchSizes()
        samples = np.sort([dist.sample(rng) for _ in range(3000)])
        top_decile_bytes = samples[-300:].sum()
        assert top_decile_bytes > 0.5 * samples.sum()

    def test_scale_parameter(self, rng):
        small = WebsearchSizes(scale=0.1)
        big = WebsearchSizes(scale=1.0)
        mean_small = np.mean([small.sample(rng) for _ in range(2000)])
        mean_big = np.mean([big.sample(rng) for _ in range(2000)])
        assert mean_small < mean_big

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            WebsearchSizes(scale=0)


# Every law ``FlowTrafficConfig.size_distribution()`` can build, over a
# range of its parameters.
size_configs = st.one_of(
    st.builds(
        FlowTrafficConfig,
        size_dist=st.just("websearch"),
        websearch_scale=st.floats(0.01, 50.0),
    ),
    st.builds(
        FlowTrafficConfig,
        size_dist=st.just("pareto"),
        pareto_shape=st.floats(0.05, 5.0),
        pareto_max=st.integers(1, 10**6),
    ),
    st.builds(
        FlowTrafficConfig,
        size_dist=st.just("fixed"),
        fixed_size=st.integers(1, 10**4),
    ),
)


class TestSampleMany:
    @settings(max_examples=150, deadline=None)
    @given(
        config=size_configs,
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 300),
    )
    def test_matches_sequential_draws(self, config, seed, n):
        dist = config.size_distribution()
        batch_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        batch = dist.sample_many(batch_rng, n)
        sequential = [dist.sample(scalar_rng) for _ in range(n)]
        assert batch.dtype == np.int64
        assert batch.shape == (n,)
        np.testing.assert_array_equal(batch, np.array(sequential, dtype=np.int64))
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_matches_scalar_formulas(self):
        # Each law's formula as a scalar oracle, one Python float at a
        # time (``round`` rounds half to even, as ``np.rint`` does).
        def websearch(dist, u):
            log_size = np.interp(u, dist._cdf, np.log(dist._sizes))
            return max(1, int(round(np.exp(log_size) * dist.scale)))

        def pareto(dist, u):
            lo, hi, a = float(dist.minimum), float(dist.maximum), dist.shape
            x = (lo**a / (1.0 - u * (1.0 - (lo / hi) ** a))) ** (1.0 / a)
            return int(np.clip(round(x), dist.minimum, dist.maximum))

        cases = [(WebsearchSizes(s), websearch) for s in (0.1, 0.37, 0.5, 1, 2, 3.3)]
        cases += [
            (ParetoSizes(a, lo, hi), pareto)
            for a, lo, hi in ((1.2, 1, 1000), (1.05, 1, 10000), (2.0, 3, 50))
        ]
        for dist, formula in cases:
            uniforms = np.random.default_rng(5).random(5000)
            expected = [formula(dist, float(u)) for u in uniforms]
            got = dist.sample_many(np.random.default_rng(5), 5000)
            np.testing.assert_array_equal(got, expected)

    def test_mean_pinned(self):
        # Load calculations divide by these; a change would shift every trace.
        assert WebsearchSizes().mean() == 223.72445
        assert WebsearchSizes(0.1).mean() == 22.731
