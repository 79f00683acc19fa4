import numpy as np
import pytest
from hypothesis import given, strategies as st

import linkbound as lb


def test_envelope_validation():
    with pytest.raises(ValueError):
        lb.AffineEnvelope(burst_bits=-1.0, rate_bits_per_slot=1.0)
    with pytest.raises(ValueError):
        lb.AffineEnvelope(burst_bits=0.0, rate_bits_per_slot=-1.0)


class TestGenerateArrivals:
    def test_zero_horizon(self):
        env = lb.AffineEnvelope(0.0, 1e9)
        assert lb.generate_arrivals(env, 0).size == 0

    def test_constant_rate(self):
        env = lb.AffineEnvelope(0.0, 1e9)
        arr = lb.generate_arrivals(env, 5)
        assert np.all(arr == 1e9)
        assert arr.sum() == pytest.approx(5e9, rel=1e-12)

    def test_negative_horizon(self):
        with pytest.raises(ValueError):
            lb.generate_arrivals(lb.AffineEnvelope(0.0, 1.0), -1)

    @given(
        burst=st.floats(0.0, 1e5),
        rate=st.floats(0.0, 1e9),
        horizon=st.integers(1, 60),
    )
    def test_envelope_conformance(self, burst, rate, horizon):
        env = lb.AffineEnvelope(burst, rate)
        cum = np.concatenate(([0.0], np.cumsum(lb.generate_arrivals(env, horizon))))
        for s in range(horizon + 1):
            for t in range(s, horizon + 1):
                slack = 1e-9 * max(cum[t], 1.0)  # cumsum rounding
                assert cum[t] - cum[s] <= rate * (t - s) + burst + slack
