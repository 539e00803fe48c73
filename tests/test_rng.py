import numpy as np
import pytest

from ranktrack.rng import _GOLDEN, _MASK64, SplitMix64, _mix


def scalar_normals(rng: SplitMix64, mu, sigma, count: int) -> np.ndarray:
    return np.array([rng.normal(mu, sigma) for _ in range(count)], dtype=np.float64)


def assert_same_stream(a: SplitMix64, b: SplitMix64) -> None:
    assert a._state == b._state
    assert a._spare_normal == b._spare_normal


class TestNormals:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 8, 9, 4001])
    @pytest.mark.parametrize("warm", [0, 1])
    def test_block_equals_scalar_draws(self, count, warm):
        # 4001 draws take ~2000 logs, enough to meet inputs where np.log and
        # math.log round differently
        a, b = SplitMix64(101), SplitMix64(101)
        for _ in range(warm):  # an odd number of scalar draws leaves a spare
            a.normal()
            b.normal()
        mu, sigma = np.float64(0.37), 0.05
        want = scalar_normals(a, mu, sigma, count)
        got = b.normals(mu, sigma, count)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert got.tobytes() == want.tobytes()
        assert_same_stream(a, b)
        assert a.next_u64() == b.next_u64()

    def test_spare_carries_across_calls(self):
        a, b = SplitMix64(7), SplitMix64(7)
        for i, count in enumerate([3, 1, 5, 2, 7, 0, 5]):
            mu, sigma = 0.1 * i, 0.2 + i
            assert b.normals(mu, sigma, count).tobytes() == \
                scalar_normals(a, mu, sigma, count).tobytes()
            assert_same_stream(a, b)
        assert b._spare_normal is not None and a.normal() == b.normal()

    @pytest.mark.parametrize("warm", [0, 1])
    def test_zero_uniform_replays_scalar_path(self, warm):
        # the next word after state -golden is _mix(0) == 0, so u1 == 0 and
        # the scalar Box-Muller redraws it
        assert _mix(0) == 0
        a, b = SplitMix64(0), SplitMix64(0)
        for rng in (a, b):
            for _ in range(warm):
                rng.normal()
            rng._state = -_GOLDEN & _MASK64
        want = scalar_normals(a, 0.5, 0.1, 9)
        assert b.normals(0.5, 0.1, 9).tobytes() == want.tobytes()
        assert_same_stream(a, b)
        # one extra word was drawn for the redrawn u1
        pairs = (9 - warm + 1) // 2
        assert b._state == (2 * pairs * _GOLDEN) & _MASK64
