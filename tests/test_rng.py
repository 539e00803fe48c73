import numpy as np
import pytest

from ranktrack.rng import _GOLDEN, _MASK64, SplitMix64, _mix

def with_kinds(values) -> list:
    """Each value with a scalar mean (id ``v``) and with an array of means
    (id ``v-array``)."""
    return [pytest.param(v, kind, id=f"{v}{suffix}") for kind, suffix in
            (("scalar", ""), ("array", "-array")) for v in values]


def means(kind: str, base: float, count: int):
    """``base`` as one scalar mean, or ``count`` distinct means around it."""
    return np.float64(base) if kind == "scalar" else base + np.sin(np.arange(count))


def scalar_normals(rng: SplitMix64, mu, sigma, count: int) -> np.ndarray:
    mus = mu if np.ndim(mu) else [mu] * count
    return np.array([rng.normal(m, sigma) for m in mus], dtype=np.float64)


def assert_same_stream(a: SplitMix64, b: SplitMix64) -> None:
    assert a._state == b._state
    assert a._spare_normal == b._spare_normal


class TestNormals:
    @pytest.mark.parametrize("count,kind", with_kinds([*range(10), 4001]))
    @pytest.mark.parametrize("warm", [0, 1])
    def test_block_equals_scalar_draws(self, count, kind, warm):
        # 4001 draws take ~2000 logs, enough to meet inputs where np.log and
        # math.log round differently
        a, b = SplitMix64(101), SplitMix64(101)
        for _ in range(warm):  # an odd number of scalar draws leaves a spare
            a.normal(0.0, 1.0)
            b.normal(0.0, 1.0)
        mu, sigma = means(kind, 0.37, count), 0.05
        want = scalar_normals(a, mu, sigma, count)
        got = b.normals(mu, sigma, count)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert got.tobytes() == want.tobytes()
        assert_same_stream(a, b)
        assert a.next_u64() == b.next_u64()

    def test_spare_carries_across_calls(self):
        # scalar and array means alternate, so the spare crosses both ways
        a, b = SplitMix64(7), SplitMix64(7)
        for i, count in enumerate([3, 1, 5, 2, 7, 0, 5, 4, 2]):
            kind = ("scalar", "array")[i % 2]
            mu, sigma = means(kind, 0.1 * i, count), 0.2 + i
            assert b.normals(mu, sigma, count).tobytes() == \
                scalar_normals(a, mu, sigma, count).tobytes()
            assert_same_stream(a, b)
        assert b._spare_normal is not None and a.normal(0.0, 1.0) == b.normal(0.0, 1.0)

    @pytest.mark.parametrize("warm,kind", with_kinds([0, 1]))
    def test_zero_uniform_replays_scalar_path(self, warm, kind):
        # the next word after state -golden is _mix(0) == 0, so u1 == 0 and
        # the scalar Box-Muller redraws it
        assert _mix(0) == 0
        a, b = SplitMix64(0), SplitMix64(0)
        for rng in (a, b):
            for _ in range(warm):
                rng.normal(0.0, 1.0)
            rng._state = -_GOLDEN & _MASK64
        mu = means(kind, 0.5, 9)
        want = scalar_normals(a, mu, 0.1, 9)
        assert b.normals(mu, 0.1, 9).tobytes() == want.tobytes()
        assert_same_stream(a, b)
        # one extra word was drawn for the redrawn u1
        pairs = (9 - warm + 1) // 2
        assert b._state == (2 * pairs * _GOLDEN) & _MASK64


def test_array_mu_needs_one_mean_per_draw():
    with pytest.raises(ValueError):
        SplitMix64(3).normals(np.zeros(3), 1.0, 4)
