"""Stream generator tests against frozen reference outputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbin import InvalidArgumentError, SplitMix64
from augbin.rng import below_draws, symmetric_draws, unit_draws


def test_reference_outputs_seed_zero():
    stream = SplitMix64(0)
    assert stream.next_u64() == 0xE220A8397B1DCDAF
    assert stream.next_u64() == 0x6E789E6AA1B965F4
    assert stream.next_u64() == 0x06C45D188009454F


def test_reference_outputs_seed_42():
    stream = SplitMix64(42)
    assert stream.next_u64() == 13679457532755275413
    assert stream.next_u64() == 2949826092126892291
    assert stream.next_u64() == 5139283748462763858


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    for _ in range(100):
        assert a.next_u64() == b.next_u64()


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50)
def test_unit_draws_lie_in_half_open_interval(seed):
    stream = SplitMix64(seed)
    for _ in range(20):
        u = stream.next_unit()
        assert 0.0 <= u < 1.0


def test_unit_matches_top_53_bits():
    stream = SplitMix64(7)
    raw = SplitMix64(7)
    for _ in range(10):
        assert stream.next_unit() == (raw.next_u64() >> 11) * 2.0**-53


@given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=50)
def test_symmetric_draws_bounded_by_radius(seed, radius):
    stream = SplitMix64(seed)
    for _ in range(20):
        value = stream.next_symmetric(radius)
        assert -radius < value < radius


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=1000))
@settings(max_examples=50)
def test_next_below_stays_in_range(seed, n):
    stream = SplitMix64(seed)
    for _ in range(20):
        assert 0 <= stream.next_below(n) < n


def test_next_below_is_modulo_reduction():
    stream = SplitMix64(3)
    raw = SplitMix64(3)
    for _ in range(10):
        assert stream.next_below(37) == raw.next_u64() % 37


def test_gaussian_pair_consumed_before_new_draws():
    # Two gaussians use exactly two u64 draws; the stream then continues
    # where a raw two-draw stream would.
    stream = SplitMix64(11)
    stream.next_gaussian()
    stream.next_gaussian()
    raw = SplitMix64(11)
    raw.next_u64()
    raw.next_u64()
    assert stream.next_u64() == raw.next_u64()


def test_gaussian_pair_values_follow_box_muller():
    stream = SplitMix64(5)
    raw = SplitMix64(5)
    a = raw.next_u64()
    b = raw.next_u64()
    u1 = ((a >> 11) + 1) * 2.0**-53
    u2 = (b >> 11) * 2.0**-53
    r = math.sqrt(-2.0 * math.log(u1))
    t = 2.0 * math.pi * u2
    assert stream.next_gaussian() == r * math.cos(t)
    assert stream.next_gaussian() == r * math.sin(t)


def test_gaussian_sample_moments_are_sane():
    stream = SplitMix64(2024)
    draws = np.array([stream.next_gaussian() for _ in range(4000)])
    assert abs(float(np.mean(draws))) < 0.05
    assert abs(float(np.std(draws)) - 1.0) < 0.05


def test_symmetric_array_fills_row_major():
    stream = SplitMix64(9)
    arr = stream.symmetric_array((3, 4), 0.5)
    replay = SplitMix64(9)
    expected = [replay.next_symmetric(0.5) for _ in range(12)]
    assert arr.shape == (3, 4)
    assert arr.dtype == np.float64
    assert list(arr.ravel()) == expected


def test_symmetric_array_empty_shape_dimension():
    arr = SplitMix64(1).symmetric_array((0, 4), 1.0)
    assert arr.shape == (0, 4)


_BLOCK_SEEDS = [0, 42, 2**64 - 1, 123456789]


def _scalar_u64(stream, count):
    return [stream.next_u64() for _ in range(count)]


@pytest.mark.parametrize("seed", _BLOCK_SEEDS)
def test_u64_block_equals_scalar_draws_across_block_boundaries(seed):
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    expected = _scalar_u64(scalar, 10000)
    parts = [block.next_u64_block(count) for count in (3333, 0, 1, 6666)]
    assert all(part.dtype == np.uint64 for part in parts)
    assert np.concatenate(parts).tolist() == expected
    assert block._state == scalar._state
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", _BLOCK_SEEDS)
def test_u64_block_mixes_with_scalar_calls(seed):
    scalar, mixed = SplitMix64(seed), SplitMix64(seed)
    expected = _scalar_u64(scalar, 1 + 17 + 2 + 5)
    drawn = [mixed.next_u64()]
    drawn += mixed.next_u64_block(17).tolist()
    drawn += [mixed.next_u64(), mixed.next_u64()]
    drawn += mixed.next_u64_block(5).tolist()
    assert drawn == expected
    assert mixed._state == scalar._state


def test_u64_block_of_zero_draws_leaves_the_state():
    stream = SplitMix64(42)
    block = stream.next_u64_block(0)
    assert block.shape == (0,) and block.dtype == np.uint64
    assert stream.next_u64() == SplitMix64(42).next_u64()


def test_u64_block_rejects_a_negative_count():
    with pytest.raises(InvalidArgumentError):
        SplitMix64(0).next_u64_block(-1)


def test_u64_block_leaves_a_pending_gaussian_next():
    scalar, block = SplitMix64(11), SplitMix64(11)
    scalar.next_gaussian()
    block.next_gaussian()
    pending = scalar.next_gaussian()
    assert block.next_u64_block(4).tolist() == _scalar_u64(scalar, 4)
    assert block.next_gaussian() == pending
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", _BLOCK_SEEDS)
def test_block_maps_equal_scalar_draws(seed):
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    units = unit_draws(block.next_u64_block(500))
    assert units.dtype == np.float64
    assert units.tobytes() == np.array([scalar.next_unit() for _ in range(500)]).tobytes()
    for radius in (0.5, 1.0 / 3.0, np.float64(1.0) / np.sqrt(17)):
        values = symmetric_draws(block.next_u64_block(500), radius)
        expected = np.array([scalar.next_symmetric(radius) for _ in range(500)])
        assert values.dtype == np.float64
        assert values.tobytes() == expected.tobytes()
    for n in (1, 3, 10, 2**32 + 1, 2**63 + 5):
        assert below_draws(block.next_u64_block(500), n).tolist() == [scalar.next_below(n) for _ in range(500)]
    moduli = np.arange(500, 0, -1)
    assert below_draws(block.next_u64_block(500), moduli).tolist() == [scalar.next_below(int(n)) for n in moduli]


def test_below_draws_rejects_a_zero_modulus():
    with pytest.raises(InvalidArgumentError):
        below_draws(SplitMix64(0).next_u64_block(3), 0)


def test_symmetric_array_equals_scalar_draws_at_scale():
    values = SplitMix64(123456789).symmetric_array((300, 7), np.float64(1.0) / np.sqrt(300))
    replay = SplitMix64(123456789)
    expected = [replay.next_symmetric(np.float64(1.0) / np.sqrt(300)) for _ in range(2100)]
    assert values.tobytes() == np.array(expected).reshape(300, 7).tobytes()
