import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ude.prng import derive_seed, splitmix64, uniform_f32

from conftest import reference_draws

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
u64 = st.integers(0, MASK)


def test_splitmix64_reference_values():
    # first three outputs from state 0, cross-checked against the published
    # splitmix64 recurrence
    state, out1 = splitmix64(0)
    state, out2 = splitmix64(state)
    state, out3 = splitmix64(state)
    assert out1 == 0xE220A8397B1DCDAF
    assert out2 == 0x6E789E6AA1B965F4
    assert out3 == 0x06C45D188009454F


@given(u64, u64)
@settings(max_examples=50, deadline=None)
def test_derive_seed_deterministic_and_word_sensitive(seed, word):
    assert derive_seed(seed, word) == derive_seed(seed, word)
    assert derive_seed(seed, word) != derive_seed(seed, word ^ 1)
    assert 0 <= derive_seed(seed, word) < (1 << 64)


def test_derive_seed_order_sensitive():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def _first_draw(state, low, high):
    # one hand-computed step: x ^= x>>12; x ^= x<<25; x ^= x>>27; out = x*M
    x = state
    x ^= x >> 12
    x ^= (x << 25) & MASK
    x ^= x >> 27
    out = (x * 0x2545F4914F6CDD1D) & MASK
    return np.float32(low + (high - low) * ((out >> 11) / (1 << 53)))


def test_first_draw_is_one_step_from_the_splitmix_state():
    assert uniform_f32(123, 1, -2.0, 2.0)[0] == _first_draw(splitmix64(123)[1], -2.0, 2.0)


def test_a_zero_splitmix_output_seeds_the_golden_gamma():
    # splitmix64 outputs 0 only for the state 0, which the seed -gamma reaches
    seed = -GAMMA & MASK
    assert splitmix64(seed)[1] == 0
    assert uniform_f32(seed, 1, 0.0, 1.0)[0] == _first_draw(GAMMA, 0.0, 1.0)


@given(u64, st.integers(0, 300), st.floats(-4, 4), st.floats(0.001, 4))
@settings(max_examples=30, deadline=None)
def test_draws_are_float32_within_the_range(seed, n, low, span):
    draws = uniform_f32(seed, n, low, low + span)
    assert draws.dtype == np.float32 and draws.shape == (n,)
    # computed below high in f64; the cast to f32 may round up onto it
    assert np.all((draws >= np.float32(low)) & (draws <= np.float32(low + span)))


@pytest.mark.parametrize("seed", [0, 9, MASK])
@pytest.mark.parametrize("n", [0, 1, 1500])
def test_draws_match_the_scalar_reference(seed, n):
    assert uniform_f32(seed, n, -0.3, 0.7).tobytes() == reference_draws(seed, n, -0.3, 0.7).tobytes()


@given(u64, st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_a_shorter_draw_is_a_prefix_of_a_longer_one(seed, n, k):
    k = min(k, n)
    assert np.array_equal(uniform_f32(seed, n, -1.0, 1.0)[:k], uniform_f32(seed, k, -1.0, 1.0))
