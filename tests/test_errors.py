import numpy as np
import pytest

from reachset.errors import pow2_scale


@pytest.mark.parametrize("shape, axis", [
    ((7,), None),
    ((4, 5, 3), None),
    ((9, 3), 1),
    ((9, 3), -1),
    ((6, 24, 3), (1, 2)),
])
def test_pow2_scale_is_exact_and_scale_free(shape, axis):
    # x * 2^k gives the scaled bits of x and the exponent e + k, for k
    # across the exponent range, one k per slice where an axis is given
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
        scaled, e = pow2_scale(x, axis=axis)
        top = np.abs(scaled).max(axis=axis)
        assert np.all((0.5 <= top) & (top < 1.0))
        assert np.shape(e) == np.shape(top)
        k = rng.integers(-990, 990, size=np.shape(e))
        kx = k if axis is None else np.expand_dims(k, axis)
        scaled_k, e_k = pow2_scale(np.ldexp(x, kx), axis=axis)
        assert scaled_k.tobytes() == scaled.tobytes()
        np.testing.assert_array_equal(e_k, e + k)
        back = e if axis is None else np.expand_dims(e, axis)
        np.testing.assert_array_equal(np.ldexp(scaled, back), x)


def test_pow2_scale_leaves_an_all_zero_slice_at_exponent_zero():
    x = np.array([[0.0, 0.0, 0.0], [3.0, -0.25, 0.0], [-0.0, 0.0, 0.0]])
    scaled, e = pow2_scale(x, axis=1)
    np.testing.assert_array_equal(e, [0, 2, 0])
    np.testing.assert_array_equal(scaled, [[0.0, 0.0, 0.0], [0.75, -0.0625, 0.0],
                                           [0.0, 0.0, 0.0]])
    scaled, e = pow2_scale(np.zeros((2, 4, 3)), axis=(1, 2))
    np.testing.assert_array_equal(e, [0, 0])
    assert not scaled.any()
    assert pow2_scale(np.zeros(5))[1] == 0
