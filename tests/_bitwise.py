"""Bitwise comparison of series, shared by the tests of the fast paths.

Equal values with equal zero signs in each part.  tobytes() is not used:
long double coefficients carry padding bytes of undefined content.
"""

import numpy as np


def assert_bitwise(got, ref):
    g, r = got.coeffs, ref.coeffs
    assert g.dtype == r.dtype and g.shape == r.shape
    assert np.array_equal(g, r)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(g)), np.signbit(part(r)))
