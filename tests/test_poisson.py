"""Elliptic integrals, bilinear kernels, and the quarter-parameter elliptic
identity."""

import math

import pytest
from _oracles import bilinear_tail_bound

from gegenfun.errors import DomainMismatch, OutOfRange
from gegenfun.hypergeometric import gauss_2f1_scalar
from gegenfun.poisson import (
    KernelArgs,
    bilinear_coeffs,
    bilinear_partial_sum,
    companion_kernel,
    elliptic_e,
    elliptic_k,
    elliptic_quarter_lhs,
    elliptic_quarter_rhs,
    kernel_arguments,
    operator_relation_check,
    poisson_kernel,
    quarter_kernel_elliptic,
)

KERNEL_POINTS = ((1.0, 1.7, 0.15), (1.2, 2.0, -0.2), (0.8, 0.8, 0.1), (1.4, 1.4, -0.15))


def test_elliptic_trivials():
    assert abs(elliptic_k(0.0) - math.pi / 2) <= 1e-15
    assert abs(elliptic_e(0.0) - math.pi / 2) <= 1e-15
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(OutOfRange):
            elliptic_k(bad)
        with pytest.raises(OutOfRange):
            elliptic_e(bad)


def test_elliptic_k_against_2f1():
    for m in (0.05, 0.3, 0.5, 0.8):
        a = 2.0 / math.pi * elliptic_k(m)
        b = gauss_2f1_scalar(0.5, 0.5, 1.0, m).real
        assert abs(a - b) <= 1e-10 * abs(b)


def test_legendre_relation():
    for m in (0.1, 0.3, 0.5):
        val = (
            elliptic_e(m) * elliptic_k(1 - m)
            + elliptic_e(1 - m) * elliptic_k(m)
            - elliptic_k(m) * elliptic_k(1 - m)
        )
        assert abs(val - math.pi / 2) <= 1e-10


def test_kernel_args_validation():
    with pytest.raises(OutOfRange):
        KernelArgs(0.25, 0.0, 1.0, 0.1)
    with pytest.raises(OutOfRange):
        KernelArgs(0.25, 1.0, math.pi, 0.1)
    with pytest.raises(OutOfRange):
        KernelArgs(0.25, 1.0, 1.0, 1.0)


def test_kernel_arguments_examples():
    zt, z = kernel_arguments(KernelArgs(0.25, 1.0, 1.7, 0.0))
    assert zt == 0.0 and z == 0.0
    # theta = phi = pi/2, t = 0.2: -0.8/(1 - 0.4 + 0.04)
    zt, _ = kernel_arguments(KernelArgs(0.25, math.pi / 2, math.pi / 2, 0.2))
    assert abs(zt - (-0.8 / 0.64)) <= 1e-14
    for lam, th, ph, t in ((0.25,) + p for p in KERNEL_POINTS):
        zt, z = kernel_arguments(KernelArgs(lam, th, ph, t))
        assert abs((zt / (2.0 - zt)) ** 2 - z) <= 1e-12 * max(1.0, abs(z))


def test_kernels_match_partial_sums_and_variants():
    for lam in (0.25, 1.0 / 6.0):
        for th, ph, t in KERNEL_POINTS:
            args = KernelArgs(lam, th, ph, t)
            for closed, weighted in ((poisson_kernel, True), (companion_kernel, False)):
                v_tilde, v_z = closed(args, "tilde"), closed(args, "z")
                assert abs(v_tilde - v_z) <= 1e-9 * max(1.0, abs(v_tilde))
                coeffs = bilinear_coeffs(lam, th, ph, 48, weighted)
                psum = bilinear_partial_sum(lam, th, ph, t, 48, weighted)
                bound = bilinear_tail_bound(coeffs, t)
                assert abs(v_tilde - psum) <= bound


def test_kernel_partial_sums_bracket():
    lam, th, ph, t = 0.25, 1.0, 1.7, 0.15
    args = KernelArgs(lam, th, ph, t)
    v = poisson_kernel(args, "tilde")
    for n in (48, 56):
        coeffs = bilinear_coeffs(lam, th, ph, n, True)
        psum = bilinear_partial_sum(lam, th, ph, t, n, True)
        assert abs(v - psum) <= bilinear_tail_bound(coeffs, t)


def test_kernel_trivial_t0_and_symmetry():
    args = KernelArgs(0.25, 1.0, 1.7, 0.0)
    assert poisson_kernel(args, "tilde") == 1.0
    assert companion_kernel(args, "tilde") == 1.0
    a = poisson_kernel(KernelArgs(0.25, 1.0, 1.7, 0.15), "tilde")
    b = poisson_kernel(KernelArgs(0.25, 1.7, 1.0, 0.15), "tilde")
    assert abs(a - b) <= 1e-12 * abs(a)


def test_operator_relation():
    for lam in (0.25, 1.0 / 6.0):
        assert operator_relation_check(lam, 1.0, 1.7, 12) <= 1e-9


def test_elliptic_quarter_identity():
    for w in (1e-6, 0.1, 0.25, 0.49):
        lhs, rhs = elliptic_quarter_lhs(w), elliptic_quarter_rhs(w)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)
    # w -> 0 limit equals 2 K(1/2), the classical closed value
    assert abs(elliptic_quarter_rhs(1e-10) - 2 * elliptic_k(0.5)) <= 1e-8
    with pytest.raises(OutOfRange):
        elliptic_quarter_rhs(1.2)


def test_quarter_kernel():
    args = KernelArgs(0.25, math.pi / 2, math.pi / 2, -0.15)
    a = quarter_kernel_elliptic(args)
    b = poisson_kernel(args, "tilde")
    assert abs(a - b) <= 1e-12 * abs(b)
    psum = bilinear_partial_sum(0.25, math.pi / 2, math.pi / 2, -0.15, 48, True)
    assert abs(a - psum) <= 1e-12 * abs(psum)
    assert quarter_kernel_elliptic(KernelArgs(0.25, 1.0, 1.7, 0.0)) == 1.0
    with pytest.raises(DomainMismatch):
        quarter_kernel_elliptic(KernelArgs(0.25, 1.0, 1.7, 0.15))  # negative argument
    with pytest.raises(DomainMismatch):
        quarter_kernel_elliptic(KernelArgs(1.0 / 6.0, 1.0, 1.7, -0.15))
