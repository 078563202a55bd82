"""scalar-api: seeded single calls into the scalar functions that `gegenfun eval`
and `gegenfun classify` expose.

Every numeric result is checked against an mpmath reference computed before
timing; classifier results are checked against the tag each input was built
to have.  This workload never touches the series layer, so it is the control
on which a series-layer change should move nothing.
"""

from __future__ import annotations

import math
import random

import mpmath
from gegenfun import genfun, gegenbauer, hypergeometric, legendre, poisson

from workloads import GateError, Request, Workload

# Mixed deviation |a - b| / max(1, |a|, |b|) allowed against mpmath.
SCALAR_TOL = 1e-10
PER_KIND = 400  # requests of each kind in one pass
REF_DPS = 30

# Fractional parts that put a degree, order or weight into a special family.
_SPECIAL_FRACS = (0.0, 1 / 6, 1 / 4, 1 / 3, 1 / 2, 2 / 3, 3 / 4, 5 / 6, 1.0)


def _generic_frac(rng: random.Random) -> float:
    """A fractional part at least 0.02 away from every special one."""
    while True:
        f = rng.uniform(0.0, 1.0)
        if all(abs(f - s) > 0.02 for s in _SPECIAL_FRACS):
            return f


def _mixed_dev(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _bilinear_ref(lam: float, theta: float, phi: float, t: float, weighted: bool) -> float:
    """sum_n (n!/(2 lam)_n) [(lam+n)/lam] C_n(cos theta) C_n(cos phi) t**n in mpmath."""
    lam_, t_ = mpmath.mpf(lam), mpmath.mpf(t)
    x, y = mpmath.cos(mpmath.mpf(theta)), mpmath.cos(mpmath.mpf(phi))
    cx_prev, cx = mpmath.mpf(0), mpmath.mpf(1)
    cy_prev, cy = mpmath.mpf(0), mpmath.mpf(1)
    w, tn, acc = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0)
    small = 0
    for n in range(2000):
        term = w * cx * cy * tn * ((lam_ + n) / lam_ if weighted else 1)
        acc += term
        small = small + 1 if abs(term) < mpmath.mpf(10) ** (-REF_DPS + 2) * max(1, abs(acc)) else 0
        if small >= 4:
            return float(acc)
        # n C_n = 2(n+lam-1) x C_{n-1} - (n+2lam-2) C_{n-2}, here for C_{n+1}
        cx_prev, cx = cx, (2 * (n + lam_) * x * cx - (n + 2 * lam_ - 1) * cx_prev) / (n + 1)
        cy_prev, cy = cy, (2 * (n + lam_) * y * cy - (n + 2 * lam_ - 1) * cy_prev) / (n + 1)
        w *= (n + 1) / (2 * lam_ + n)
        tn *= t_
    raise RuntimeError("bilinear reference did not converge")


def _kernel_point(rng: random.Random, lam: float, negative_t: bool = False):
    """(theta, phi, t) whose two kernel arguments stay inside (-inf, 0.9)."""
    while True:
        theta, phi = rng.uniform(0.3, 2.8), rng.uniform(0.3, 2.8)
        t = rng.uniform(0.03, 0.18) * (-1.0 if negative_t or rng.random() < 0.5 else 1.0)
        d1 = 1.0 - 2.0 * t * math.cos(theta - phi) + t * t
        d2 = 1.0 - 2.0 * t * math.cos(theta) * math.cos(phi) + t * t
        ss = math.sin(theta) * math.sin(phi)
        z_tilde, z = -4.0 * t * ss / d1, 4.0 * t * t * ss * ss / (d2 * d2)
        if z_tilde < 0.9 and z < 0.9 and (not negative_t or z_tilde > 1e-3):
            return theta, phi, t


class ScalarWorkload(Workload):
    tol = SCALAR_TOL

    def __init__(self, seed: int, references: bool = True):
        rng = random.Random(f"scalar-api:{seed}")
        mpmath.mp.dps = REF_DPS
        self.references = references
        makers = (
            self._legendre_oracle,
            self._legendre_closed,
            self._kernel,
            self._companion,
            self._quarter_kernel,
            self._elliptic_k,
            self._elliptic_e,
            self._gegenbauer,
            self._gauss_2f1,
            self._classify,
            self._algebraicity,
        )
        self.requests: list[Request] = []
        for make in makers:
            for j in range(PER_KIND):
                self.requests.append(make(rng, j))

    # -- request builders ----------------------------------------------------------

    def _numeric(self, label: str, call, reference) -> Request:
        """A request checked against the value of the thunk `reference`."""
        ref = complex(reference()) if self.references else None

        def gate(value):
            if ref is None:
                raise GateError(f"{label}: built without a reference")
            dev = _mixed_dev(complex(value), ref)
            if not dev <= SCALAR_TOL:
                raise GateError(f"{label}: {value!r} against reference {ref!r} (deviation {dev:.3e})")
            return [(dev, True)]

        return Request(label, call, gate, 1)

    @staticmethod
    def _tagged(label: str, call, expected, read) -> Request:
        def gate(value):
            got = read(value)
            if got != expected:
                raise GateError(f"{label}: got {got!r}, built to be {expected!r}")
            return [(None, True)]

        return Request(label, call, gate, 1)

    def _legendre_oracle(self, rng, j):
        nu, mu = rng.uniform(-0.9, 1.4), rng.uniform(-0.9, 0.45)
        if j % 2 == 0:
            z, branch, kind = rng.uniform(1.15, 2.8), legendre.Branch.LEGENDRE, 3
        else:
            z, branch, kind = rng.uniform(-0.85, 0.85), legendre.Branch.FERRERS, 2
        return self._numeric(
            f"legendre_p_hypergeometric({nu!r}, {mu!r}, {z!r}, {branch.value})",
            lambda: legendre.legendre_p_hypergeometric(nu, mu, z, branch),
            lambda: mpmath.legenp(nu, mu, z, type=kind),
        )

    def _legendre_closed(self, rng, j):
        L, F = legendre.Branch.LEGENDRE, legendre.Branch.FERRERS
        form = j % 10
        sign = 1 if (j // 10) % 2 == 0 else -1
        if form == 0:
            xi = rng.uniform(0.2, 2.0)
            args, name, ref = (sign, xi, L), "octahedral_p", (-1 / 6, sign / 4, math.cosh(xi), 3)
        elif form == 1:
            th = rng.uniform(0.3, 2.8)
            args, name, ref = (sign, th, F), "octahedral_p", (-1 / 6, sign / 4, math.cos(th), 2)
        elif form == 2:
            xi = rng.uniform(0.3, 2.0)
            args, name, ref = (sign, xi, L), "tetrahedral_p", (-0.25, sign / 3, 1 / math.tanh(xi), 3)
        elif form == 3:
            xi = rng.uniform(-1.5, 1.5)
            args, name, ref = (sign, xi, F), "tetrahedral_p", (-0.25, sign / 3, math.tanh(xi), 2)
        elif form == 4:
            mu, xi = rng.uniform(-0.9, 0.45), rng.uniform(0.3, 2.0)
            args, name, ref = (mu, xi, L), "cyclic_case", (0.0, mu, 1 / math.tanh(xi), 3)
        elif form == 5:
            mu, xi = rng.uniform(-0.9, 0.45), rng.uniform(-1.5, 1.5)
            args, name, ref = (mu, xi, F), "cyclic_case", (0.0, mu, math.tanh(xi), 2)
        elif form == 6:
            nu, xi = rng.uniform(-0.9, 1.4), rng.uniform(0.2, 2.0)
            args, name, ref = (nu, xi, L), "dihedral_case", (nu, 0.5, math.cosh(xi), 3)
        elif form == 7:
            nu, th = rng.uniform(-0.9, 1.4), rng.uniform(0.3, 2.8)
            args, name, ref = (nu, th, F), "dihedral_case", (nu, 0.5, math.cos(th), 2)
        elif form == 8:
            mu, n, z = rng.uniform(-0.9, 0.45), rng.randint(0, 4), rng.uniform(1.2, 2.8)
            args, name, ref = (mu, n, z, L), "reducible_case", (n - mu, mu, z, 3)
        else:
            mu, n, z = rng.uniform(-0.9, 0.45), rng.randint(0, 4), rng.uniform(-0.8, 0.8)
            args, name, ref = (mu, n, z, F), "reducible_case", (n - mu, mu, z, 2)
        nu_r, mu_r, z_r, kind = ref
        return self._numeric(  # looked up by name at call time, so a traced run sees the call
            f"{name}{args!r}",
            lambda: getattr(legendre, name)(*args),
            lambda: mpmath.legenp(nu_r, mu_r, z_r, type=kind),
        )

    def _kernel_request(self, rng, j, weighted: bool):
        lam = rng.uniform(0.15, 1.5)
        theta, phi, t = _kernel_point(rng, lam)
        variant = "tilde" if j % 2 == 0 else "z"
        name = "poisson_kernel" if weighted else "companion_kernel"
        return self._numeric(
            f"{name}(KernelArgs({lam!r}, {theta!r}, {phi!r}, {t!r}), {variant!r})",
            lambda: getattr(poisson, name)(poisson.KernelArgs(lam, theta, phi, t), variant),
            lambda: _bilinear_ref(lam, theta, phi, t, weighted),
        )

    def _kernel(self, rng, j):
        return self._kernel_request(rng, j, True)

    def _companion(self, rng, j):
        return self._kernel_request(rng, j, False)

    def _quarter_kernel(self, rng, j):
        theta, phi, t = _kernel_point(rng, 0.25, negative_t=True)
        return self._numeric(
            f"quarter_kernel_elliptic(KernelArgs(0.25, {theta!r}, {phi!r}, {t!r}))",
            lambda: poisson.quarter_kernel_elliptic(poisson.KernelArgs(0.25, theta, phi, t)),
            lambda: _bilinear_ref(0.25, theta, phi, t, True),
        )

    def _elliptic_k(self, rng, j):
        m = rng.uniform(0.0, 0.97)
        return self._numeric(f"elliptic_k({m!r})", lambda: poisson.elliptic_k(m), lambda: mpmath.ellipk(m))

    def _elliptic_e(self, rng, j):
        m = rng.uniform(0.0, 0.97)
        return self._numeric(f"elliptic_e({m!r})", lambda: poisson.elliptic_e(m), lambda: mpmath.ellipe(m))

    def _gegenbauer(self, rng, j):
        lam, n, x = rng.uniform(0.1, 2.5), rng.randint(2, 24), rng.uniform(-1.4, 1.4)
        return self._numeric(
            f"gegenbauer_recurrence({lam!r}, {n}, {x!r})[{n}]",
            lambda: gegenbauer.gegenbauer_recurrence(lam, n, x)[n],
            lambda: mpmath.gegenbauer(n, lam, x),
        )

    def _gauss_2f1(self, rng, j):
        a = -float(rng.randint(1, 8)) if j % 4 == 0 else rng.uniform(-1.5, 2.0)
        b, c, z = rng.uniform(-1.5, 2.0), rng.uniform(0.3, 2.5), rng.uniform(-0.9, 0.85)
        return self._numeric(
            f"gauss_2f1_scalar({a!r}, {b!r}, {c!r}, {z!r})",
            lambda: hypergeometric.gauss_2f1_scalar(a, b, c, z),
            lambda: mpmath.hyp2f1(a, b, c, z),
        )

    def _classify(self, rng, j):
        family = j % 7
        n, m = rng.randint(-2, 2), rng.randint(-1, 0)
        pm = lambda: rng.choice((1.0, -1.0))  # noqa: E731
        if family == 0:
            mu = m + _generic_frac(rng)
            nu, tag = rng.randint(0, 4) - mu, "Reducible"
        elif family == 1:
            nu, mu, tag = float(n), m + _generic_frac(rng), "QuasiCyclic"
        elif family == 2:
            nu, mu, tag = n + _generic_frac(rng), m + 0.5, "QuasiDihedral"
        elif family == 3:
            nu, mu, tag = n + pm() / 6, m + pm() / 4, "Octahedral"
        elif family == 4:
            nu, mu, tag = n + pm() / 4, m + pm() / 3, "TetrahedralA"
        elif family == 5:
            nu, mu, tag = n + pm() / 6, m + pm() / 3, "TetrahedralB"
        else:
            while True:
                nu, mu = n + _generic_frac(rng), m + _generic_frac(rng)
                fs, fd = (nu + mu) % 1.0, (mu - nu) % 1.0
                if min(fs, 1 - fs, fd, 1 - fd) > 0.02:
                    break
            tag = "Generic"
        return self._tagged(
            f"classify({nu!r}, {mu!r})",
            lambda: legendre.classify(nu, mu),
            (tag,),
            lambda res: tuple(t.value for t in res.matches),
        )

    def _algebraicity(self, rng, j):
        case = j % 5
        n, k = rng.randint(0, 2), rng.randint(-1, 1)
        pm = lambda: rng.choice((1.0, -1.0))  # noqa: E731
        if case == 0:
            lam = n + 0.25 * pm() if n else 0.25
            gamma, expected = lam + k + pm() / 3, (True, 1)
        elif case == 1:
            lam = n + pm() / 6 if n else 1 / 6
            gamma, expected = lam + k + pm() / 3, (True, 2)
        elif case == 2:
            lam = n + pm() / 6 if n else 1 / 6
            gamma, expected = lam + k + pm() / 4, (True, 2)
        elif case == 3:  # quarter weight with a quarter difference: neither clause
            lam = n + 0.25 * pm() if n else 0.25
            gamma, expected = lam + k + pm() / 4, (False, None)
        else:
            lam = n + _generic_frac(rng)
            gamma, expected = lam + k + rng.uniform(0.0, 1.0), (False, None)
        return self._tagged(
            f"algebraicity({lam!r}, {gamma!r})",
            lambda: genfun.algebraicity(lam, gamma),
            expected,
            lambda res: (res.algebraic, res.clause),
        )
