"""Acceptance suite: the exit criteria of the build, one test per criterion.

Every check is exact-symbolic or runs at its stated numeric tolerance, and
each test prints a single PASS/FAIL line (visible with pytest -s and in
failure output).
"""

import math
import time

from fracquat import (
    CARTESIAN,
    CYLINDRICAL,
    SPHERICAL,
    canon,
    cos_alpha,
    curl_alpha,
    d_alpha,
    d_alpha_gamma,
    delta0,
    div_alpha,
    equal,
    grad_alpha,
    helmholtz_component_system,
    helmholtz_residual,
    laplacian,
    ml_exp,
    perturbed_mt,
    render_canonical,
    scalar_field,
    sin_alpha,
    vector_field,
    verify_identity,
)
from fracquat.derivative import jpoly_coefficients
from fracquat.frames import abstract_field
from fracquat.quatops import FORMAL

from oracles import cos_alpha_coeffs, limit_quotient_at_zero, ml_exp_coeffs, sin_alpha_coeffs

CYL, SPH = CYLINDRICAL, SPHERICAL
ALL_FRAMES = ("cartesian", "cylindrical", "spherical")
CURVED = ("cylindrical", "spherical")


def check(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_mt_squared_factorization():
    start = time.perf_counter()
    reports = [verify_identity("mt_squared", f) for f in ALL_FRAMES]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and all(
        all(res.is_zero() for res in r.residuals) for r in reports
    )
    check(1, f"mt squared = -laplacian in all frames ({elapsed:.2f}s)", ok and elapsed < 10)


def test_criterion_2_bitsadze_factorization():
    start = time.perf_counter()
    reports = [verify_identity("bitsadze_factorization", f) for f in CURVED]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports)
    check(2, f"left/right factorization of the Bitsadze operator ({elapsed:.2f}s)",
          ok and elapsed < 10)


def test_criterion_3_helmholtz_factorization():
    start = time.perf_counter()
    reports = [verify_identity("helmholtz_factorization", f) for f in ALL_FRAMES]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports)
    check(3, f"-(D-lam)(D+lam) = laplacian + lam^2, lam formal ({elapsed:.2f}s)",
          ok and elapsed < 10)


def test_criterion_4_classical_identities_survive():
    start = time.perf_counter()
    ok = True
    for name in ("curl_grad", "div_curl", "div_grad_delta0"):
        for frame in CURVED:
            ok = ok and verify_identity(name, frame).passed
    elapsed = time.perf_counter() - start
    check(4, f"curl grad = 0, div curl = 0, div grad = delta0 ({elapsed:.2f}s)",
          ok and elapsed < 5)


def _delta0_text(frame, k):
    if frame is CYL:
        return (
            f"d(f{k},r,r) + P(r,-2)*d(f{k},theta,theta)"
            f" + P(r,-1)*d(f{k},r) + d(f{k},z,z)"
        )
    return (
        f"d(f{k},r,r) + 2*P(r,-1)*d(f{k},r) + P(r,-2)*d(f{k},theta,theta)"
        f" + cosa(theta)*P(r,-2)*sina(theta)^-1*d(f{k},theta)"
        f" + P(r,-2)*sina(theta)^-2*d(f{k},psi,psi)"
    )


def test_criterion_5_component_system_fixtures():
    cyl_fixtures = (
        _delta0_text(CYL, 0) + " + lam^2*f0",
        _delta0_text(CYL, 1) + " - 2*P(r,-2)*d(f2,theta) + (lam^2 - P(r,-2))*f1",
        _delta0_text(CYL, 2) + " + 2*P(r,-2)*d(f1,theta) + (lam^2 - P(r,-2))*f2",
        _delta0_text(CYL, 3) + " + lam^2*f3",
    )
    sph_fixtures = (
        _delta0_text(SPH, 0) + " + lam^2*f0",
        _delta0_text(SPH, 1)
        + " - 2*P(r,-2)*d(f2,theta) - 2*cosa(theta)*P(r,-2)*sina(theta)^-1*f2"
        " - 2*P(r,-2)*sina(theta)^-1*d(f3,psi) + (lam^2 - 2*P(r,-2))*f1",
        _delta0_text(SPH, 2)
        + " + 2*P(r,-2)*d(f1,theta)"
        " - 2*cosa(theta)*P(r,-2)*sina(theta)^-2*d(f3,psi)"
        " + (lam^2 - P(r,-2)*sina(theta)^-2)*f2",
        _delta0_text(SPH, 3)
        + " + 2*P(r,-2)*sina(theta)^-1*d(f1,psi)"
        " + 2*cosa(theta)*P(r,-2)*sina(theta)^-2*d(f2,psi)"
        " + (lam^2 - P(r,-2)*sina(theta)^-2)*f3",
    )
    ok = True
    for frame, fixtures in ((CYL, cyl_fixtures), (SPH, sph_fixtures)):
        eqs = helmholtz_component_system(frame)
        for eq, text in zip(eqs, fixtures):
            ok = ok and eq == canon(text, frame)
        scalar_form = delta0(canon("f0", frame), frame) + canon("lam^2*f0", frame)
        ok = ok and equal(eqs[0], scalar_form)
    check(5, "Helmholtz component systems match the hand-encoded fixtures termwise", ok)


# classical vector calculus formulas, hand-encoded; at alpha=1 the fractal
# generators are r^n, sin, cos, so these strings read classically
CLASSICAL = {
    "cylindrical": {
        "grad": ("d(f0,r)", "P(r,-1)*d(f0,theta)", "d(f0,z)"),
        "div": "d(f1,r) + P(r,-1)*f1 + P(r,-1)*d(f2,theta) + d(f3,z)",
        "curl": (
            "P(r,-1)*d(f3,theta) - d(f2,z)",
            "d(f1,z) - d(f3,r)",
            "d(f2,r) + P(r,-1)*f2 - P(r,-1)*d(f1,theta)",
        ),
        "delta0": "d(f0,r,r) + P(r,-1)*d(f0,r) + P(r,-2)*d(f0,theta,theta) + d(f0,z,z)",
        "veclap": (
            "d(f1,r,r) + P(r,-1)*d(f1,r) + P(r,-2)*d(f1,theta,theta) + d(f1,z,z)"
            " - P(r,-2)*f1 - 2*P(r,-2)*d(f2,theta)",
            "d(f2,r,r) + P(r,-1)*d(f2,r) + P(r,-2)*d(f2,theta,theta) + d(f2,z,z)"
            " - P(r,-2)*f2 + 2*P(r,-2)*d(f1,theta)",
            "d(f3,r,r) + P(r,-1)*d(f3,r) + P(r,-2)*d(f3,theta,theta) + d(f3,z,z)",
        ),
    },
    "spherical": {
        "grad": (
            "d(f0,r)",
            "P(r,-1)*d(f0,theta)",
            "P(r,-1)*sina(theta)^-1*d(f0,psi)",
        ),
        "div": "d(f1,r) + 2*P(r,-1)*f1 + P(r,-1)*d(f2,theta)"
        " + P(r,-1)*sina(theta)^-1*cosa(theta)*f2"
        " + P(r,-1)*sina(theta)^-1*d(f3,psi)",
        "curl": (
            "P(r,-1)*d(f3,theta) + P(r,-1)*sina(theta)^-1*cosa(theta)*f3"
            " - P(r,-1)*sina(theta)^-1*d(f2,psi)",
            "P(r,-1)*sina(theta)^-1*d(f1,psi) - d(f3,r) - P(r,-1)*f3",
            "d(f2,r) + P(r,-1)*f2 - P(r,-1)*d(f1,theta)",
        ),
        "delta0": "d(f0,r,r) + 2*P(r,-1)*d(f0,r) + P(r,-2)*d(f0,theta,theta)"
        " + P(r,-2)*sina(theta)^-1*cosa(theta)*d(f0,theta)"
        " + P(r,-2)*sina(theta)^-2*d(f0,psi,psi)",
        "veclap": (
            "d(f1,r,r) + 2*P(r,-1)*d(f1,r) + P(r,-2)*d(f1,theta,theta)"
            " + P(r,-2)*sina(theta)^-1*cosa(theta)*d(f1,theta)"
            " + P(r,-2)*sina(theta)^-2*d(f1,psi,psi)"
            " - 2*P(r,-2)*f1 - 2*P(r,-2)*d(f2,theta)"
            " - 2*P(r,-2)*sina(theta)^-1*cosa(theta)*f2"
            " - 2*P(r,-2)*sina(theta)^-1*d(f3,psi)",
            "d(f2,r,r) + 2*P(r,-1)*d(f2,r) + P(r,-2)*d(f2,theta,theta)"
            " + P(r,-2)*sina(theta)^-1*cosa(theta)*d(f2,theta)"
            " + P(r,-2)*sina(theta)^-2*d(f2,psi,psi)"
            " - P(r,-2)*sina(theta)^-2*f2 + 2*P(r,-2)*d(f1,theta)"
            " - 2*P(r,-2)*sina(theta)^-2*cosa(theta)*d(f3,psi)",
            "d(f3,r,r) + 2*P(r,-1)*d(f3,r) + P(r,-2)*d(f3,theta,theta)"
            " + P(r,-2)*sina(theta)^-1*cosa(theta)*d(f3,theta)"
            " + P(r,-2)*sina(theta)^-2*d(f3,psi,psi)"
            " - P(r,-2)*sina(theta)^-2*f3 + 2*P(r,-2)*sina(theta)^-1*d(f1,psi)"
            " + 2*P(r,-2)*sina(theta)^-2*cosa(theta)*d(f2,psi)",
        ),
    },
}


def test_criterion_6_alpha_one_classical_oracle():
    ok = True
    for frame in (CYL, SPH):
        fixtures = CLASSICAL[frame.name]
        f0 = abstract_field(frame).f0
        fvec = vector_field(frame, *abstract_field(frame).vector_components)
        grad_out = grad_alpha(f0, frame)
        for component, text in zip(grad_out.vector_components, fixtures["grad"]):
            ok = ok and component == canon(text, frame)
        ok = ok and div_alpha(fvec) == canon(fixtures["div"], frame)
        curl_out = curl_alpha(fvec)
        for component, text in zip(curl_out.vector_components, fixtures["curl"]):
            ok = ok and component == canon(text, frame)
        ok = ok and delta0(f0, frame) == canon(fixtures["delta0"], frame)
        lap = laplacian(abstract_field(frame))
        for component, text in zip(lap.vector_components, fixtures["veclap"]):
            ok = ok and component == canon(text, frame)
    check(6, "alpha=1 reduction: operators equal the classical formula set exactly", ok)


def test_criterion_7_series_numerics():
    ok = abs(ml_exp(1.0, 1.0) - math.e) <= 1e-12
    ok = ok and abs(ml_exp(0.5, 1.0, 1e-9) - math.e * math.erfc(-1)) <= 1e-9
    u = -5.0
    while u <= 5.0:
        ok = ok and abs(sin_alpha(1.0, u) - math.sin(u)) <= 1e-12
        ok = ok and abs(cos_alpha(1.0, u) - math.cos(u)) <= 1e-12
        u += 0.25
    check(7, "series numerics: exp/erfc cross-checks and classical trig grid", ok)


def test_criterion_8_derivative_oracles():
    ok = True
    for build in (ml_exp_coeffs, sin_alpha_coeffs, cos_alpha_coeffs):
        series = build(9)
        text = " + ".join(f"({c})*P(x,{k})" for k, c in enumerate(series) if c)
        coeffs = jpoly_coefficients(d_alpha_gamma(canon(text, None), "x"), "x")
        for k, c in enumerate(series[1:]):
            got = complex(coeffs[k].constant_coefficient()) if k < len(coeffs) else 0j
            ok = ok and got == c
    estimate, _, converged = limit_quotient_at_zero(
        lambda x: x**0.5, 0.5, [10.0**-k for k in range(3, 13)]
    )
    ok = ok and converged and abs(estimate - 0.8862269254) <= 1e-10
    check(8, "gamma-mode derivative matches the series shift; limit quotient hits "
             "Gamma(3/2)", ok)


def test_criterion_9_inconsistency_witness():
    """The product rule and the Gamma-shift power rule conflict on (x^alpha)^2."""
    e = canon("P(x,1)^2", None)
    leibniz = d_alpha(e, "x")          # 2 x^alpha
    shift = d_alpha_gamma(e, "x")      # J_2 -> J_1
    difference = leibniz - shift
    ok = not difference.is_zero() and equal(difference, canon("P(x,1)", None))
    # numerically: Leibniz with D[x^a] = Gamma(1+a) gives 2*Gamma(1+a)^2 on the
    # J-normalized scale while the shift gives Gamma(1+2a); they disagree at
    # alpha=1/2 (pi/2 vs 1) and agree classically
    a = 0.5
    ok = ok and abs(2 * math.gamma(1 + a) ** 2 - math.gamma(1 + 2 * a)) > 0.5
    ok = ok and abs(2 * math.gamma(2.0) ** 2 - math.gamma(3.0)) < 1e-12
    check(9, "documented product-rule vs Gamma-shift conflict is exhibited", ok)


def test_criterion_10_null_solution():
    f = scalar_field(CYL, canon("Ea(1i*lam, z)", CYL))
    out = helmholtz_residual(f)
    ok = out.f0.is_zero() and out.is_zero()
    check(10, "f0 = Ea(i*lam, z) solves the scalar Helmholtz equation symbolically", ok)


def _bessel(n, terms=7):
    """sum_{k<terms} (-1)^k (lam/2)^(2k+n) P(r,2k+n) / (k! (k+n)!) * Ea(n*1i, theta):
    the truncated fractal Bessel series J_n(lam X_r) exp(i n X_theta), and its last term."""
    angle = f"*Ea({n}i, theta)" if n else ""
    series = [
        (-1) ** k * canon(
            f"1/{2 ** (2 * k + n) * math.factorial(k) * math.factorial(k + n)}"
            f"*lam^{2 * k + n}*P(r,{2 * k + n}){angle}",
            CYL,
        )
        for k in range(terms)
    ]
    return sum(series[1:], series[0]), series[-1]


def test_criterion_11_helmholtz_examples():
    # spherical: the outgoing wave e^{i lam r}/r solves Helmholtz, and its MT
    # partner g = (D - lam) h is annihilated by D + lam
    h = scalar_field(SPH, canon("P(r,-1)*Ea(1i*lam, r)", SPH))
    ok = helmholtz_residual(h).is_zero()
    g = perturbed_mt(h, FORMAL, -1)
    ok = ok and [render_canonical(c) for c in g.components] == [
        "-lam*P(r,-1)*Ea(1i*lam, r)",
        "-P(r,-2)*Ea(1i*lam, r) + 1i*lam*P(r,-1)*Ea(1i*lam, r)",
        "0",
        "0",
    ]
    ok = ok and perturbed_mt(g, FORMAL, 1).is_zero()
    # negative control: without the 1/r factor the residual is not zero
    out = helmholtz_residual(scalar_field(SPH, canon("Ea(1i*lam, r)", SPH)))
    ok = ok and out.f0 == canon("2i*lam*P(r,-1)*Ea(1i*lam, r)", SPH)
    ok = ok and all(c.is_zero() for c in out.vector_components)
    # cylindrical: a truncated Bessel series leaves exactly lam^2 times its
    # last term, which exercises the r r, r and theta theta rows of Delta0
    expected = (
        "1/2123366400*lam^14*P(r,12)",
        "1/29727129600*lam^15*P(r,13)*Ea(1i, theta)",
        "1/475634073600*lam^16*P(r,14)*Ea(2i, theta)",
    )
    for n, text in enumerate(expected):
        series, last = _bessel(n)
        out = helmholtz_residual(scalar_field(CYL, series))
        ok = ok and out.f0 == canon(text, CYL) == canon("lam^2", CYL) * last
        ok = ok and all(c.is_zero() for c in out.vector_components)
    # cartesian: a plane wave with unit wave vector (3/5, 4/5, 0)
    wave = canon("Ea(3/5*1i*lam, x)*Ea(4/5*1i*lam, y)", CARTESIAN)
    ok = ok and helmholtz_residual(scalar_field(CARTESIAN, wave)).is_zero()
    check(11, "Helmholtz examples: spherical wave and MT partner, cylindrical Bessel "
              "series, cartesian plane wave", ok)
