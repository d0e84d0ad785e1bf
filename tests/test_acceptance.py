"""Acceptance suite: one test per shipped guarantee, at stated tolerances.

Each test prints a single summary line (visible under -s) with the measured
quantities and its wall-clock time, and asserts both the numerical criterion
and the runtime budget.
"""

import math
import time

import numpy as np
import pytest

from twistnorm import (BlockSeq, StarNorm, build_phitilde, build_space,
                       certify, convex_envelope, equivalence_certificate,
                       identity_theta, kalton_peck_map, kp_theoretical_bound,
                       lambda_norm, luxemburg_norm_batch, match_lambda_norm,
                       mollify, power, prefix_substitution_check,
                       quasi_linearity_constant, quasiconvexity_constant,
                       radial_power, select_alpha, suff_criterion_check,
                       triangle_violation)

SEED = 20240501
SQRT2 = math.sqrt(2.0)


class Clock:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def report(num, name, budget, clock, detail):
    print(f"criterion {num:02d} {name}: PASS "
          f"({detail}; {clock.elapsed:.2f}s <= {budget:.0f}s)")


def random_rows(rng, n, dim, max_support=8):
    """Rows with support <= max_support, log-uniform magnitudes, signs."""
    rows = np.zeros((n, dim))
    sizes = rng.integers(1, max_support + 1, size=n)
    for i in range(n):
        cols = rng.choice(dim, size=sizes[i], replace=False)
        mags = 10.0 ** (-4.0 + 6.0 * rng.random(sizes[i]))
        signs = np.where(rng.random(sizes[i]) < 0.5, -1.0, 1.0)
        rows[i, cols] = mags * signs
    return rows


def test_criterion_01_quasiconvexity_constant(f2):
    budget = 30.0
    with Clock() as c:
        phi = kalton_peck_map(f2, identity_theta())
        res = quasiconvexity_constant(phi, trials=1_000_000, rng_seed=SEED)
        bound = kp_theoretical_bound(f2.constants, identity_theta())
    assert 1.0 < res.l_hat <= 7.332
    assert res.l_hat <= bound + 1e-9
    assert c.elapsed <= budget
    report(1, "quasiconvexity constant", budget, c,
           f"L_hat={res.l_hat:.6f} <= {bound:.6f} <= 7.332, "
           f"trials=1e6")


def test_criterion_02_caratheodory_sandwich(f2):
    budget = 60.0
    with Clock() as c:
        phi = kalton_peck_map(f2, identity_theta())
        l_hat = quasiconvexity_constant(phi, trials=200_000,
                                        rng_seed=SEED).l_hat
        grid = convex_envelope(phi, 2.0, 41)
        env, vals = grid.envelope, grid.values
        lower_ok = bool(np.all(env <= vals + 1e-9))
        live = env > 0.0
        upper_ok = bool(
            np.all(vals[live] <= l_hat ** 2 * env[live] * 1.05)
            and np.all(vals[~live] <= 1e-12))
    assert lower_ok
    assert upper_ok
    assert c.elapsed <= budget
    report(2, "caratheodory sandwich", budget, c,
           f"41x41 grid, ratio_max={grid.ratio_max:.4f} <= "
           f"L_hat^2={l_hat ** 2:.4f}")


def test_criterion_03_luxemburg_oracle():
    budget = 5.0
    worst = 0.0
    with Clock() as c:
        rng = np.random.default_rng(SEED)
        for p in (1.5, 2.0, 3.0):
            f = certify(power(p), p)
            rows = random_rows(rng, 1000, 16)
            ours = luxemburg_norm_batch(f, rows[..., None])
            truth = np.linalg.norm(rows, ord=p, axis=-1)
            worst = max(worst, float(np.max(np.abs(ours - truth) / truth)))
    assert worst <= 1e-9
    assert c.elapsed <= budget
    report(3, "luxemburg norm oracle", budget, c,
           f"p in (1.5, 2, 3), 1000 sequences each, max rel err "
           f"{worst:.2e} <= 1e-9")


def test_criterion_04_twisted_envelope_equivalence(f2):
    budget = 120.0
    with Clock() as c:
        space = build_space(f2, identity_theta(), halfwidth=2.0,
                            resolution=41, label="z2")
        rep = equivalence_certificate(space, trials=10_000, dim_max=64,
                                      rng_seed=SEED)
    assert 0.0 < rep["ratio_min"] <= rep["ratio_max"] < math.inf
    assert rep["stable"] and rep["stability"] < 0.05
    assert c.elapsed <= budget
    report(4, "twisted/envelope equivalence", budget, c,
           f"ratio in [{rep['ratio_min']:.4f}, {rep['ratio_max']:.4f}], "
           f"drift {rep['stability']:.3%} < 5%")


def test_criterion_05_quasilinearity_across_dimension(z2_noenv):
    budget = 60.0
    with Clock() as c:
        lo = quasi_linearity_constant(z2_noenv, trials=30_000, dim_max=16,
                                      rng_seed=SEED + 7)
        hi = quasi_linearity_constant(z2_noenv, trials=30_000, dim_max=256,
                                      rng_seed=SEED + 8)
        c16 = lo.c_hat
        c256 = hi.per_dim[256]
        ratio = c256 / c16
    assert math.isfinite(lo.c_hat) and math.isfinite(hi.c_hat)
    assert 0.5 <= ratio <= 2.0
    assert c.elapsed <= budget
    report(5, "quasi-linearity across dimension", budget, c,
           f"c_hat(16)={c16:.4f}, c_hat(256)={c256:.4f}, "
           f"ratio {ratio:.3f} in [0.5, 2]")


def test_criterion_06_renorm_closed_forms():
    budget = 1.0
    with Clock() as c:
        g = select_alpha(radial_power(1, 2.0))
        phitilde = build_phitilde(g)
        norm = StarNorm(dim=1, young=phitilde, g=g)
        pt1 = float(phitilde.evaluate(np.array([[1.0]]))[0])
        n11 = norm.value(1.0, [1.0])
        n01 = norm.value(0.0, [1.0])
    assert g.alpha == 0.5
    assert g.M == pytest.approx(1.0, abs=1e-9)
    assert pt1 == pytest.approx(SQRT2 - 0.5, abs=1e-9)
    assert n11 == pytest.approx(SQRT2 + 0.5, abs=1e-9)
    assert n01 == pytest.approx(SQRT2, abs=1e-9)
    assert c.elapsed <= budget
    report(6, "renorm closed forms", budget, c,
           f"alpha=1/2, M={g.M:.12f}, ext(1)={pt1:.12f}, "
           f"N(1,1)={n11:.12f}, N(0,1)={n01:.12f}")


def test_criterion_07_triangle_inequality(t2_pipe):
    budget = 10.0
    with Clock() as c:
        worst = triangle_violation(t2_pipe.norm, 1_000_000, SEED)
    assert worst <= 1e-10
    assert c.elapsed <= budget
    report(7, "triangle inequality of the built norm", budget, c,
           f"max relative violation {worst:.2e} <= 1e-10 over 1e6 triples")


def test_criterion_08_prefix_step_inequality(t2_pipe):
    budget = 10.0
    norm, phit = t2_pipe.norm, t2_pipe.phitilde
    worst = math.inf
    checked = 0
    with Clock() as c:
        rng = np.random.default_rng(SEED + 11)
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            mags = 10.0 ** (-2.0 + 3.0 * rng.random((k, 1)))
            signs = np.where(rng.random((k, 1)) < 0.5, -1.0, 1.0)
            xi = BlockSeq(1, mags * signs)
            lam = lambda_norm(norm, xi)
            xi = xi.scaled(float(rng.uniform(0.05, 0.99)) / lam)
            rep = suff_criterion_check(norm, phit, xi)
            assert rep.checked == xi.n_blocks - 1   # every step was in range
            checked += rep.checked
            if rep.checked:
                worst = min(worst, rep.min_margin)
    assert worst >= -1e-9
    assert c.elapsed <= budget
    report(8, "prefix step inequality", budget, c,
           f"1000 sequences, {checked} steps, min margin {worst:.2e} "
           f">= -1e-9")


def test_criterion_09_prefix_substitution(t2_pipe):
    budget = 10.0
    norm = t2_pipe.norm
    worst = 0.0
    with Clock() as c:
        rng = np.random.default_rng(SEED + 13)
        for _ in range(1000):
            def blocks():
                k = int(rng.integers(1, 5))
                mags = 10.0 ** (-2.0 + 3.0 * rng.random((k, 1)))
                signs = np.where(rng.random((k, 1)) < 0.5, -1.0, 1.0)
                return BlockSeq(1, mags * signs)
            u, v, tail = blocks(), blocks(), blocks()
            v = match_lambda_norm(norm, v, lambda_norm(norm, u))
            rep = prefix_substitution_check(norm, u, v, tail)
            assert rep.precondition_ok, rep.reason
            worst = max(worst, rep.difference)
    assert worst <= 1e-9
    assert c.elapsed <= budget
    report(9, "prefix substitution", budget, c,
           f"1000 matched triples, max difference {worst:.2e} <= 1e-9")


def test_criterion_10_mollifier_sandwich(f2):
    budget = 30.0
    with Clock() as c:
        flat = mollify(radial_power(1, 2.0), 0.25, 3.0, 49)
        space = build_space(f2, identity_theta(), halfwidth=2.0,
                            resolution=41, label="z2")
        env = space.psi.envelope_map().as_young()
        searched = mollify(env, 0.25, 2.0, 41)
        assert searched.certified_fraction is not None
        # confirm the sandwich at the fraction the halving search returned
        bent = mollify(env, searched.certified_fraction, 2.0, 41)
    for res in (flat, bent):
        assert res.sandwich_ok
        assert res.certified_fraction > 0.0
        assert 0.5 <= res.ratio_min <= res.ratio_max <= 2.0
    assert c.elapsed <= budget
    report(10, "mollifier sandwich", budget, c,
           f"certified fractions {flat.certified_fraction:g} (square) and "
           f"{bent.certified_fraction:g} (envelope), ratios within [1/2, 2]")
