"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
execute.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""
import dataclasses
import time

import numpy as np
import pytest

import lqnash as lq
from lqnash.cli import main as cli_main

from conftest import SCALAR_GAME_TEXT, random_pd_policy, stage_fixed_point_residual, with_tau


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def suite_instances():
    """50 seeded instances (N<=3, m<=3, p<=2, T<=5) solved exactly, with the
    regularization weight set to 10x the a-posteriori uniqueness threshold."""
    start = time.perf_counter()
    rng = np.random.default_rng(987)
    instances = []
    for k in range(50):
        n = int(rng.integers(1, 4))
        T = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        spec = lq.random_game(n, T, m, p, seed=1000 + k, scale=0.55)
        threshold = lq.check_assumption_tau(spec, lq.exact_ne(spec)).threshold
        spec = with_tau(spec, 10.0 * threshold if threshold > 0 else 1.0)
        sol = lq.exact_ne(spec)
        assert lq.check_assumption_tau(spec, sol).satisfied
        instances.append((spec, sol))
    return instances, time.perf_counter() - start


def engineered_violating_spec(seed: int, offset: float = 0.04) -> lq.GameSpec:
    """Two-agent game whose weight sits just below the uniqueness threshold,
    found by iterating tau onto the crossing point threshold(tau) = tau."""
    spec = lq.random_game(2, 3, 2, 1, seed=seed, scale=0.7)
    tau = 1.0
    for _ in range(80):
        candidate = with_tau(spec, tau)
        threshold = lq.check_assumption_tau(candidate, lq.exact_ne(candidate)).threshold
        if abs(threshold - tau) < 1e-12:
            break
        tau = threshold
    violating = with_tau(spec, tau - offset)
    record = lq.check_assumption_tau(violating, lq.exact_ne(violating))
    assert not record.satisfied
    return violating


def test_criterion_1_stage_minimizer_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(20240601)
    worst_slack = -np.inf
    worst_grad = 0.0
    checked_consistency = False
    for _ in range(1000):
        p = int(rng.integers(1, 5))
        g0 = rng.uniform(-1.0, 1.0, (p, p))
        q = lq.StageQuadratic(
            M=(g0.T @ g0) / p, b=rng.uniform(-1.0, 1.0, p), tau=float(rng.uniform(0.5, 2.5))
        )
        g = lq.entropy_quadratic_minimizer(q)
        best = lq.stage_objective(q, g)

        batch = 100
        means = g.mean + 1e-2 * rng.normal(size=(batch, p))
        raw = 1e-2 * rng.normal(size=(batch, p, p))
        covs = g.cov + 0.5 * (raw + raw.swapaxes(1, 2))
        w, v = np.linalg.eigh(covs)
        covs = np.einsum("bij,bj,bkj->bik", v, np.clip(w, 1e-8, None), v)
        quad = np.einsum("bi,ij,bj->b", means, q.M, means) + means @ q.b
        trace_term = np.einsum("ij,bji->b", q.M, covs)
        _, logdet = np.linalg.slogdet(covs)
        kl = 0.5 * (
            np.einsum("bi,bi->b", means, means)
            + np.trace(covs, axis1=1, axis2=2)
            - p
            - logdet
        )
        values = quad + trace_term + q.tau * kl
        if not checked_consistency:
            direct = lq.stage_objective(q, lq.GaussianPolicyParams(means[0], covs[0]))
            assert abs(direct - values[0]) <= 1e-12 * (1 + abs(direct))
            checked_consistency = True
        worst_slack = max(worst_slack, float(best - values.min()))

        step = 1e-6
        grad = np.empty(p)
        for j in range(p):
            d = np.zeros(p)
            d[j] = step
            up = lq.stage_objective(q, lq.GaussianPolicyParams(g.mean + d, g.cov))
            dn = lq.stage_objective(q, lq.GaussianPolicyParams(g.mean - d, g.cov))
            grad[j] = (up - dn) / (2 * step)
        worst_grad = max(worst_grad, float(np.linalg.norm(grad)))
    elapsed = time.perf_counter() - start
    ok = worst_slack <= 1e-12 and worst_grad <= 1e-9 and elapsed < 5.0
    _report(
        1,
        "stage minimizer optimality",
        ok,
        f"worst slack {worst_slack:.2e} (<=1e-12), worst gradient norm {worst_grad:.2e} "
        f"(<=1e-9), {elapsed:.2f}s (<5s)",
    )


def test_criterion_2_fixed_point_certificate(suite_instances):
    instances, build_time = suite_instances
    start = time.perf_counter()
    worst = 0.0
    for spec, sol in instances:
        for t in range(spec.horizon):
            worst = max(worst, stage_fixed_point_residual(spec, sol.policy, t))
    elapsed = build_time + (time.perf_counter() - start)
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        2,
        "equilibrium fixed point",
        ok,
        f"worst per-stage residual {worst:.2e} (<=1e-10) on 50 instances, {elapsed:.2f}s (<10s)",
    )


def test_criterion_3_linear_convergence(suite_instances):
    instances, _ = suite_instances
    start = time.perf_counter()
    worst_dist = 0.0
    worst_ratio_margin = 0.0
    for spec, sol in instances:
        report = lq.po_solve(spec, inner_iters=100, stop_tol=1e-12)
        worst_dist = max(worst_dist, lq.policy_distance(report.policy, sol.policy))
        for t, stage_trace in enumerate(report.trace):
            rate = report.contraction_moduli[t] + 0.05
            for d_now, d_next in zip(stage_trace, stage_trace[1:]):
                if 0.0 < d_now < 1e-2:
                    worst_ratio_margin = max(worst_ratio_margin, d_next / (rate * d_now))
    elapsed = time.perf_counter() - start
    ok = worst_dist <= 1e-8 and worst_ratio_margin <= 1.0 and elapsed < 30.0
    _report(
        3,
        "linear convergence of policy optimization",
        ok,
        f"worst distance to exact {worst_dist:.2e} (<=1e-8), worst contraction ratio "
        f"{worst_ratio_margin:.3f}x allowed, {elapsed:.2f}s (<30s)",
    )


def test_criterion_4_certificate_vs_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(555)
    within = 0
    worst_z = 0.0
    for k in range(20):
        n = int(rng.integers(1, 4))
        T = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        spec = lq.random_game(n, T, m, p, seed=2000 + k, scale=0.5)
        policy = random_pd_policy(spec, rng)
        expected = lq.value_certificate(spec, policy).expected_costs
        sim = lq.simulate(spec, policy, 10_000, seed=3000 + k)
        z = np.abs(sim.mean_costs - expected) / np.where(sim.std_errors > 0, sim.std_errors, 1.0)
        worst_z = max(worst_z, float(z.max()))
        within += bool((z <= 3.0).all())
    elapsed = time.perf_counter() - start
    ok = within >= 19 and elapsed < 60.0
    _report(
        4,
        "value certificate vs Monte Carlo",
        ok,
        f"{within}/20 pairs with every agent within 3 standard errors "
        f"(worst z {worst_z:.2f}), {elapsed:.1f}s (<60s)",
    )


def test_criterion_5_exploitability(suite_instances):
    instances, _ = suite_instances
    worst_ne_gap = 0.0
    exploitable = 0
    rng = np.random.default_rng(777)
    for spec, sol in instances:
        worst_ne_gap = max(worst_ne_gap, float(np.abs(lq.exploitability(spec, sol.policy)).max()))
        gains = sol.policy.gains
        perturbed = lq.JointPolicy(
            gains + 0.1 * rng.normal(size=gains.shape), sol.policy.covs
        )
        if float(lq.exploitability(spec, perturbed).max()) >= 1e-4:
            exploitable += 1
    ok = worst_ne_gap <= 1e-8 and exploitable >= 45
    _report(
        5,
        "exploitability at and off equilibrium",
        ok,
        f"worst equilibrium gap {worst_ne_gap:.2e} (<=1e-8); jittered policy exploitable "
        f"on {exploitable}/50 (>=45)",
    )


def test_criterion_6_augmentation_behavior():
    start = time.perf_counter()
    deltas = (0.4, 0.2, 0.1)
    all_monotone = True
    worst_c_spread = 1.0
    for seed in (100, 101, 102, 103, 104):
        spec = engineered_violating_spec(seed)
        gaps = {}
        policies = {}
        for delta in deltas:
            report = lq.delta_augment_solve(spec, delta_init=delta, max_rounds=1, stop_tol=1e-12)
            assert report.delta_used == pytest.approx(delta)
            assert np.all(report.nash_gaps >= -1e-9)
            gaps[delta] = float(report.nash_gaps.max())
            policies[delta] = report.policy
        monotone = gaps[0.1] <= gaps[0.2] + 1e-10 and gaps[0.2] <= gaps[0.4] + 1e-10
        all_monotone = all_monotone and monotone

        # cost-gap linearity for a fixed policy: |J_aug - J| <= C * delta with
        # one stable constant across the three deltas
        fixed_policy = policies[0.4]
        base = lq.value_certificate(spec, fixed_policy).expected_costs
        constants = []
        for delta in deltas:
            augmented = with_tau(spec, spec.tau + delta)
            shifted = lq.value_certificate(augmented, fixed_policy).expected_costs
            constants.append(float(np.abs(shifted - base).max()) / delta)
        worst_c_spread = max(worst_c_spread, max(constants) / min(constants))
    elapsed = time.perf_counter() - start
    ok = all_monotone and worst_c_spread <= 2.0 and elapsed < 60.0
    _report(
        6,
        "augmentation fallback behavior",
        ok,
        f"exploitability monotone in delta: {all_monotone}; cost-gap constant spread "
        f"{worst_c_spread:.3f}x (<=2x), {elapsed:.1f}s (<60s)",
    )


def test_criterion_7_cost_gap_linearity():
    rng = np.random.default_rng(321)
    lo, hi = np.inf, -np.inf
    for k in range(10):
        n = int(rng.integers(1, 4))
        T = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        spec = lq.random_game(n, T, m, p, seed=4000 + k, scale=0.5)
        policy = random_pd_policy(spec, rng)
        base = lq.value_certificate(spec, policy).expected_costs
        gap_full = np.abs(
            lq.value_certificate(with_tau(spec, spec.tau + 0.3), policy).expected_costs - base
        )
        gap_half = np.abs(
            lq.value_certificate(with_tau(spec, spec.tau + 0.15), policy).expected_costs - base
        )
        assert (gap_half > 1e-12).all()
        ratios = gap_full / gap_half
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
    ok = 1.8 <= lo and hi <= 2.2
    _report(
        7,
        "augmented cost gap linear in delta",
        ok,
        f"gap ratios at delta vs delta/2 in [{lo:.6f}, {hi:.6f}] (need within [1.8, 2.2])",
    )


def test_criterion_8_hand_derived_scalar_game(tmp_path):
    spec_path = tmp_path / "game.json"
    spec_path.write_text(SCALAR_GAME_TEXT)
    out = tmp_path / "run"
    code = cli_main(["solve-exact", "--spec", str(spec_path), "--out", str(out)])
    assert code == 0
    import json

    policy = json.loads((out / "policy.json").read_text())
    certificate = json.loads((out / "certificate.json").read_text())
    gain = policy["gains"][0][0][0][0]
    cov = policy["covs"][0][0][0][0]
    value = certificate["agents"][0]["P"][0][0][0]
    ok = (
        abs(gain - (-1 / 3)) <= 1e-12
        and abs(cov - 1 / 3) <= 1e-12
        and abs(value - 5 / 3) <= 1e-12
    )
    _report(
        8,
        "hand-derived scalar game via CLI",
        ok,
        f"gain {gain:.15f} (-1/3), covariance {cov:.15f} (1/3), value {value:.15f} (5/3), "
        "all to 1e-12",
    )


def test_criterion_9_cli_determinism(tmp_path):
    spec = lq.random_game(2, 3, 2, 1, seed=77, scale=0.5)
    spec_path = tmp_path / "game.json"
    spec_path.write_text(lq.dump_game_spec(spec))
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["solve-po", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert (
            cli_main(
                ["simulate", "--spec", str(spec_path), "--out", str(out), "--n-traj", "300",
                 "--seed", "5"]
            )
            == 0
        )
        digests.append(
            tuple((out / f).read_bytes() for f in ("policy.json", "trace.csv", "costs.csv"))
        )
    ok = digests[0] == digests[1]
    _report(
        9,
        "byte-identical reruns",
        ok,
        "policy.json, trace.csv, costs.csv identical across two identical invocations",
    )
