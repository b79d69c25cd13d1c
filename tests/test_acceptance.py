"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity at the pinned tolerance."""

import random
import time

import numpy as np

from revshare.best_response import foc_residual, solve_effort
from revshare.cli import main as cli_main
from revshare.comparator import compare_models, evaluate_model
from revshare.model import (
    CommissionPolicy,
    DeveloperProfile,
    EffortCost,
    MarketplaceModel,
    PayPerTokenModel,
    PlatformParams,
    RevenueTechnology,
    RsiModel,
    SubscriptionModel,
    marginal_effort_cost,
)
from revshare.montecarlo import Distribution, PopulationSpec, generate_population
from revshare.optimizer import optimize_alpha
from revshare.participation import participation_curve
from revshare.settlement import Transaction, settle

from conftest import (
    central_diff,
    grid_best_effort,
    oracle_alpha_grid,
    random_profiles,
    revenue_grid,
)


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def canonical_params(c):
    dev = DeveloperProfile(
        id="dev-00000", tech=RevenueTechnology(family="linear", scale=1.0),
        cost=EffortCost(k=1.0))
    return PlatformParams(marginal_cost=c, population=[dev])


def test_criterion_1_closed_form_commission():
    worst = 0.0
    slowest = 0.0
    for c in (0.2, 0.4):
        t0 = time.perf_counter()
        rep = optimize_alpha(canonical_params(c))
        dt = time.perf_counter() - t0
        worst = max(worst, abs(rep.alpha_star - (1 + c) / 2))
        slowest = max(slowest, dt)
    report(1, worst <= 1e-6 and slowest < 1.0,
           f"closed-form alpha*: max |error|={worst:.2e} (<=1e-6), "
           f"slowest run {slowest:.3f}s (<1s)")


def test_criterion_2_best_response_closed_form(canonical_profile):
    alphas = np.linspace(0.0, 1.0, 101)
    err_analytic = max(abs(solve_effort(canonical_profile, float(a)).effort
                           - (1 - a)) for a in alphas)
    err_numeric = max(abs(solve_effort(canonical_profile, float(a),
                                       force_numeric=True).effort - (1 - a))
                      for a in alphas)
    report(2, err_analytic <= 1e-8 and err_numeric <= 1e-6,
           f"e*=1-alpha over 101 rates: analytic err={err_analytic:.2e} "
           f"(<=1e-8), numeric err={err_numeric:.2e} (<=1e-6)")


PROFILES = random_profiles(100, seed=20240801)
ALPHAS = [i / 10 for i in range(10)]


def test_criterion_3_foc_residuals():
    worst_foc = 0.0
    worst_rel = 0.0
    for profile in PROFILES:
        for a in ALPHAS:
            br = solve_effort(profile, a)
            if br.effort <= 0:
                continue
            worst_foc = max(worst_foc, abs(foc_residual(profile, a, br.effort)))
            # analytic vs finite-difference marginals, checked separately
            e = br.effort
            mr_fd = central_diff(
                lambda x: revenue_grid(profile.tech, np.array([x]))[0], e)
            mr_an = foc_residual(profile, 0.0, e) + marginal_effort_cost(
                profile.cost, e)
            mc_fd = central_diff(
                lambda x: 0.5 * profile.cost.k * x ** 2
                if profile.cost.family == "quadratic"
                else profile.cost.k * x ** profile.cost.exponent
                / profile.cost.exponent, e)
            mc_an = marginal_effort_cost(profile.cost, e)
            worst_rel = max(worst_rel,
                            abs(mr_fd - mr_an) / max(abs(mr_an), 1e-12),
                            abs(mc_fd - mc_an) / max(abs(mc_an), 1e-12))
    report(3, worst_foc <= 1e-6 and worst_rel <= 1e-5,
           f"interior FOC residuals over 100x10: max={worst_foc:.2e} "
           f"(<=1e-6); analytic/FD relative gap={worst_rel:.2e} (<=1e-5)")


def test_criterion_4_comparative_statics():
    violations = 0
    sorted_alphas = sorted(ALPHAS)
    for profile in PROFILES:
        efforts = [solve_effort(profile, a).effort for a in sorted_alphas]
        violations += sum(1 for e1, e2 in zip(efforts, efforts[1:])
                          if e2 > e1 + 1e-12)
    for seed in range(5):
        pop = random_profiles(40, seed=seed, reservation_hi=0.3)
        curve = participation_curve(pop, sorted_alphas)
        counts = [n for _, n in curve]
        violations += sum(1 for n1, n2 in zip(counts, counts[1:]) if n2 > n1)
    report(4, violations == 0,
           f"effort and N(alpha) monotone in alpha: {violations} violations")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_inner = 0.0
    for i in range(20):
        profile = random_profiles(1, seed=1000 + i)[0]
        alpha = float(rng.uniform(0.0, 0.9))
        br = solve_effort(profile, alpha, force_numeric=True)
        e_grid, _ = grid_best_effort(profile, alpha,
                                     e_max=2 * max(br.effort, 0.5), step=1e-6)
        worst_inner = max(worst_inner, abs(br.effort - e_grid))
    worst_outer = 0.0
    for i in range(20):
        pop = random_profiles(1 + i % 3, seed=2000 + i,
                              cost_families=("quadratic",))
        c = float(np.random.default_rng(3000 + i).uniform(0.0, 0.3))
        rep = optimize_alpha(PlatformParams(marginal_cost=c, population=pop))
        a_star, _ = oracle_alpha_grid(pop, c, step=1e-5)
        worst_outer = max(worst_outer, abs(rep.alpha_star - a_star))
    dt = time.perf_counter() - t0
    report(5, worst_inner <= 1e-5 and worst_outer <= 1e-4 and dt < 60,
           f"oracle equivalence on 20+20 instances: inner gap="
           f"{worst_inner:.2e} (<=1e-5), outer gap={worst_outer:.2e} "
           f"(<=1e-4), runtime {dt:.1f}s (<60s)")


def test_criterion_6_settlement_exactness():
    policy = CommissionPolicy.flat(0.25)
    s1 = settle([Transaction("a", "p", "subscription", 2000)
                 for _ in range(1000)], policy)
    s2 = settle([Transaction("b", "p", "sale", 50)
                 for _ in range(10000)], policy)
    exact = (s1.commission_cents == 500_000 and s1.payout_cents == 1_500_000
             and s2.commission_cents == 125_000 and s2.payout_cents == 375_000)
    rng = random.Random(99)
    conserved = True
    for _ in range(1000):
        amounts = [rng.randrange(0, 5_000_000)
                   for _ in range(rng.randrange(0, 25))]
        pol = CommissionPolicy.flat(rng.randrange(0, 10001) / 10000)
        stmt = settle([Transaction("a", "p", "sale", a) for a in amounts], pol)
        conserved &= (stmt.commission_cents + stmt.payout_cents
                      == stmt.gross_cents)
    report(6, exact and conserved,
           f"scenario splits exact={exact}; conservation held on 1000 "
           f"randomized ledgers={conserved}")


def test_criterion_7_comparator_sanity():
    pop = generate_population(PopulationSpec(
        size=50, seed=777,
        reservation_dist=Distribution("uniform", 0.0, 0.03)))
    models = [RsiModel(policy=CommissionPolicy.flat(0.3)),
              PayPerTokenModel(token_price=0.1),
              SubscriptionModel(fee=0.05),
              MarketplaceModel(commission=0.2, token_price=0.1)]
    all_rsi = all(compare_models(p, models, platform_cost=0.05,
                                 capital=0.0).preferred_by_developer == "rsi"
                  for p in pop)
    worst = 0.0
    for p in pop:
        sub = evaluate_model(p, SubscriptionModel(fee=0.0), platform_cost=0.05)
        rsi0 = evaluate_model(p, RsiModel(policy=CommissionPolicy.flat(0.0)),
                              platform_cost=0.05)
        worst = max(worst, abs(sub.developer_profit - rsi0.developer_profit),
                    abs(sub.effort - rsi0.effort))
    report(7, all_rsi and worst <= 1e-12,
           f"RSI preferred by all 50 profiles at K=0: {all_rsi}; "
           f"Subscription(F=0) vs RSI(0) gap={worst:.2e} (<=1e-12)")


def test_criterion_8_reproducibility(tmp_path, capsys):
    args = ["sweep", "--size", "200", "--seed", "20240801", "--cost", "0.1",
            "--grid-step", "0.001", "--no-timestamp"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    report(8, identical,
           f"two M=200 sweep runs byte-identical: {identical} "
           f"({a.stat().st_size} bytes)")


def test_criterion_9_non_reproducible_content_excluded():
    # ordinal survey ratings and societal statistics carry no formulas to
    # compute against; quantitative coverage lives in criteria 1-8
    report(9, True, "non-quantitative source content excluded by design")
