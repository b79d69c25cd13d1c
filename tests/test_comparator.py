import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from revshare.best_response import NonConvergenceError, reduced
from revshare.comparator import (capital_frontier, compare_models, evaluate_model,
                                 fee_policy)
from revshare.model import (
    BusinessModel,
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    EffortCost,
    FreemiumModel,
    MarketplaceModel,
    PayPerTokenModel,
    RevenueTechnology,
    RsiModel,
    SubscriptionModel,
    effort_cost,
)
from revshare.montecarlo import PopulationSpec, generate_population
from revshare.numeric import expand_upper_bound, grid_then_golden
from revshare.participation import participate

from conftest import random_profiles

RSI60 = RsiModel(policy=CommissionPolicy.flat(0.6))


FLAT0 = CommissionPolicy.flat(0.0)
DEGRESSIVE = CommissionPolicy.degressive([(0.0, 0.3), (1.0, 0.1)], ad_share=0.2)


class TestBusinessModel:
    """Each constructor fills in its row of the fee-point table in the
    comparator's docstring, with distinct values so no two fields swap."""

    @pytest.mark.parametrize("model,row", [
        (RsiModel(), ("rsi", CommissionPolicy.flat(0.25), 0.0, 0.0, 0.0)),
        (RsiModel(policy=DEGRESSIVE), ("rsi", DEGRESSIVE, 0.0, 0.0, 0.0)),
        (PayPerTokenModel(token_price=0.2), ("pay_per_token", FLAT0, 0.2, 0.0, 0.0)),
        (SubscriptionModel(fee=0.1), ("subscription", FLAT0, 0.0, 0.0, 0.1)),
        (FreemiumModel(free_quota=0.5, overage_price=0.3),
         ("freemium", FLAT0, 0.3, 0.5, 0.0)),
        (MarketplaceModel(commission=0.15, token_price=0.2),
         ("marketplace", CommissionPolicy.flat(0.15), 0.2, 0.0, 0.0)),
    ])
    def test_constructor_fills_its_row(self, model, row):
        assert (model.tag, model.policy, model.price, model.quota, model.fee) == row
        assert model == BusinessModel(*row)

    @pytest.mark.parametrize("args,message", [
        (("auction",), "unknown business model tag 'auction'"),
        (("pay_per_token", FLAT0, -0.1), "price must be finite and >= 0"),
        (("freemium", FLAT0, 0.1, math.inf), "quota must be finite and >= 0"),
        (("subscription", FLAT0, 0.0, 0.0, math.nan), "fee must be finite and >= 0"),
        (("marketplace", DEGRESSIVE, 0.1),
         "a per-request price needs a flat commission policy"),
    ])
    def test_record_outside_its_domain(self, args, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            BusinessModel(*args)

    def test_lump_fee_beside_a_price(self, canonical_profile):
        # pay-per-token at 0.2 plus a lump fee of 0.1: the same effort, the
        # fee paid upfront and moved from the developer to the platform
        ppt = evaluate_model(canonical_profile, PayPerTokenModel(0.2), 0.0)
        out = evaluate_model(canonical_profile,
                             BusinessModel("pay_per_token", price=0.2, fee=0.1), 0.0)
        assert out.effort == ppt.effort
        assert out.upfront_cost == ppt.upfront_cost + 0.1
        assert out.developer_profit == ppt.developer_profit - 0.1
        assert out.platform_profit == ppt.platform_profit + 0.1


class TestEvaluateModel:
    def test_rsi_closed_form(self, canonical_profile):
        out = evaluate_model(canonical_profile, RSI60, platform_cost=0.2)
        assert out.developer_profit == pytest.approx(0.08, abs=1e-12)
        assert out.platform_profit == pytest.approx(0.16, abs=1e-12)
        assert out.upfront_cost == 0.0

    def test_rsi_row_matches_participate_with_ad_revenue(self, canonical_profile):
        # the retained ad revenue (0.8) alone clears the reservation profit
        profile = dataclasses.replace(canonical_profile, ad_revenue=1.0,
                                      reservation_profit=0.5)
        policy = CommissionPolicy.flat(0.6, ad_share=0.2)
        out = evaluate_model(profile, RsiModel(policy=policy), platform_cost=0.2)
        res = participate([profile], 0.6, policy, marginal_cost=0.2)
        assert out.entered and res.count == 1
        assert out.developer_profit == res.entry_profits[profile.id]
        assert out.developer_profit == pytest.approx(0.88, abs=1e-12)
        assert out.platform_profit == res.platform_profit
        assert out.platform_profit == pytest.approx(0.36, abs=1e-12)

    @pytest.mark.parametrize("model", [RSI60, PayPerTokenModel(token_price=0.2)])
    def test_negative_capital_rejected(self, canonical_profile, model):
        for capital in (-1.0, -1e-12, -math.inf, math.nan):
            with pytest.raises(DomainError, match="capital must be >= 0"):
                evaluate_model(canonical_profile, model, 0.1, capital)
        assert evaluate_model(canonical_profile, model, 0.1, math.inf).entered

    def test_free_subscription_is_undistorted(self, canonical_profile):
        out = evaluate_model(canonical_profile, SubscriptionModel(fee=0.0),
                             platform_cost=0.0)
        assert out.effort == pytest.approx(1.0, abs=1e-12)
        assert out.developer_profit == pytest.approx(0.5, abs=1e-12)

    def test_pay_per_token_reoptimizes(self, canonical_profile):
        # FOC 1 - c_t - e = 0 with q = e; grid oracle cross-check
        out = evaluate_model(canonical_profile,
                             PayPerTokenModel(token_price=0.2),
                             platform_cost=0.2)
        assert out.effort == pytest.approx(0.8, abs=1e-6)
        assert out.developer_profit == pytest.approx(0.32, abs=1e-9)
        e = np.arange(0, 3, 1e-6)
        profit = e - 0.2 * e - 0.5 * e ** 2
        assert out.developer_profit >= profit.max() - 1e-9

    def test_freemium_overage_billing(self, canonical_profile):
        # quota above optimal usage: no fee, undistorted effort
        out = evaluate_model(canonical_profile,
                             FreemiumModel(free_quota=5.0, overage_price=0.5),
                             platform_cost=0.0)
        assert out.effort == pytest.approx(1.0, abs=1e-6)
        assert out.upfront_cost == pytest.approx(0.0, abs=1e-9)
        # quota zero: behaves like pay-per-token
        out2 = evaluate_model(canonical_profile,
                              FreemiumModel(free_quota=0.0, overage_price=0.2),
                              platform_cost=0.0)
        assert out2.effort == pytest.approx(0.8, abs=1e-5)

    def test_marketplace_double_margin(self, canonical_profile):
        out = evaluate_model(canonical_profile,
                             MarketplaceModel(commission=0.25, token_price=0.1),
                             platform_cost=0.0)
        # FOC: (1-kappa) - c_t = k e -> e = 0.65
        assert out.effort == pytest.approx(0.65, abs=1e-6)

    def test_every_model_satisfies_own_foc(self):
        models = [
            RsiModel(policy=CommissionPolicy.flat(0.3)),
            PayPerTokenModel(token_price=0.15),
            SubscriptionModel(fee=0.05),
            FreemiumModel(free_quota=0.2, overage_price=0.15),
            MarketplaceModel(commission=0.2, token_price=0.1),
        ]
        for profile in random_profiles(10, seed=13,
                                       cost_families=("quadratic",)):
            for model in models:
                out = evaluate_model(profile, model, platform_cost=0.1)
                if out.effort <= 1e-9:
                    continue
                h = max(1e-6, 1e-6 * out.effort)
                # finite-difference stationarity of the model's own objective
                def obj(e):
                    return evaluate_objective(profile, model, e)
                grad = (obj(out.effort + h) - obj(out.effort - h)) / (2 * h)
                assert abs(grad) <= 1e-4


fees = st.floats(0.0, 2.0)
fee_models = st.one_of(
    st.builds(lambda r: RsiModel(policy=CommissionPolicy.flat(r)),
              st.floats(0.0, 1.0)),
    st.builds(PayPerTokenModel, token_price=fees),
    st.builds(SubscriptionModel, fee=fees),
    st.builds(FreemiumModel, free_quota=fees, overage_price=fees),
    st.builds(MarketplaceModel, commission=st.floats(0.0, 1.0),
              token_price=fees),
)


class TestFeeRowSearch:
    def test_fee_rows_reach_efforts_past_a_million(self):
        """A/k = 1e12, within the CLI's ranges: each fee row's effort is near
        its own optimum ((1 - m)A - t)/k, not at the old 1e6 search cap."""
        profile = DeveloperProfile(
            id="d", tech=RevenueTechnology(family="linear", scale=1e6),
            cost=EffortCost(k=1e-6))
        models = [PayPerTokenModel(token_price=0.2),
                  FreemiumModel(free_quota=0.5, overage_price=0.2),
                  MarketplaceModel(commission=0.15, token_price=0.2)]
        for model in models:
            m = model.policy.rate
            want = ((1 - m) * 1e6 - 0.2) / 1e-6
            out = evaluate_model(profile, model, platform_cost=0.0)
            assert out.effort == pytest.approx(want, rel=1e-8), model.tag

    @pytest.mark.parametrize("model", [
        PayPerTokenModel(token_price=0.2),
        FreemiumModel(free_quota=0.5, overage_price=0.2),
        MarketplaceModel(commission=0.15, token_price=0.2)])
    def test_unbounded_developer_raises_in_every_fee_row(self, model):
        """R = (2e)^2/4 = e^2 against phi = e^2/2 has no optimum: the fee
        rows raise, as the revenue-sharing row does."""
        profile = DeveloperProfile(
            id="d", tech=RevenueTechnology(family="linear_demand",
                                           demand_quality=2.0,
                                           usage_per_revenue=1.0),
            cost=EffortCost(k=1.0))
        with pytest.raises(NonConvergenceError):
            evaluate_model(profile, model, platform_cost=0.0)


def fee_terms(profile, model, e):
    """The fee row's developer objective at effort e, written out from the
    fee point, and the largest of its terms, the scale of its rounding."""
    policy, t, quota = model.policy, model.price, model.quota
    _, r, q = reduced(profile.tech, e)
    upfront, phi = t * (q - quota if q > quota else 0.0), effort_cost(profile.cost, e)
    return (1.0 - policy.rate) * r - upfront - phi, max(r, upfront, phi)


def searched_effort(profile, model):
    """The fee row's effort by a bounded grid-then-golden search: the
    reference for the rows solved as commission schedules."""
    def objective(e):
        return fee_terms(profile, model, e)[0]

    hi = expand_upper_bound(objective)
    e = grid_then_golden(objective, 0.0, hi)
    return 0.0 if objective(0.0) >= objective(e) else e


def usage_linked(family, cost_family, kappa, a=0.5, u=0.5, d=1.0, k=1.0,
                 scale=1.0, beta=0.5, exponent=3.0):
    """A developer whose usage is kappa * R; linear demand draws its quality
    as b = u * sqrt(2dk), so u > 1 makes the untaxed profit unbounded under a
    quadratic cost."""
    tech = (RevenueTechnology("linear_demand", demand_base=a, demand_slope=d,
                              demand_quality=u * math.sqrt(2 * d * k),
                              usage_per_revenue=kappa)
            if family == "linear_demand" else
            RevenueTechnology(family, scale=scale, usage_per_revenue=kappa,
                              beta=beta if family == "power" else 1.0))
    return DeveloperProfile(id="d", tech=tech, cost=EffortCost(
        cost_family, k=k, exponent=exponent if cost_family == "power_convex" else 2.0))


prices = st.floats(1e-3, 2.0)
usage_linked_models = st.one_of(
    st.builds(PayPerTokenModel, token_price=prices),
    st.builds(FreemiumModel, free_quota=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
              overage_price=prices),
    st.builds(MarketplaceModel, commission=st.floats(0.0, 1.0), token_price=prices),
)


class TestUsageLinkedFeeRows:
    """With usage q = kappa * R, a fee row is the commission schedule
    ``fee_policy`` on R, solved by ``solve_effort_policy``."""

    @pytest.mark.parametrize("args,bands", [
        ((0.15, 0.1, 0.5, 2.0), ((0.0, 0.15), (0.25, 0.35))),
        ((0.15, 0.1, 0.0, 2.0), ((0.0, 0.35),)),  # no quota
        ((0.15, 0.1, 0.5, 0.0), ((0.0, 0.15),)),  # no usage
        ((0.15, 0.1, 1e10, 1e-300), ((0.0, 0.15),)),  # a quota past any float
        ((0.5, 2.0, 0.5, 1.0), ((0.0, 0.5), (0.5, 1.0))),  # m + t*kappa > 1
    ])
    def test_fee_policy(self, args, bands):
        assert fee_policy(*args) == CommissionPolicy(bands)

    @pytest.mark.parametrize("model,effort", [
        (PayPerTokenModel(token_price=0.6), 1.0),  # rate 0.6, 0.4*b^2 < 2dk
        (FreemiumModel(free_quota=1.0, overage_price=0.9), 0.75),  # the edge
    ])
    def test_unbounded_when_untaxed(self, model, effort):
        # b^2 = 4 >= 2dk = 2: only the fee bounds the profit
        profile = usage_linked("linear_demand", "quadratic", 1.0, u=math.sqrt(2))
        out = evaluate_model(profile, model, platform_cost=0.0)
        assert out.effort == pytest.approx(effort, rel=1e-15)

    @given(model=usage_linked_models,
           family=st.sampled_from(["linear", "power", "linear_demand"]),
           cost_family=st.sampled_from(["quadratic", "power_convex"]),
           kappa=st.one_of(st.just(0.0), st.just(1e-300), st.floats(1e-3, 5.0)),
           a=st.floats(0.0, 2.0), u=st.floats(0.0, 2.0), d=st.floats(0.2, 3.0),
           k=st.floats(0.2, 3.0), scale=st.floats(0.1, 3.0),
           beta=st.floats(0.3, 1.0), exponent=st.floats(2.5, 4.0))
    @example(model=FreemiumModel(free_quota=1.0, overage_price=0.9),
             family="linear_demand", cost_family="quadratic", kappa=1.0, a=0.5,
             u=math.sqrt(2), d=1.0, k=1.0, scale=1.0, beta=1.0, exponent=3.0)
    @example(model=MarketplaceModel(commission=0.5, token_price=2.0),
             family="linear", cost_family="power_convex", kappa=1.0, a=0.0,
             u=0.0, d=1.0, k=1.0, scale=1.0, beta=1.0, exponent=3.0)
    @example(model=FreemiumModel(free_quota=0.5, overage_price=0.1),
             family="linear", cost_family="power_convex", kappa=1e-300, a=0.0,
             u=0.0, d=1.0, k=1.0, scale=1.0, beta=1.0, exponent=3.0)
    @example(model=PayPerTokenModel(token_price=0.1), family="power",
             cost_family="quadratic", kappa=0.0, a=0.0, u=0.0, d=1.0, k=1.0,
             scale=1.0, beta=0.5, exponent=3.0)
    @settings(max_examples=300, deadline=None)
    def test_no_worse_than_the_search(self, model, family, cost_family, kappa,
                                      a, u, d, k, scale, beta, exponent):
        policy, t, quota = model.policy, model.price, model.quota
        if family == "linear_demand" and cost_family == "quadratic":
            # the top band's rate must bound the profit, with a margin
            assume((1 - min(1.0, policy.rate + t * kappa)) * u * u < 0.99)
        profile = usage_linked(family, cost_family, kappa, a, u, d, k, scale,
                               beta, exponent)
        out = evaluate_model(profile, model, platform_cost=0.1)
        _, r, q = reduced(profile.tech, out.effort)
        assert (out.gross_revenue, out.usage) == (r, q)
        assert out.upfront_cost == t * (q - quota if q > quota else 0.0)
        got, got_size = fee_terms(profile, model, out.effort)
        assert out.developer_profit == got
        # relative to the terms: with m + t*kappa near 1 the objective is a
        # few of their ulps, and a search may land on a rounding bump
        ref_effort = searched_effort(profile, model)
        ref, ref_size = fee_terms(profile, model, ref_effort)
        if got < ref - 1e-12 * max(got_size, ref_size):
            # a power_convex cost leaves linear demand's bands searched too:
            # two golden-section searches, each to about 2e-12 in effort
            assert (family, cost_family) == ("linear_demand", "power_convex")
            assert out.effort == pytest.approx(ref_effort, rel=1e-9, abs=1e-9)


class TestAccountingIdentity:
    @given(model=fee_models, family=st.sampled_from(["linear", "power"]),
           cost_family=st.sampled_from(["quadratic", "power_convex"]),
           scale=st.floats(0.1, 3.0), beta=st.floats(0.3, 1.0),
           k=st.floats(0.2, 3.0), exponent=st.floats(2.0, 4.0),
           per_revenue=st.one_of(st.none(), st.floats(0.0, 3.0)),
           c=st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_fees_are_transfers(self, model, family, cost_family, scale,
                                beta, k, exponent, per_revenue, c):
        """Fees move money between the two sides and nothing else: the
        joint payoff is gross revenue less effort and serving cost."""
        profile = DeveloperProfile(
            id="d", tech=RevenueTechnology(family=family, scale=scale,
                                           beta=beta if family == "power" else 1.0,
                                           usage_per_revenue=per_revenue),
            cost=EffortCost(family=cost_family, k=k,
                            exponent=exponent if cost_family == "power_convex"
                            else 2.0))
        out = evaluate_model(profile, model, platform_cost=c)
        phi = effort_cost(profile.cost, out.effort)
        joint = out.gross_revenue - phi - c * out.usage
        size = max(1.0, out.gross_revenue, phi, c * out.usage)
        assert abs(out.developer_profit + out.platform_profit - joint) <= 1e-9 * size
        assert out.upfront_cost >= 0.0

    @given(model=fee_models.filter(lambda m: m.tag != "rsi"),
           family=st.sampled_from(["linear", "power", "linear_demand"]),
           ad=st.floats(0.0, 10.0), c=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_fee_models_leave_ad_revenue_to_the_developer(self, model, family,
                                                          ad, c):
        tech = (RevenueTechnology(family=family, demand_base=1.0,
                                  demand_quality=0.5, usage_per_revenue=1.0)
                if family == "linear_demand"
                else RevenueTechnology(family=family,
                                       beta=0.5 if family == "power" else 1.0))
        profile = DeveloperProfile(id="d", tech=tech, cost=EffortCost(k=1.0))
        without = evaluate_model(profile, model, platform_cost=c)
        with_ad = evaluate_model(dataclasses.replace(profile, ad_revenue=ad),
                                 model, platform_cost=c)
        assert with_ad.developer_profit == without.developer_profit + ad
        assert with_ad.platform_profit == without.platform_profit


def evaluate_objective(profile, model, e):
    """Developer objective for each model, written independently."""
    from revshare.model import revenue
    r = revenue(profile.tech, e)
    q = e
    phi = effort_cost(profile.cost, e)
    if model.tag == "rsi":
        return r - model.policy.commission(r) - phi
    if model.tag == "pay_per_token":
        return r - model.price * q - phi
    if model.tag == "subscription":
        return r - phi - model.fee
    if model.tag == "freemium":
        return r - model.price * max(0.0, q - model.quota) - phi
    if model.tag == "marketplace":
        return (1 - model.policy.rate) * r - model.price * q - phi


class TestComparisonTable:
    def test_rsi_unique_at_zero_capital(self):
        # reservation range kept below the worst-case RSI profit so entry
        # failure never masks the capital-feasibility effect under test
        from revshare.montecarlo import Distribution
        pop = generate_population(PopulationSpec(
            size=50, seed=2024,
            reservation_dist=Distribution("uniform", 0.0, 0.03)))
        models = [
            RsiModel(policy=CommissionPolicy.flat(0.3)),
            PayPerTokenModel(token_price=0.1),
            SubscriptionModel(fee=0.05),
            MarketplaceModel(commission=0.2, token_price=0.1),
        ]
        for profile in pop:
            table = compare_models(profile, models, platform_cost=0.05,
                                   capital=0.0)
            assert table.preferred_by_developer == "rsi"

    def test_subscription_zero_fee_equals_rsi_zero_rate(self):
        for profile in random_profiles(50, seed=31):
            rsi = evaluate_model(profile, RsiModel(
                policy=CommissionPolicy.flat(0.0)), platform_cost=0.1)
            sub = evaluate_model(profile, SubscriptionModel(fee=0.0),
                                 platform_cost=0.1)
            assert sub.developer_profit == pytest.approx(
                rsi.developer_profit, abs=1e-12)
            assert sub.effort == pytest.approx(rsi.effort, abs=1e-12)

    def test_free_subscription_beats_rsi_with_ad_revenue(self, canonical_profile):
        # R = e, phi = e^2/2: RSI at 30% keeps 0.245, a free subscription
        # 0.5, and the developer keeps the ad revenue under both
        profile = dataclasses.replace(canonical_profile, ad_revenue=1.0)
        table = compare_models(profile, [RsiModel(policy=CommissionPolicy.flat(0.3)),
                                         SubscriptionModel(fee=0.0)],
                               platform_cost=0.0)
        rsi, subscription = table.rows
        assert rsi.developer_profit == pytest.approx(1.245, abs=1e-12)
        assert subscription.developer_profit == pytest.approx(1.5, abs=1e-12)
        assert table.preferred_by_developer == "subscription"

    def test_row_order_fixed(self, canonical_profile):
        models = [SubscriptionModel(fee=0.0), RSI60,
                  PayPerTokenModel(token_price=0.2)]
        table = compare_models(canonical_profile, models, platform_cost=0.0)
        assert [r.model for r in table.rows] == ["rsi", "pay_per_token",
                                                 "subscription"]
        shuffled = compare_models(canonical_profile, models[::-1],
                                  platform_cost=0.0)
        assert table == shuffled


class TestCapitalFrontier:
    def test_threshold_at_period_cost(self, canonical_profile):
        # PPT beats RSI(0.6) here: pi_ppt = 0.32 > 0.08; period cost 0.16
        threshold = capital_frontier(canonical_profile,
                                     CommissionPolicy.flat(0.6),
                                     token_price=0.2, platform_cost=0.2)
        assert threshold == pytest.approx(0.16, abs=1e-9)

    def test_rsi_dominant_never_switches(self, canonical_profile):
        # alpha=0 RSI weakly dominates any positively priced model
        threshold = capital_frontier(canonical_profile,
                                     CommissionPolicy.flat(0.0),
                                     token_price=0.2)
        assert math.isinf(threshold)

    def test_all_prefer_rsi_at_zero_capital(self):
        pop = generate_population(PopulationSpec(size=20, seed=99))
        for profile in pop:
            t = capital_frontier(profile, CommissionPolicy.flat(0.3),
                                 token_price=0.1)
            assert t > 0  # PPT not capital-feasible at K=0

    def test_smallest_capital_preferring_pay_per_token(self):
        # preference is monotone in capital, so the frontier is the smallest
        # capital preferring PPT if it prefers PPT and 2e-9 less does not
        # (capital feasibility absorbs 1e-9 of optimizer noise)
        policy = CommissionPolicy.flat(0.5)
        models = [RsiModel(policy=policy), PayPerTokenModel(token_price=0.1)]
        frontiers = []
        for profile in generate_population(PopulationSpec(size=40, seed=3)):
            t = capital_frontier(profile, policy, token_price=0.1,
                                 platform_cost=0.05)
            picks = [compare_models(profile, models, 0.05, capital=k)
                     .preferred_by_developer for k in (t, max(0.0, t - 2e-9))]
            assert [p == "pay_per_token" for p in picks] == [math.isfinite(t),
                                                            False]
            frontiers.append(t)
        assert 0 < sum(map(math.isinf, frontiers)) < len(frontiers)


class TestSearchCap:
    @pytest.mark.parametrize("scale", [1e20, 1e200])
    def test_fee_row_optimum_past_the_cap_is_a_domain_error(self, scale):
        # the optimum ((1 - m)A - t)/k lies past the 1e15 cap; before, a
        # NonConvergenceError that was not a DomainError and called this
        # bounded problem unbounded
        profile = DeveloperProfile(
            id="d", tech=RevenueTechnology("linear", scale=scale),
            cost=EffortCost(k=1.0))
        with pytest.raises(DomainError, match=re.escape(
                "developer problem has no optimum below the search cap 1e+15")):
            compare_models(profile, [PayPerTokenModel(0.1)], 0.0)

    def test_unknown_business_model(self, canonical_profile):
        with pytest.raises(DomainError, match="unknown business model 'rsi'"):
            evaluate_model(canonical_profile, "rsi", 0.0)
