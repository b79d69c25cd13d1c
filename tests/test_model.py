import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from revshare.best_response import reduced
from revshare.comparator import evaluate_model
from revshare.model import (
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    EffortCost,
    FreemiumModel,
    MarketplaceModel,
    PayPerTokenModel,
    PlatformParams,
    RevenueTechnology,
    SubscriptionModel,
    effort_cost,
    marginal_effort_cost,
    revenue,
)


class TestRevenue:
    def test_linear_effort_example(self):
        # the worked example's R = e at e = 1 - 0.6
        tech = RevenueTechnology(family="linear", scale=1.0)
        assert revenue(tech, 0.4) == pytest.approx(0.4, abs=1e-12)

    def test_zero_effort_zero_revenue(self):
        for tech in (RevenueTechnology(family="linear"),
                     RevenueTechnology(family="power", beta=0.5),
                     RevenueTechnology(family="linear_demand", demand_base=0.0,
                                       demand_quality=2.0, demand_slope=1.0,
                                       usage_per_revenue=1.0)):
            price = 1.0 if tech.family == "linear_demand" else None
            assert revenue(tech, 0.0, price) == 0.0

    def test_power_effort_example(self):
        # 2 * 0.25^0.5, cross-checked by tabulating A*e^beta on a grid
        tech = RevenueTechnology(family="power", scale=2.0, beta=0.5)
        assert revenue(tech, 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_linear_demand(self):
        tech = RevenueTechnology(family="linear_demand", demand_base=10,
                                 demand_quality=2, demand_slope=1,
                                 usage_per_revenue=3.0)
        assert revenue(tech, 1.0, 6.0) == pytest.approx(36.0)
        # the price vertex (10 + 2*1)/2 = 6 and usage 3 * 36 requests
        assert reduced(tech, 1.0) == pytest.approx((6.0, 36.0, 108.0))

    def test_demand_price_required(self):
        tech = RevenueTechnology(family="linear_demand", demand_base=1,
                                 usage_per_revenue=1.0)
        with pytest.raises(DomainError):
            revenue(tech, 1.0)

    def test_negative_effort_rejected(self):
        with pytest.raises(DomainError):
            revenue(RevenueTechnology(family="linear"), -0.1)
        with pytest.raises(DomainError):
            reduced(RevenueTechnology(family="linear"), -0.1)

    @given(e1=st.floats(0, 10), e2=st.floats(0, 10),
           beta=st.floats(0.1, 1.0))
    @settings(max_examples=200)
    def test_revenue_monotone_in_effort(self, e1, e2, beta):
        lo, hi = sorted((e1, e2))
        for tech in (RevenueTechnology(family="linear", scale=1.3),
                     RevenueTechnology(family="power", scale=1.3, beta=beta)):
            assert revenue(tech, lo) <= revenue(tech, hi) + 1e-12

    @given(e1=st.floats(0, 10), e2=st.floats(0, 10),
           lam=st.floats(0.01, 0.99), beta=st.floats(0.1, 1.0))
    @settings(max_examples=200)
    def test_power_concavity(self, e1, e2, lam, beta):
        tech = RevenueTechnology(family="power", scale=2.0, beta=beta)
        mid = revenue(tech, lam * e1 + (1 - lam) * e2)
        chord = lam * revenue(tech, e1) + (1 - lam) * revenue(tech, e2)
        assert mid >= chord - 1e-9

    def test_usage_example(self):
        assert reduced(RevenueTechnology(family="linear"), 0.4)[2] == 0.4
        assert reduced(RevenueTechnology(family="linear"), 0.0)[2] == 0.0


class TestEffortCost:
    def test_quadratic_example(self):
        assert effort_cost(EffortCost(k=1.0), 0.4) == pytest.approx(0.08)

    def test_zero_at_zero(self):
        assert effort_cost(EffortCost(k=3.0), 0.0) == 0.0
        assert effort_cost(EffortCost(family="power_convex", k=2, exponent=3),
                           0.0) == 0.0

    def test_power_convex_example(self):
        c = EffortCost(family="power_convex", k=2.0, exponent=3.0)
        assert effort_cost(c, 1.5) == pytest.approx(2.25)

    def test_negative_effort_rejected(self):
        with pytest.raises(DomainError):
            effort_cost(EffortCost(), -1.0)

    def test_quadratic_cost_squares_by_multiplication(self):
        # libm pow(x, 2) gives ...464 here; the correctly rounded square is ...465
        assert effort_cost(EffortCost(k=1.0), 0.8988696834881831) \
            == 0.8079667078941465 / 2

    @given(e=st.floats(1e-150, 1e150))
    @settings(max_examples=500)
    def test_quadratic_cost_is_correctly_rounded_square(self, e):
        assert effort_cost(EffortCost(k=1.0), e) == float(Fraction(e) ** 2) / 2

    @given(e1=st.floats(0, 10), e2=st.floats(0, 10),
           lam=st.floats(0.01, 0.99), m=st.floats(2.0, 5.0))
    @settings(max_examples=200)
    def test_convexity(self, e1, e2, lam, m):
        for c in (EffortCost(k=1.5),
                  EffortCost(family="power_convex", k=1.5, exponent=m)):
            mid = effort_cost(c, lam * e1 + (1 - lam) * e2)
            chord = lam * effort_cost(c, e1) + (1 - lam) * effort_cost(c, e2)
            assert mid <= chord + 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            EffortCost(k=0.0)
        with pytest.raises(DomainError):
            EffortCost(family="power_convex", exponent=1.5)
        with pytest.raises(DomainError):
            RevenueTechnology(family="power", beta=1.2)
        with pytest.raises(DomainError):
            RevenueTechnology(family="nope")
        demand = dict(family="linear_demand", usage_per_revenue=1.0)
        for bad in (math.nan, math.inf):
            for make in (lambda: RevenueTechnology(family="linear", scale=bad),
                         lambda: RevenueTechnology(family="power", beta=bad),
                         lambda: RevenueTechnology(family="linear", beta=bad),
                         lambda: RevenueTechnology(demand_base=bad, **demand),
                         lambda: RevenueTechnology(demand_quality=bad, **demand),
                         lambda: RevenueTechnology(demand_slope=bad, **demand),
                         lambda: EffortCost(k=bad),
                         lambda: EffortCost(family="power_convex", exponent=bad),
                         lambda: DeveloperProfile(
                             id="d", tech=RevenueTechnology(family="linear"),
                             cost=EffortCost(), ad_revenue=bad),
                         lambda: PlatformParams(marginal_cost=bad, population=[])):
                with pytest.raises(DomainError):
                    make()


class TestFamilyTags:
    """A family tag only names fixed parameter values: linear is power with
    beta = 1, quadratic is power_convex with m = 2. Another value is an
    error, not a silently ignored parameter."""

    def test_linear_with_another_beta_raises(self):
        with pytest.raises(DomainError, match="beta = 1"):
            RevenueTechnology(family="linear", beta=0.5)

    def test_quadratic_with_another_exponent_raises(self):
        with pytest.raises(DomainError, match="exponent 2"):
            EffortCost(family="quadratic", exponent=3.0)

    def test_every_family_bounds_beta_and_exponent(self):
        with pytest.raises(DomainError, match=r"beta must be in \(0, 1\]"):
            RevenueTechnology(family="linear_demand", beta=0.0,
                              usage_per_revenue=1.0)
        with pytest.raises(DomainError, match="exponent must be >= 2"):
            EffortCost(family="quadratic", exponent=1.5)


class TestCommissionPolicy:
    def test_flat(self):
        p = CommissionPolicy.flat(0.25)
        assert p.commission(100.0) == pytest.approx(25.0)
        assert p.marginal_rate(1e9) == 0.25

    def test_degressive_bands(self):
        p = CommissionPolicy.degressive([(0.0, 0.30), (100.0, 0.20),
                                         (1000.0, 0.10)])
        assert p.commission(50.0) == pytest.approx(15.0)
        assert p.commission(100.0) == pytest.approx(30.0)
        assert p.commission(200.0) == pytest.approx(30.0 + 20.0)
        assert p.marginal_rate(500.0) == 0.20

    def test_breakpoints_must_increase(self):
        with pytest.raises(DomainError):
            CommissionPolicy.degressive([(0.0, 0.3), (100.0, 0.2), (100.0, 0.1)])
        with pytest.raises(DomainError):
            CommissionPolicy.degressive([(10.0, 0.3)])
        with pytest.raises(DomainError):
            CommissionPolicy.degressive([(0.0, 0.3), (math.nan, 0.2)])

    def test_rate_bounds(self):
        with pytest.raises(DomainError):
            CommissionPolicy.flat(1.3)
        with pytest.raises(DomainError):
            CommissionPolicy.flat(0.2, ad_share=-0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                CommissionPolicy.flat(0.2, activity_threshold=bad)

    @given(r=st.floats(0.0, 1.0), g=st.floats(0.0, 1.7e308))
    @example(r=0.3, g=5e-324)
    @example(r=0.7, g=1.7e308)
    @settings(max_examples=500)
    def test_one_band_charges_the_flat_rate(self, r, g):
        # the one-band loop gives the bits of the flat product r * g
        p = CommissionPolicy.flat(r)
        assert p.commission(g).hex() == (r * g).hex()
        assert p.marginal_rate(g) == r
        assert CommissionPolicy.degressive([(0, r)]) == p

    @given(g1=st.floats(0, 1e6), g2=st.floats(0, 1e6))
    @settings(max_examples=200)
    def test_degressive_total_nondecreasing(self, g1, g2):
        p = CommissionPolicy.degressive([(0.0, 0.30), (100.0, 0.25),
                                         (500.0, 0.15)])
        lo, hi = sorted((g1, g2))
        assert p.commission(lo) <= p.commission(hi) + 1e-9

    @given(g=st.floats(0, 1e6), eps=st.floats(1e-9, 1.0))
    @settings(max_examples=200)
    def test_degressive_continuity(self, g, eps):
        p = CommissionPolicy.degressive([(0.0, 0.30), (100.0, 0.25),
                                         (500.0, 0.15)])
        assert abs(p.commission(g + eps) - p.commission(g)) <= 0.30 * eps + 1e-9


class TestBusinessModelValidation:
    def test_negative_fees_rejected(self, canonical_profile):
        with pytest.raises(DomainError):
            PayPerTokenModel(token_price=-1.0)
        fee_models = (
            lambda v: PayPerTokenModel(token_price=v),
            lambda v: SubscriptionModel(fee=v),
            lambda v: FreemiumModel(free_quota=v),
            lambda v: FreemiumModel(overage_price=v),
            lambda v: MarketplaceModel(commission=v),
            lambda v: MarketplaceModel(token_price=v),
        )
        for bad in (math.nan, math.inf):
            for make in fee_models:
                with pytest.raises(DomainError):
                    make(bad)
        ppt = PayPerTokenModel(token_price=0.1)
        for cost, capital in ((math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan)):
            with pytest.raises(DomainError):
                evaluate_model(canonical_profile, ppt, cost, capital)


DEMAND = dict(family="linear_demand", usage_per_revenue=1.0)


@pytest.mark.parametrize("make,message", [
    (lambda: RevenueTechnology("linear", scale=0.0), "scale must be positive"),
    (lambda: RevenueTechnology(demand_base=-1.0, **DEMAND),
     "demand_base and demand_quality must be >= 0"),
    (lambda: RevenueTechnology(demand_slope=0.0, **DEMAND),
     "demand_slope must be positive"),
    (lambda: RevenueTechnology("linear_demand"),
     "linear_demand requires usage_per_revenue"),
    (lambda: EffortCost("cubic"), "unknown cost family 'cubic'"),
    (lambda: CommissionPolicy(()), "degressive schedule must start at threshold 0"),
    (lambda: CommissionPolicy.flat(0.2).commission(-1.0),
     "gross revenue must be >= 0"),
    (lambda: revenue(RevenueTechnology(demand_base=1.0, **DEMAND), 1.0, 0.0),
     "price must be positive"),
    (lambda: marginal_effort_cost(EffortCost(), -1.0), "effort must be >= 0"),
    (lambda: CommissionPolicy.degressive([("0", 0.3)]),
     "degressive threshold must be a real number, not str"),
    (lambda: CommissionPolicy.degressive([(0, "0.3")]),
     "rate must be a real number, not str"),
    (lambda: CommissionPolicy.flat(True), "rate must be a real number, not bool"),
    (lambda: CommissionPolicy.flat(Decimal("0.3")),
     "rate must be a real number, not Decimal"),
    (lambda: CommissionPolicy.flat(0.3, ad_share="1"),
     "ad_share must be a real number, not str"),
    (lambda: CommissionPolicy.flat(0.3, ad_share=False),
     "ad_share must be a real number, not bool"),
    (lambda: CommissionPolicy.flat(0.3, activity_threshold="5"),
     "activity_threshold must be a real number, not str"),
], ids=["scale", "demand-sign", "demand-slope", "demand-usage", "cost-family",
        "policy-no-bands", "commission-gross", "price",
        "marginal-cost-effort", "policy-threshold-str", "policy-rate-str",
        "policy-rate-bool", "policy-rate-decimal", "policy-ad-share-str",
        "policy-ad-share-bool", "policy-activity-str"])
def test_rejection_message(make, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        make()
