import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revshare.model import (CommissionPolicy, DeveloperProfile, DomainError,
                            EffortCost, PlatformParams, RevenueTechnology,
                            require_finite_nonneg)
from revshare.optimizer import platform_profit
from revshare.participation import (MAX_POOL_CELLS, SweepResult, participate,
                                    rate_grid, sweep)

from conftest import participation_counts, random_profiles


def make_dev(dev_id, pi0):
    return DeveloperProfile(
        id=dev_id, tech=RevenueTechnology(family="linear", scale=1.0),
        cost=EffortCost(k=1.0), reservation_profit=pi0)


class TestParticipate:
    def test_single_developer_enters(self, canonical_profile):
        # pi = (1-0.6)*0.4 - 0.4^2/2 = 0.08 >= 0
        res = participate([canonical_profile], 0.6)
        assert res.count == 1
        assert res.entry_profits["dev-00000"] == pytest.approx(0.08, abs=1e-12)

    def test_full_commission_excludes_positive_reservation(self):
        pop = [make_dev(f"d{i}", 0.01) for i in range(5)]
        assert participate(pop, 1.0).count == 0

    def test_threshold_ordering(self):
        pop = [make_dev("d0", 0.01), make_dev("d1", 0.08), make_dev("d2", 0.2)]
        res = participate(pop, 0.6)
        assert res.count == 2  # pi = 0.08 clears 0.01 and 0.08 (weak), not 0.2
        assert res.entrants == ("d0", "d1")

    def test_empty_population(self):
        res = participate([], 0.5)
        assert res.count == 0
        assert res.entrants == ()

    def test_duplicate_ids_rejected(self):
        pop = [make_dev("d0", 0.0), make_dev("d1", 0.0), make_dev("d0", 0.0)]
        with pytest.raises(DomainError, match="duplicate developer id 'd0'"):
            participate(pop, 0.5)

    def test_entry_condition_bipartition(self):
        pop = random_profiles(40, seed=21, reservation_hi=0.3)
        res = participate(pop, 0.4)
        from revshare.best_response import solve_effort
        for p in pop:
            pi = solve_effort(p, 0.4).net_profit
            if p.id in res.entrants:
                assert pi >= p.reservation_profit
            else:
                assert pi < p.reservation_profit

    def test_degressive_policy_rejected(self, canonical_profile):
        policy = CommissionPolicy.degressive([(0.0, 0.3), (1.0, 0.1)])
        params = PlatformParams(marginal_cost=0.1, population=[canonical_profile])
        for evaluate in (lambda: participate([canonical_profile], None, policy),
                         lambda: participate([canonical_profile], 0.3, policy),
                         lambda: platform_profit(params, policy),
                         lambda: platform_profit(params, policy, alpha=0.3)):
            with pytest.raises(DomainError, match="degressive policy"):
                evaluate()


class TestParticipationCurve:
    """N(alpha) as ``sweep`` reports it."""

    def test_zero_reservation_always_in_below_one(self, canonical_profile):
        counts = participation_counts([canonical_profile],
                                      [0.0, 0.25, 0.5, 0.75, 0.99])
        assert counts == (1,) * 5

    def test_empty_population_all_zero(self):
        assert participation_counts([], [0.0, 0.5, 1.0]) == (0, 0, 0)

    def test_unsorted_grid_rejected(self, canonical_profile):
        with pytest.raises(DomainError, match="sorted ascending"):
            sweep([canonical_profile], [0.5, 0.2], 0.0)

    def test_rate_outside_unit_interval_rejected(self, canonical_profile):
        with pytest.raises(DomainError, match="rate out of"):
            sweep([canonical_profile], [0.5, 1.5], 0.0)

    def test_analytic_crosscheck_uniform_reservations(self):
        # pi(alpha) = A^2 (1-alpha)^2 / (2k) = (1-alpha)^2/2 here
        rng = np.random.default_rng(123)
        pi0 = rng.uniform(0.0, 0.1, size=100)
        pop = [make_dev(f"d{i:03d}", float(x)) for i, x in enumerate(pi0)]
        for alpha in (0.0, 0.6):
            expected = int(np.sum(pi0 <= (1 - alpha) ** 2 / 2 + 1e-12))
            assert participate(pop, alpha).count == expected

    def test_nonincreasing_on_random_populations(self):
        grid = list(np.linspace(0, 1, 11))
        for seed in range(5):
            pop = random_profiles(30, seed=seed, reservation_hi=0.4)
            counts = participation_counts(pop, grid)  # asserts non-increasing
            assert list(counts) == sorted(counts, reverse=True)

    def test_deterministic(self):
        pop = random_profiles(20, seed=77, reservation_hi=0.2)
        grid = list(np.linspace(0, 1, 21))
        assert sweep(pop, grid, 0.1) == sweep(pop, grid, 0.1)


class TestRateGrid:
    @pytest.mark.parametrize("step", [1e-3, 1e-2, 0.3, 1.0])
    def test_unit_interval_is_i_over_n(self, step):
        n = int(round(1 / step))
        assert rate_grid(0.0, 1.0, step) == [i / n for i in range(n + 1)]

    def test_sub_interval_includes_both_ends(self):
        grid = rate_grid(0.1, 0.9, 0.2)
        assert len(grid) == 5 and grid[0] == 0.1 and grid[-1] == 0.9

    def test_step_larger_than_range_rejected(self):
        with pytest.raises(DomainError,
                           match="empty sweep grid: step larger than range"):
            rate_grid(0.2, 0.3, 0.5)

    @pytest.mark.parametrize("lo,hi,step,message", [
        (0.0, 1.0, 0.0, "step > 0"),
        (0.0, 1.0, -0.1, "step > 0"),
        (0.0, 1.0, math.nan, "finite"),
        (math.nan, 1.0, 0.1, "finite"),
        (0.0, math.nan, 0.1, "finite"),
        (0.0, math.inf, 0.1, "finite"),
        (-math.inf, 1.0, 0.1, "finite"),
        (0.0, 1.0, math.inf, "finite"),
        (0.0, 1.0, 1e-300, f"more than {MAX_POOL_CELLS} rates"),
        (-1e308, 1e308, 1.0, f"more than {MAX_POOL_CELLS} rates"),
        (0.0, 1.0, 1e-7, f"more than {MAX_POOL_CELLS} rates"),
        (0.3, 0.2, 0.1, "empty sweep grid: step larger than range"),
    ])
    def test_bad_grid_is_a_domain_error_before_allocating(self, lo, hi, step,
                                                          message):
        with pytest.raises(DomainError, match=re.escape(message)):
            rate_grid(lo, hi, step)


def reference_sweep(population, alpha_grid, marginal_cost, policy=None):
    """The scalar reference: one ``participate`` pass per rate."""
    if any(a2 < a1 for a1, a2 in zip(alpha_grid, alpha_grid[1:])):
        raise DomainError("alpha grid must be sorted ascending")
    require_finite_nonneg("marginal_cost", marginal_cost)
    profits, counts, means, surplus = [], [], [], []
    best_a, best_pi = math.nan, -math.inf
    for a in alpha_grid:
        res = participate(population, a, policy, marginal_cost)
        profits.append(res.platform_profit)
        counts.append(res.count)
        means.append(res.developer_surplus / res.count if res.count else 0.0)
        surplus.append(res.developer_surplus)
        if res.platform_profit > best_pi:
            best_a, best_pi = a, res.platform_profit
    return SweepResult(alphas=tuple(alpha_grid),
                       platform_profits=tuple(profits),
                       entrant_counts=tuple(counts),
                       mean_developer_profits=tuple(means),
                       total_developer_surplus=tuple(surplus),
                       argmax_alpha=best_a)


@st.composite
def developers(draw, dev_id):
    """Every revenue and cost family; linear_demand stays bounded because
    b^2 / (2d) <= 1/2 < k under quadratic cost."""
    family = draw(st.sampled_from(["linear", "power", "linear_demand"]))
    kappa = draw(st.one_of(st.none(), st.floats(0.1, 2.0)))
    if family == "linear_demand":
        tech = RevenueTechnology(
            family, demand_base=draw(st.floats(0.0, 1.0)),
            demand_quality=draw(st.floats(0.0, 1.0)),
            demand_slope=draw(st.floats(1.0, 2.0)),
            usage_per_revenue=0.5 if kappa is None else kappa)
    else:
        beta = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
        tech = RevenueTechnology(family, scale=draw(st.floats(0.5, 2.0)),
                                 beta=beta if family == "power" else 1.0,
                                 usage_per_revenue=kappa)
    cost = draw(st.sampled_from(["quadratic", "power_convex"]))
    return DeveloperProfile(
        id=dev_id, tech=tech,
        cost=EffortCost(cost, k=draw(st.floats(1.0, 2.0)),
                        exponent=draw(st.floats(2.0, 4.0))
                        if cost == "power_convex" else 2.0),
        reservation_profit=draw(st.floats(0.0, 0.3)),
        ad_revenue=draw(st.one_of(st.just(0.0), st.floats(0.01, 0.5))))


@st.composite
def populations(draw, max_size=6):
    ids = draw(st.lists(st.text("abcdef", min_size=1, max_size=3),
                        unique=True, max_size=max_size))
    return [draw(developers(i)) for i in ids]


flat_policies = st.one_of(st.none(), st.builds(
    CommissionPolicy.flat, st.floats(0.0, 1.0),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0))))

grids = st.lists(st.floats(0.0, 1.0), max_size=8).map(
    lambda rates: sorted(rates + [0.0, 1.0]))


class TestSweepMatchesScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(pop=populations(), grid=grids, cost=st.floats(0.0, 1.0),
           policy=flat_policies)
    def test_every_field_bit_for_bit(self, pop, grid, cost, policy):
        fast = sweep(pop, grid, cost, policy)
        ref = reference_sweep(pop, grid, cost, policy)
        for field in dataclasses.fields(SweepResult):  # repr: exact floats
            assert repr(getattr(fast, field.name)) == \
                repr(getattr(ref, field.name)), field.name

    @pytest.mark.parametrize("grid", [[], [0.25], [0.0, 0.3, 0.3, 0.3, 1.0]],
                             ids=["empty", "one-rate", "repeated-rates"])
    def test_edge_grids_hold_python_numbers(self, grid):
        # a numpy scalar would print as np.float64(...) in every output
        pop = random_profiles(8, seed=3, reservation_hi=0.2) + [
            DeveloperProfile(id="z", tech=RevenueTechnology(
                "linear_demand", demand_base=0.6, demand_quality=0.4,
                usage_per_revenue=0.5), cost=EffortCost(k=1.2),
                ad_revenue=0.2)]
        policy = CommissionPolicy.flat(0.5, ad_share=0.3,
                                       activity_threshold=0.2)
        fast = sweep(pop, grid, 0.05, policy)
        ref = reference_sweep(pop, grid, 0.05, policy)  # participate's floats
        assert repr(fast) == repr(ref)
        for result in (fast, ref):
            for name in ("platform_profits", "mean_developer_profits",
                         "total_developer_surplus"):
                assert all(type(x) is float for x in getattr(result, name))
            assert all(type(n) is int for n in result.entrant_counts)
            assert type(result.argmax_alpha) is float

    @settings(max_examples=100, deadline=None)
    @given(pop=populations(max_size=3), data=st.data(),
           grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           policy=st.one_of(flat_policies, st.just(
               CommissionPolicy.degressive([(0.0, 0.3), (1.0, 0.1)]))))
    def test_invalid_input_raises_the_same_error(self, pop, data, grid,
                                                 policy):
        defects = data.draw(st.sets(st.sampled_from(
            ["unsorted", "rate", "duplicate"]), min_size=1))
        grid = sorted(grid)
        if "unsorted" in defects:
            grid = sorted(grid + [0.5, 0.6], reverse=True)
        if "rate" in defects:
            grid.insert(data.draw(st.integers(0, len(grid))),
                        data.draw(st.sampled_from([-0.5, 1.5, math.nan])))
        if "duplicate" in defects:
            pop = pop + [make_dev(pop[0].id if pop else "a", 0.0)] * 2

        def outcome(f):
            try:
                return repr(f(pop, grid, 0.1, policy))
            except DomainError as exc:
                return f"DomainError: {exc}"

        fast = outcome(sweep)
        assert fast.startswith("DomainError: ")
        assert fast == outcome(reference_sweep)
