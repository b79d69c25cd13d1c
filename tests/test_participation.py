import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revshare.model import (CommissionPolicy, DeveloperProfile, DomainError,
                            EffortCost, PlatformParams, RevenueTechnology,
                            require_finite_nonneg)
from revshare.montecarlo import PopulationSpec, generate_population
from revshare.optimizer import platform_profit
from revshare.participation import (MAX_POOL_CELLS, SweepResult,
                                    entrant_profit, participate, rate_grid,
                                    sweep)

from conftest import (cubed_overflowing, overflowing, participation_counts,
                      random_profiles)


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


def full_entrant_profit(alpha, gross, usage, ad_share, ad, threshold, cost):
    """entrant_profit's formula with every step taken, mask and ad term too."""
    return (alpha * gross) * (usage >= threshold) + ad_share * ad - cost * usage


def same_bits(got, want, rate=1.0):
    """Bit for bit (NaNs alike). At rate -0.0 a skipped +0.0 ad term may leave
    -0.0 where the full formula has +0.0; every total starts at +0.0 and
    erases that sign, so there both are compared as added to +0.0."""
    got, want = np.atleast_1d(got).tolist(), np.atleast_1d(want).tolist()
    if math.copysign(1.0, rate) < 0:
        got, want = [0.0 + x for x in got], [0.0 + x for x in want]
    return list(map(float.hex, got)) == list(map(float.hex, want))


class TestEntrantProfitShortcuts:
    """entrant_profit skips the activity mask at threshold 0 and a zero ad
    term; each cell must match the formula that takes every step."""

    rates = [0.0, -0.0, 1.0, *np.random.default_rng(5).random(4).tolist()]
    # usage 0, below and above 0.3, infinite (0 * inf is NaN), and a NaN
    # usage with its NaN gross, as an overflowing row gives
    gross = [0.0, 0.8, 2.5, 1.7, 3.0, math.nan]
    usage = [0.0, 0.2, 0.9, 1.3, math.inf, math.nan]

    @pytest.mark.parametrize("threshold", [0.0, 0.3])
    @pytest.mark.parametrize("ad_share,ad", [(0.0, 0.0), (0.0, 0.7),
                                             (0.4, 0.0), (0.4, 0.7)])
    @pytest.mark.parametrize("cost", [0.0, 0.2])
    def test_float_and_row_match_the_full_formula(self, threshold, ad_share,
                                                  ad, cost):
        policy = CommissionPolicy.flat(0.5, ad_share, threshold)
        gross, usage = np.array(self.gross), np.array(self.usage)
        with np.errstate(invalid="ignore"):
            for alpha in self.rates:
                for g, u in zip(self.gross, self.usage):
                    got = entrant_profit(ad, g, u, policy, cost, alpha)
                    want = full_entrant_profit(alpha, g, u, ad_share, ad,
                                               threshold, cost)
                    assert type(got) is float
                    assert same_bits(got, want, alpha), (alpha, g, u)
                got = entrant_profit(ad, gross, usage, policy, cost,
                                     np.full(len(gross), alpha))
                want = full_entrant_profit(alpha, gross, usage, ad_share, ad,
                                           threshold, cost)
                assert same_bits(got, want, alpha), alpha

    @pytest.mark.parametrize("threshold", [0.0, 0.3])
    @pytest.mark.parametrize("ad_share,ad", [(0.0, 0.7), (0.4, 0.0),
                                             (0.4, 0.7)])
    def test_the_policys_own_schedule(self, threshold, ad_share, ad):
        policy = CommissionPolicy.degressive([(0.0, 0.3), (1.0, 0.1)],
                                             ad_share, threshold)
        for g, u in zip(self.gross[:-1], self.usage[:-1]):
            for cost in (0.0, 0.2):
                with np.errstate(invalid="ignore"):
                    want = policy.commission(g) * (u >= threshold) + \
                        ad_share * ad - cost * u
                assert same_bits(entrant_profit(ad, g, u, policy, cost),
                                 want)


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

    @pytest.mark.parametrize("policy", [
        None, CommissionPolicy.flat(0.5, ad_share=0.3),
        CommissionPolicy.flat(0.5, activity_threshold=0.2)])
    @pytest.mark.parametrize("cost", [0.0, 0.05])
    def test_grid_from_negative_zero(self, policy, cost):
        # at rate -0.0 an entrant with no ad term and no serving cost yields
        # -0.0; each per-rate total starts at +0.0 and stays +0.0
        pop = random_profiles(6, seed=9, reservation_hi=0.1) + [
            DeveloperProfile(id="y", tech=RevenueTechnology(
                "power", scale=1.4, beta=0.6, usage_per_revenue=0.8),
                cost=EffortCost(k=1.1), ad_revenue=0.3),
            DeveloperProfile(id="z", tech=RevenueTechnology(
                "linear_demand", demand_base=0.6, demand_quality=0.4,
                usage_per_revenue=0.5), cost=EffortCost(k=1.2))]
        grid = [-0.0, 0.0, 0.25, 0.5, 1.0]
        fast = sweep(pop, grid, cost, policy)
        assert repr(fast) == repr(reference_sweep(pop, grid, cost, policy))
        for name in ("platform_profits", "entrant_counts",
                     "mean_developer_profits", "total_developer_surplus"):
            at_minus_zero, at_zero = getattr(fast, name)[:2]
            assert repr(at_minus_zero) == repr(at_zero), name


class TestSweepOverPopulation:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**40), size=st.integers(0, 30),
           power=st.sampled_from([0.0, 0.5, 1.0]), grid=grids,
           cost=st.floats(0.0, 1.0), policy=flat_policies)
    def test_columns_list_and_reference_bit_for_bit(self, seed, size, power,
                                                    grid, cost, policy):
        pop = generate_population(PopulationSpec(
            size=size, seed=seed,
            family_mix=(("linear", 1.0 - power), ("power", power))))
        fast = repr(sweep(pop, grid, cost, policy))
        assert fast == repr(sweep(list(pop), grid, cost, policy))
        assert fast == repr(reference_sweep(pop, grid, cost, policy))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**40), others=populations(max_size=4),
           grid=grids, cost=st.floats(0.0, 1.0), policy=flat_policies)
    def test_mixed_list_bit_for_bit(self, seed, others, grid, cost, policy):
        # generated developers among linear_demand, power_convex, kappa and
        # ad revenue, in no particular order
        generated = list(generate_population(PopulationSpec(size=6, seed=seed)))
        mixed = others[:2] + generated[::-1] + others[2:]
        fast = sweep(mixed, grid, cost, policy)
        assert repr(fast) == repr(reference_sweep(mixed, grid, cost, policy))

    def test_the_rates_are_checked_without_a_policy_each(self, monkeypatch):
        built = []
        flat = CommissionPolicy.flat

        def counted(*args):
            built.append(args)
            return flat(*args)

        monkeypatch.setattr(CommissionPolicy, "flat", staticmethod(counted))
        pop = generate_population(PopulationSpec(size=5, seed=1))
        sweep(pop, rate_grid(0.0, 1.0, 1e-3), 0.1)
        assert len(built) == 0
        with pytest.raises(DomainError, match=re.escape("rate out of [0,1]")):
            sweep(pop, [0.0, 0.5, math.nan], 0.1)


class TestMissingRate:
    @pytest.mark.parametrize("policy", [None, CommissionPolicy.flat(0.2),
                                        CommissionPolicy.flat(0.2, 0.5, 0.1)])
    def test_participate_without_alpha_names_alpha(self, canonical_profile,
                                                   policy):
        with pytest.raises(DomainError, match="alpha"):
            participate([canonical_profile], None, policy)


def linear(dev_id, scale, k=1.0, pi0=0.0):
    return DeveloperProfile(
        id=dev_id, tech=RevenueTechnology(family="linear", scale=scale),
        cost=EffortCost(k=k), reservation_profit=pi0)


# developers that validate but overflow a float at some rate: the best
# response, its cubed effort, the entrants' total, a non-entrant's cost
OVERFLOWING = [
    [overflowing()],
    [dataclasses.replace(cubed_overflowing(), id="cubed")],
    [linear(f"d{i}", 1.3e154) for i in range(5)],
    [linear("n", 2.0, pi0=10.0)],
]


def outcome(f, *args):
    try:
        return repr(f(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


class TestSweepMatchesReferenceOnOverflow:
    @settings(max_examples=300, deadline=None)
    @given(pop=populations(), picks=st.lists(st.sampled_from(OVERFLOWING),
                                             min_size=1, max_size=3, unique_by=id),
           grid=grids, cost=st.sampled_from([0.0, 0.1, 1e308]),
           policy=flat_policies)
    def test_same_result_or_same_error(self, pop, picks, grid, cost, policy):
        pop = pop + [p for group in picks for p in group]
        assert outcome(sweep, pop, grid, cost, policy) == \
            outcome(reference_sweep, pop, grid, cost, policy)

    def test_overflowing_total_names_the_rate(self):
        # before, participate returned inf and sweep blamed developer 'd2',
        # whose best response is finite
        pop = OVERFLOWING[2]
        with pytest.raises(DomainError, match=re.escape(
                "at alpha 0.5: the entrants' total overflows a float")):
            participate(pop, 0.5)
        with pytest.raises(DomainError, match=re.escape(
                "at alpha 0.0: the entrants' total overflows a float")):
            sweep(pop, [0.0, 0.5], 0.0)

    def test_non_entrant_serving_cost_is_left_out(self):
        # before, sweep raised "developer 'n' at alpha 0.0" though no rate
        # has an entrant
        pop = OVERFLOWING[3]
        fast = sweep(pop, [0.0, 0.5, 1.0], 1e308)
        assert fast.entrant_counts == (0, 0, 0)
        assert repr(fast) == repr(reference_sweep(pop, [0.0, 0.5, 1.0], 1e308))

    @pytest.mark.parametrize("cost", [-1.0, math.nan, math.inf])
    def test_participate_rejects_a_bad_serving_cost(self, canonical_profile,
                                                    cost):
        # before, a platform profit of 0.75, nan and -inf
        with pytest.raises(DomainError,
                           match="marginal_cost must be finite and >= 0"):
            participate([canonical_profile], 0.5, None, cost)
