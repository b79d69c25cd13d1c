import numpy as np
import pytest

from revshare.model import DeveloperProfile, DomainError, EffortCost, RevenueTechnology
from revshare.participation import participate, participation_curve, rate_grid

from conftest import random_profiles


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


class TestParticipationCurve:
    def test_zero_reservation_always_in_below_one(self, canonical_profile):
        curve = participation_curve([canonical_profile],
                                    [0.0, 0.25, 0.5, 0.75, 0.99])
        assert all(n == 1 for _, n in curve)

    def test_empty_population_all_zero(self):
        curve = participation_curve([], [0.0, 0.5, 1.0])
        assert all(n == 0 for _, n in curve)

    def test_unsorted_grid_rejected(self, canonical_profile):
        with pytest.raises(DomainError):
            participation_curve([canonical_profile], [0.5, 0.2])

    def test_rate_outside_unit_interval_rejected(self, canonical_profile):
        with pytest.raises(DomainError, match="rate out of"):
            participation_curve([canonical_profile], [0.5, 1.5])

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
            curve = participation_curve(pop, grid)  # raises if increasing
            counts = [n for _, n in curve]
            assert counts == sorted(counts, reverse=True)

    def test_deterministic(self):
        pop = random_profiles(20, seed=77, reservation_hi=0.2)
        grid = list(np.linspace(0, 1, 21))
        assert participation_curve(pop, grid) == participation_curve(pop, grid)


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
