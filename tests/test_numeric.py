"""The golden-section stopping rule: a bracket within 1e-12 of its larger
end, so an optimum is found to a relative accuracy at every scale."""

import pytest
from hypothesis import example, given, settings, strategies as st

from revshare.numeric import golden_section_max, grid_then_golden


@pytest.mark.parametrize("search", [golden_section_max, grid_then_golden])
@settings(max_examples=300, deadline=None)
@given(x_star=st.floats(-14.0, 6.0).map(lambda u: 10.0 ** u),
       hi=st.sampled_from([2.0, 1e3, 1e6]))
@example(x_star=0.0, hi=2.0)  # an optimum at 0 is returned exactly
@example(x_star=0.0, hi=1e6)
def test_optimum_found_to_relative_accuracy(search, x_star, hi):
    x_star = min(x_star, hi)
    x = search(lambda e: -(e - x_star) ** 2, 0.0, hi)
    assert abs(x - x_star) <= 1e-9 * x_star
