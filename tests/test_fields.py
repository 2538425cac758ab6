"""Grid construction: the node cap holds before any array exists."""

import pytest
from hypothesis import given, settings, strategies as st

from chemowave.errors import DomainError
from chemowave.fields import MAX_NODES, Grid


def test_grid_node_cap():
    with pytest.raises(DomainError, match="exceeds the cap"):
        Grid.from_bounds(-100.0, 100.0, 1e-9)        # 2e11 nodes
    with pytest.raises(DomainError, match="non-finite node count"):
        Grid.from_bounds(-100.0, 100.0, 5e-324)      # (right - left) / h = inf
    with pytest.raises(DomainError, match="exceeds the cap"):
        Grid(0.0, 1.0, MAX_NODES + 1)
    assert Grid.from_bounds(-100.0, 100.0, 0.05).n == 4001


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500)
@given(left=finite, right=finite, h=finite)
def test_from_bounds_is_capped_grid_or_domain_error(left, right, h):
    try:
        grid = Grid.from_bounds(left, right, h)
    except DomainError:
        return
    assert 8 <= grid.n <= MAX_NODES
