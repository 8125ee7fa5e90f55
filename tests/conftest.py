import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from equigraph.algebra import AlphaContext, AlphaSpec
from equigraph.graph import IntervalGraph

SQRT2_MINUS_1 = AlphaSpec(-1, 1, 2, 1)
SQRT3_MINUS_1 = AlphaSpec(-1, 1, 3, 1)
GOLDEN_CONJUGATE = AlphaSpec(-1, 1, 5, 2)  # (sqrt(5) - 1) / 2, above 1/2

ALL_ALPHAS = (SQRT2_MINUS_1, SQRT3_MINUS_1, GOLDEN_CONJUGATE)
# (7 - 2*sqrt(5)) / 3: negative q and r = 3 exercise every term of the
# denominator-cleared sign
SEVEN_MINUS_TWO_SQRT5_OVER_3 = AlphaSpec(7, -2, 5, 3)
KERNEL_ALPHAS = ALL_ALPHAS + (SEVEN_MINUS_TWO_SQRT5_OVER_3,)


@pytest.fixture(scope="session")
def ctx():
    return AlphaContext(SQRT2_MINUS_1)


@pytest.fixture(scope="session")
def graph(ctx):
    return IntervalGraph(ctx)


@pytest.fixture(scope="session")
def golden_ctx():
    return AlphaContext(GOLDEN_CONJUGATE)


@pytest.fixture(scope="session")
def golden_graph(golden_ctx):
    return IntervalGraph(golden_ctx)
