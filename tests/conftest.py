from fractions import Fraction

import pytest

from regkit.rules import Rule, generate
from regkit.trees import Degree, TypeSet


@pytest.fixture(scope="session")
def ts():
    """Quartic-interaction style alphabet on parabolic space-time (one space dim):
    one noise of degree -5/2 - kappa, one kernel of degree 2."""
    return TypeSet.make(
        scaling=(2, 1),
        types={"Xi": Degree(Fraction(-5, 2), Fraction(-1)), "I": Degree(Fraction(2))},
        kappa=Fraction(1, 100),
    )


@pytest.fixture(scope="session")
def quartic_rule(ts):
    """Rule for a cubic nonlinearity driven by Xi: an I-edge may sit above a
    noise leaf or above (up to) three further I-edges."""
    z = ts.zero()
    return Rule.make(ts, {"I": [[("Xi", z)], [("I", z), ("I", z), ("I", z)]]})


@pytest.fixture(scope="session")
def uni(quartic_rule):
    """Quartic universe to degree 2 and five edges (115 trees)."""
    return generate(quartic_rule, Fraction(2), 5)
