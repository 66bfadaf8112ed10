import math

import mpmath
import pytest

from ellrook.errors import IllConditioned
from ellrook.numeric import guard_condition, worst_error

NAN = float("nan")


def test_worst_error_is_max_of_finite_errors():
    assert worst_error() == 0.0
    assert worst_error(1e-12, 3e-9, 2e-10) == 3e-9


def test_worst_error_propagates_nan_and_inf():
    # max(0.0, nan) is 0.0: max() keeps its first argument when the next is NaN
    for errors in ((NAN, 1.0), (1.0, NAN), (0.0, NAN, 2.0), (math.inf, NAN)):
        assert math.isnan(worst_error(*errors))
    assert worst_error(1.0, math.inf, 2.0) == math.inf


def test_guard_condition_rejects_non_finite_sides_and_scales():
    # max(abs(lhs), abs(rhs)) would drop a NaN rhs; the guard sees each side
    for lhs, rhs, scale in (
        (1.0, complex(NAN, NAN), 1.0),
        (complex(NAN, 0), 1.0, 1.0),
        (1.0, complex(math.inf, 0), 1.0),
        (1.0, 1.0, NAN),
        (1.0, 1.0, math.inf),
    ):
        with pytest.raises(IllConditioned, match="non-finite"):
            guard_condition(scale, lhs, rhs, 1e6)


def test_guard_condition_judges_finite_points():
    guard_condition(1e5, 1.0, 0.5, 1e6)
    guard_condition(mpmath.mpf(1e5), mpmath.mpc(1, 1), mpmath.mpc(1, 1), 1e6)
    with pytest.raises(IllConditioned, match="cancellation ratio"):
        guard_condition(1e7, 1.0, 0.5, 1e6)
    with pytest.raises(IllConditioned, match="non-finite"):
        guard_condition(mpmath.mpf(1), mpmath.mpc("nan", 0), 1.0, 1e6)
