import math

from ellrook.numeric import worst_error

NAN = float("nan")


def test_worst_error_is_max_of_finite_errors():
    assert worst_error() == 0.0
    assert worst_error(1e-12, 3e-9, 2e-10) == 3e-9


def test_worst_error_propagates_nan_and_inf():
    # max(0.0, nan) is 0.0: max() keeps its first argument when the next is NaN
    for errors in ((NAN, 1.0), (1.0, NAN), (0.0, NAN, 2.0), (math.inf, NAN)):
        assert math.isnan(worst_error(*errors))
    assert worst_error(1.0, math.inf, 2.0) == math.inf
