"""Exception types shared across the package."""


class EllrookError(Exception):
    """Base class for package-specific errors."""


class ZeroArgument(EllrookError, ValueError):
    """Theta function evaluated at argument 0 (a pole of infinite order)."""


class NoConvergence(EllrookError, ArithmeticError):
    """Theta product did not reach the truncation tolerance within max_terms."""


class PoleEncountered(EllrookError, ArithmeticError):
    """A denominator factor vanished: the parameter point is not generic."""


class IllConditioned(EllrookError, ArithmeticError):
    """Cancellation at this point exceeds what doubles can resolve; a
    near-pole or near-zero of a theta factor makes the check meaningless."""


class ResamplesExhausted(EllrookError, ArithmeticError):
    """Every parameter point the harness drew within its resample budget
    failed numerically; the message names the last failure."""


class NotJAttackingBoard(EllrookError, ValueError):
    """Board violates the jump-attacking height condition."""


class UnknownIdentity(EllrookError, ValueError):
    """run_check was asked for an identity name that is not registered."""


class BadBoardSpec(EllrookError, ValueError):
    """A board specification could not be parsed, or its parameters give no
    board or nothing to compare."""
