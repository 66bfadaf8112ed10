"""Elliptic rook theory: theta-weighted rook and file numbers on skyline
boards, their product formulas and recursions, elliptic special numbers,
explicit bijections, and a seeded identity verification harness."""

from .boards import SkylineBoard
from .errors import (
    BadBoardSpec,
    EllrookError,
    NoConvergence,
    NotJAttackingBoard,
    PoleEncountered,
    ResamplesExhausted,
    UnknownIdentity,
    ZeroArgument,
)
from .harness import CheckReport, SamplerConfig, run_check
from .theta import qp_shifted_factorial, theta, theta_multi
from .weights import (
    ABq,
    Aq,
    FrakPQ,
    FullElliptic,
    PlainQ,
    ZeroBq,
    q_binomial,
    q_factorial,
    q_falling,
    q_number,
    shift_params,
)

__all__ = [
    "ABq",
    "Aq",
    "BadBoardSpec",
    "CheckReport",
    "EllrookError",
    "FrakPQ",
    "FullElliptic",
    "NoConvergence",
    "NotJAttackingBoard",
    "PlainQ",
    "PoleEncountered",
    "ResamplesExhausted",
    "SamplerConfig",
    "SkylineBoard",
    "UnknownIdentity",
    "ZeroArgument",
    "ZeroBq",
    "q_binomial",
    "q_factorial",
    "q_falling",
    "q_number",
    "qp_shifted_factorial",
    "run_check",
    "shift_params",
    "theta",
    "theta_multi",
]
