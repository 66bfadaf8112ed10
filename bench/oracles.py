"""Reference values computed without ellrook.

Each function here re-derives a quantity from its definition (placements
counted by itertools, q-numbers in Fraction arithmetic, theta through
mpmath's q-Pochhammer symbol), so a workload can check ellrook's output
against something ellrook did not compute.  Nothing here compares against
a stored copy of earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def placement_counts(heights, kind: str) -> list[int]:
    """Number of k-rook placements for k = 0..n, by brute force.

    Every column holds no rook (0) or one rook in a row 1..height; rook
    placements also need distinct rows, file placements do not.
    """
    counts = [0] * (len(heights) + 1)
    for rows in product(*(range(h + 1) for h in heights)):
        used = [r for r in rows if r]
        if kind == "rook" and len(set(used)) != len(used):
            continue
        counts[len(used)] += 1
    return counts


def q_int(q: Fraction, m: int) -> Fraction:
    """The q-number [m]_q = (1 - q^m) / (1 - q), for any integer m."""
    return (1 - q**m) / (1 - q)


def rook_factorization_holds(heights, values, q) -> bool:
    """Garsia-Remmel: prod_i [z + b_i - i + 1] = sum_k R_{n-k} [z][z-1]..[z-k+1].

    values[k] is the k-rook number at weight q; checked for z = 0..n+1,
    enough points to pin every coefficient of the falling-factorial basis.
    """
    n = len(heights)
    for z in range(n + 2):
        lhs = math.prod(q_int(q, z + b - i + 1) for i, b in enumerate(heights, 1))
        rhs = sum(
            values[n - k] * math.prod(q_int(q, z - j) for j in range(k)) for k in range(n + 1)
        )
        if lhs != rhs:
            return False
    return True


def file_factorization_holds(heights, values, q, weighting: str) -> bool:
    """File analogue: sum_k F_{n-k} [z]^k = prod_i f_i(z), z = 0..n+1.

    Columns of a file placement are independent.  Row-only weighting gives
    f_i = q^{c_i}[z] + [c_i] = [z + c_i]; above-rook weighting gives
    f_i = [z] + [c_i].
    """
    n = len(heights)
    for z in range(n + 2):
        qz = q_int(q, z)
        if weighting == "row":
            lhs = math.prod(q_int(q, z + c) for c in heights)
        else:
            lhs = math.prod(qz + q_int(q, c) for c in heights)
        rhs = sum(values[n - k] * qz**k for k in range(n + 1))
        if lhs != rhs:
            return False
    return True


def jump_factorization_holds(heights, jump: int, values, q) -> bool:
    """Remmel-Wachs: prod_i [z + b_i - J(i-1)] = sum_k r_{n-k} prod_{j<k} [z - Jj].

    At q = 1 the q-numbers are plain integers, so this is the counting
    identity prod_i (z + b_i - J(i-1)) for the jump-attacking placements.
    """
    n = len(heights)
    num = (lambda m: m) if q == 1 else (lambda m: q_int(q, m))
    for z in range(n + 2):
        lhs = math.prod(num(z + b - jump * (i - 1)) for i, b in enumerate(heights, 1))
        rhs = sum(
            values[n - k] * math.prod(num(z - jump * j) for j in range(k)) for k in range(n + 1)
        )
        if lhs != rhs:
            return False
    return True


def theta_reference(x: complex, p: complex) -> complex:
    """theta(x; p) = (x; p)_inf (p/x; p)_inf, through mpmath at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        x_mp, p_mp = mpmath.mpc(x), mpmath.mpc(p)
        return complex(mpmath.qp(x_mp, p_mp) * mpmath.qp(p_mp / x_mp, p_mp))
