"""Acceptance suite: every numbered criterion runs at its pinned tolerance
and prints one PASS/FAIL line.  Counting anchors are exact; analytic checks
sample seeded generic points and resample on poles or on evaluations whose
cancellation exceeds what doubles resolve (counted, never judged)."""

import itertools
import random
from fractions import Fraction
from functools import partial

from ellrook import biject, special
from ellrook.boards import SkylineBoard, file_placements, j_rook_placements, rook_placements
from ellrook.errors import IllConditioned, PoleEncountered
from ellrook.files import file_number
from ellrook.harness import mp_family
from ellrook.jattack import (
    b_board,
    enumerate_rg_words,
    gen_stirling1,
    gen_stirling2,
    gen_stirling2_normalized,
    jump_enumeration_total,
    jump_product_check,
    phi,
    rg_word_weight_identity,
)
from ellrook.numeric import relative_error, worst_error
from ellrook.rook import (
    product_formula_check,
    q_rook_number,
    rect_rook_number_aq,
    rectangle,
    rook_number,
    rook_number_via_recursion,
)
from ellrook.theta import theta
from ellrook.weights import (
    Aq,
    FullElliptic,
    PlainQ,
    q_factorial,
    random_generic_point,
    random_z,
)

MAX_CONDITION = 1e6
TRIVIAL = PlainQ(1)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {status}{suffix}")


def _elliptic(rng) -> FullElliptic:
    a, b, q, p = random_generic_point(rng)
    return FullElliptic(a, b, q, p)


def _retry(rng, attempt, max_attempts: int = 80):
    """Evaluate attempt(fam, z) at fresh points until it is well posed."""
    for _ in range(max_attempts):
        fam = _elliptic(rng)
        z = random_z(rng)
        try:
            return attempt(fam, z)
        except (IllConditioned, PoleEncountered):
            continue
    raise AssertionError("no generic point found")


def ferrers_boards(n_max: int, h_max: int):
    for n in range(1, n_max + 1):
        for profile in itertools.combinations_with_replacement(range(h_max + 1), n):
            yield SkylineBoard(profile)


def test_criterion_01_rook_factorization_all_small_ferrers():
    rng = random.Random(101)
    base_points = [(_elliptic(rng), random_z(rng)) for _ in range(25)]
    boards = list(ferrers_boards(5, 5))
    worst, resamples = 0.0, 0
    for board in boards:
        for fam, z in base_points:
            while True:
                try:
                    err = product_formula_check(board, fam, z, MAX_CONDITION).rel_err
                    worst = worst_error(worst, err)
                    break
                except (IllConditioned, PoleEncountered):
                    resamples += 1
                    fam, z = _elliptic(rng), random_z(rng)
    ok = worst < 1e-8
    _report(
        "criterion 1: factorization theorem on all Ferrers boards n<=5",
        ok,
        f"boards={len(boards)} points=25 max_rel_err={worst:.2e} resamples={resamples}",
    )
    assert ok


def test_criterion_02_square_board_example():
    rng = random.Random(102)
    board = SkylineBoard((3, 3, 3))
    worst = 0.0
    for _ in range(50):
        def attempt(fam, _z):
            lhs = rook_number(board, 3, fam)
            rhs = fam.shifted(-3).number(3) * fam.shifted(-2).number(2)
            return relative_error(lhs, rhs)
        worst = worst_error(worst, _retry(rng, attempt))
    ok = worst < 1e-10
    _report(
        "criterion 2: full-rook value on the 3x3 board",
        ok,
        f"points=50 max_rel_err={worst:.2e}",
    )
    assert ok


def test_criterion_03_mahonian_anchor():
    rng = random.Random(103)
    values = [Fraction(2, 3), Fraction(3, 5), Fraction(5, 7), Fraction(7, 4), Fraction(9, 2)]
    while len(values) < 16:  # degree of the n = 6 polynomial is 15
        v = Fraction(rng.randrange(2, 60), rng.randrange(2, 60))
        if v != 1 and v not in values:
            values.append(v)
    ok = True
    for n in range(1, 7):
        board = rectangle(n, n)
        for q in values:
            if q_rook_number(board, n, q) != q_factorial(q, n):
                ok = False
    _report(
        "criterion 3: mahonian anchor r_n(q; [n]x[n]) = [n]_q!",
        ok,
        f"n<=6, {len(values)} exact rational q values",
    )
    assert ok


def test_criterion_04_carlitz_oracle():
    values = [Fraction(2, 3), Fraction(3, 5), Fraction(5, 7), Fraction(7, 4), Fraction(9, 2)]
    ok = True
    for q in values:
        fam = PlainQ(q)
        for n in range(1, 9):
            for k in range(n + 1):
                if special.stirling2(n, k, fam) != special.carlitz_stirling2_q(n, k, q):
                    ok = False
    _report(
        "criterion 4: Carlitz second-kind oracle",
        ok,
        "n<=8, all k, 5 exact rational q values",
    )
    assert ok


def _value_mag(row, k):
    """Entry k of row(k=k, magnitude=True), a transfer kernel pruned to k
    rooks, with its pre-cancellation magnitude."""
    values, magnitudes = row(k=k, magnitude=True)
    return values.get(k, 0), magnitudes.get(k, 0.0)


def _guarded_error(lhs, rhs, scale):
    from ellrook.numeric import guard_condition

    guard_condition(scale, lhs, rhs, MAX_CONDITION)
    return relative_error(lhs, rhs)


def test_criterion_05_recursions_match_enumerations():
    from ellrook.files import ROW_ONLY, file_number_via_recursion, file_row
    from ellrook.jattack import j_rook_row
    from ellrook.rook import rook_row

    rng = random.Random(105)
    worst = 0.0

    # rook-number recursion on every small Ferrers board
    for board in ferrers_boards(5, 5):
        def attempt(fam, _z):
            err = 0.0
            for k in range(board.n + 1):
                enum, mag = _value_mag(partial(rook_row, board, fam), k)
                rec = rook_number_via_recursion(board, k, fam)
                err = worst_error(err, _guarded_error(rec, enum, mag))
            return err
        worst = worst_error(worst, _retry(rng, attempt))

    # file-number recursion on sorted and shuffled skyline profiles
    profiles = [
        p
        for n in range(1, 6)
        for p in itertools.combinations_with_replacement(range(6), n)
    ]
    for profile in profiles:
        shuffled = list(profile)
        rng.shuffle(shuffled)
        for heights in (profile, tuple(shuffled)):
            board = SkylineBoard(heights)
            def attempt(fam, _z):
                err = 0.0
                for k in range(board.n + 1):
                    enum, mag = _value_mag(partial(file_row, board, fam, ROW_ONLY), k)
                    rec = file_number_via_recursion(board, k, fam)
                    err = worst_error(err, _guarded_error(rec, enum, mag))
                return err
            worst = worst_error(worst, _retry(rng, attempt))

    # generalized second-kind recursion over the offset/jump grid
    for offset in range(3):
        for jump in range(1, 4):
            if offset > jump:
                continue
            boards = {n: b_board(offset, jump, n) for n in range(1, 6)}
            def attempt(fam, _z):
                err = 0.0
                for n in range(1, 6):
                    for k in range(n + 1):
                        enum, mag = _value_mag(partial(j_rook_row, boards[n], jump, fam), n - k)
                        rec = special.via_recursion("gen-stirling2", n, k, fam, I=offset, J=jump)
                        err = worst_error(err, _guarded_error(rec, enum, mag))
                return err
            worst = worst_error(worst, _retry(rng, attempt))

    # Lah and restricted-Lah recursions, on enumerated values with scales
    def lah_vm(n, k, fam):
        if not 0 <= n - k <= n:
            return 0, 0.0
        return _value_mag(partial(rook_row, special.lah_board(n), fam), n - k)

    def lah_attempt(fam, _z):
        err = 0.0
        for n in range(1, 5):
            sh = fam.shifted(-n)
            for k in range(1, n + 2):
                lhs, lhs_mag = lah_vm(n + 1, k, fam)
                same, same_mag = lah_vm(n, k, fam)
                below, below_mag = lah_vm(n, k - 1, fam)
                coef_same = sh.number(n + k)
                coef_below = sh.big_weight(n + k - 1)
                rhs = coef_same * same + coef_below * below
                scale = max(
                    lhs_mag, abs(coef_same) * same_mag, abs(coef_below) * below_mag
                )
                err = worst_error(err, _guarded_error(lhs, rhs, scale))
        return err

    worst = worst_error(worst, _retry(rng, lah_attempt))

    def lah_r_vm(n, k, r, fam):
        if n < r or not 0 <= n - k <= n:
            return (1 if n == k == r - 1 else 0), 0.0
        return _value_mag(partial(rook_row, special.lah_board(n, r), fam), n - k)

    def lah_r_attempt(fam, _z):
        err = 0.0
        for r in (1, 2):
            shifted = fam.shifted(1 - r)
            for n in range(r, 5):
                sh = fam.shifted(-n)
                for k in range(r, n + 2):
                    lhs, lhs_mag = lah_r_vm(n + 1, k, r, shifted)
                    same, same_mag = lah_r_vm(n, k, r, shifted)
                    below, below_mag = lah_r_vm(n, k - 1, r, shifted)
                    coef_same = sh.number(n + k)
                    coef_below = sh.big_weight(n + k - 1)
                    rhs = coef_same * same + coef_below * below
                    scale = max(
                        lhs_mag, abs(coef_same) * same_mag, abs(coef_below) * below_mag
                    )
                    err = worst_error(err, _guarded_error(lhs, rhs, scale))
        return err

    worst = worst_error(worst, _retry(rng, lah_r_attempt))

    # first-kind recursion
    def stirling1_vm(n, k, fam):
        if not 0 <= n - k <= n:
            return 0, 0.0
        return _value_mag(partial(file_row, special.staircase(n), fam, ROW_ONLY), n - k)

    def stirling1_attempt(fam, _z):
        err = 0.0
        for n in range(5):
            sh = fam.shifted(-n)
            for k in range(n + 2):
                lhs, lhs_mag = stirling1_vm(n + 1, k, fam)
                same, same_mag = stirling1_vm(n, k, fam)
                below, below_mag = stirling1_vm(n, k - 1, fam)
                coef_same = sh.number(n)
                coef_below = sh.big_weight(n)
                rhs = coef_same * same + coef_below * below
                scale = max(
                    lhs_mag, abs(coef_same) * same_mag, abs(coef_below) * below_mag
                )
                err = worst_error(err, _guarded_error(lhs, rhs, scale))
        return err

    worst = worst_error(worst, _retry(rng, stirling1_attempt))

    # binomial-coefficient recursion (three-term, no enumeration involved)
    def binomial_attempt(fam, _z):
        err = 0.0
        for n in range(6):
            for k in range(n + 2):
                lhs = fam.binomial(n + 1, k)
                first = fam.binomial(n, k)
                rhs = first
                scale = abs(first)
                if k >= 1:
                    w = fam.scaled(k - 1, 2 * k - 2).big_weight(n + 1 - k)
                    second = fam.binomial(n, k - 1) * w
                    rhs = rhs + second
                    scale = max(scale, abs(second))
                err = worst_error(err, _guarded_error(lhs, rhs, scale))
        return err

    for _ in range(3):
        worst = worst_error(worst, _retry(rng, binomial_attempt))

    ok = worst < 1e-9
    _report(
        "criterion 5: recursions match enumerations on their grids",
        ok,
        f"max_rel_err={worst:.2e}",
    )
    assert ok


def test_criterion_06_closed_forms():
    rng = random.Random(106)
    worst = 0.0

    def aq_point():
        a, _, q, _ = random_generic_point(rng)
        return a, q

    # rectangle closed form, l, m <= 5, all k
    for _ in range(3):
        a, q = aq_point()
        fam = Aq(a, q)
        for ell in range(1, 6):
            for m in range(1, 6):
                for k in range(min(ell, m) + 1):
                    got = rook_number(rectangle(ell, m), k, fam)
                    want = rect_rook_number_aq(ell, m, k, a, q)
                    worst = worst_error(worst, relative_error(got, want))

    # Lah closed forms
    for _ in range(3):
        a, q = aq_point()
        fam = Aq(a, q)
        for n in range(1, 6):
            for k in range(1, n + 1):
                worst = worst_error(
                    worst,
                    relative_error(
                        special.lah(n, k, fam), special.lah_aq_closed(n, k, a, q)
                    ),
                )
        for r in (1, 2):
            for n in range(r, 6):
                for k in range(r, n + 1):
                    worst = worst_error(
                        worst,
                        relative_error(
                            special.lah(n, k, fam, r),
                            special.lah_r_aq_closed(n, k, r, a, q),
                        ),
                    )
                    worst = worst_error(
                        worst,
                        relative_error(
                            special.lah(n, k, PlainQ(q), r),
                            special.lah_r_q_closed(n, k, r, q),
                        ),
                    )

    # Abel closed forms, including the general tall boards m <= 8
    for _ in range(3):
        fam = _elliptic(rng)
        try:
            for n in range(1, 6):
                for k in range(1, n + 1):
                    worst = worst_error(
                        worst,
                        relative_error(
                            special.abel(n, k, fam), special.abel_closed(n, k, fam)
                        ),
                    )
            for r in (1, 2):
                for n in range(r, 6):
                    for k in range(r, n + 1):
                        worst = worst_error(
                            worst,
                            relative_error(
                                special.abel(n, k, fam, r),
                                special.abel_closed(n, k, fam, r),
                            ),
                        )
            for m in range(1, 9):
                for r in (1, 2):
                    for n in range(max(r, 2), 6):
                        for k in range(r, n + 1):
                            worst = worst_error(
                                worst,
                                relative_error(
                                    special.abel(n, k, fam, r, m),
                                    special.abel_closed(n, k, fam, r, m),
                                ),
                            )
        except PoleEncountered:
            continue

    ok = worst < 1e-9
    _report(
        "criterion 6: closed forms match enumeration",
        ok,
        f"max_rel_err={worst:.2e}",
    )
    assert ok


def test_criterion_07_jump_product_formula():
    from mpmath import mp

    rng = random.Random(107)
    worst_enum, worst_formula = 0.0, 0.0
    for offset in range(3):
        for jump in range(1, 4):
            for n in range(1, 5):
                board = b_board(offset, jump, n)
                # integer z = jump * n: three-way check at extended precision
                fam = _elliptic(rng)
                z_int = jump * n
                with mp.workdps(35):
                    precise = mp_family(fam)
                    entry = jump_product_check(board, jump, precise, z_int)
                    total = jump_enumeration_total(board, jump, z_int, precise)
                    worst_enum = worst_error(
                        worst_enum,
                        float(relative_error(total, entry.lhs)),
                        float(relative_error(total, entry.rhs)),
                        float(entry.rel_err),
                    )
                # 25 random complex z on the formula sides
                for _ in range(25):
                    def attempt(fam2, z):
                        return jump_product_check(
                            board, jump, fam2, z, MAX_CONDITION
                        ).rel_err
                    worst_formula = worst_error(worst_formula, _retry(rng, attempt))
    ok = worst_enum < 1e-8 and worst_formula < 1e-8
    _report(
        "criterion 7: jump product formula with extension cross-check",
        ok,
        f"enum={worst_enum:.2e} complex-z={worst_formula:.2e}",
    )
    assert ok


def test_criterion_08_rg_statistic():
    rng = random.Random(108)
    worst = 0.0
    counts_ok = True
    for offset, jump, n in ((1, 2, 5), (2, 3, 4)):
        board = b_board(offset, jump, n)
        fam = _elliptic(rng)
        for k in range(n + 1):
            words = enumerate_rg_words(offset, jump, n, k)
            placements = set(j_rook_placements(board.heights, jump, n - k))
            if len(words) != len(placements):
                counts_ok = False
            images = set()
            for gamma in words:
                worst = worst_error(worst, rg_word_weight_identity(gamma, fam).rel_err)
                images.add(phi(gamma))
            if images != placements:
                counts_ok = False
    ok = worst < 1e-10 and counts_ok
    _report(
        "criterion 8: word statistic matches placement weights",
        ok,
        f"max_rel_err={worst:.2e} counts={'exact' if counts_ok else 'MISMATCH'}",
    )
    assert ok


def test_criterion_09_bijections_and_exact_counts():
    mismatches = 0

    # staircase rooks <-> set partitions, n <= 7
    for n in range(1, 8):
        board = special.staircase(n)
        seen = set()
        for k in range(n + 1):
            for cells in rook_placements(board.heights, n - k):
                part = biject.rooks_to_partition(cells, n)
                if len(part) != k or biject.partition_to_rooks(part) != tuple(sorted(cells)):
                    mismatches += 1
                seen.add(part)
        if seen != set(biject.set_partitions(n)):
            mismatches += 1

    # cut-staircase files <-> restricted cycle forms, n <= 7, r <= 3
    for n in range(3, 8):
        for r in (1, 2, 3):
            board = special.staircase(n, r)
            seen = set()
            for k in range(n + 1):
                for cells in file_placements(board.heights, n - k):
                    perm = biject.file_to_cycles(cells, n)
                    if len(perm.cycles) != k or biject.cycles_to_file(perm) != tuple(
                        sorted(cells)
                    ):
                        mismatches += 1
                    seen.add(perm)
            if seen != biject.restricted_cycle_structures(n, r):
                mismatches += 1

    # restricted-Lah rooks <-> tubes, n <= 5, r <= 2
    for n in range(2, 6):
        for r in (1, 2):
            if r > n:
                continue
            board = special.lah_board(n, r)
            seen = set()
            by_k = {}
            for k in range(r, n + 1):
                for cells in rook_placements(board.heights, n - k):
                    tubes = biject.rooks_to_tubes(cells, n, r)
                    if len(tubes.tubes) != k or biject.tubes_to_rooks(
                        tubes, n, r
                    ) != tuple(sorted(cells)):
                        mismatches += 1
                    seen.add(tubes)
                    by_k[k] = by_k.get(k, 0) + 1
            for k, count in by_k.items():
                if count != special.classical_lah_r(n, k, r):
                    mismatches += 1
            codomain = set()
            for k in range(r, n + 1):
                codomain |= biject.tube_placements(n, k, r)
            if seen != codomain:
                mismatches += 1

    # Abel files <-> rooted forests, n <= 6, with the two counting anchors
    abel_counts = {}
    for n in range(2, 7):
        board = special.abel_board(n)
        seen = set()
        for k in range(1, n + 1):
            count = 0
            for cells in file_placements(board.heights, n - k):
                forest = biject.file_to_forest(cells, n)
                if len(forest.roots) != k or biject.forest_to_file(forest, n) != tuple(
                    sorted(cells)
                ):
                    mismatches += 1
                seen.add(forest)
                count += 1
            if count != biject.abel_count(n, k):
                mismatches += 1
            abel_counts[(n, k)] = count
        if seen != biject.rooted_forests(n):
            mismatches += 1
    if abel_counts[(5, 2)] != 500:
        mismatches += 1

    # colored forests on the 4-by-3 general Abel board: exactly 1 / 8 / 16
    board = special.abel_board(3, 1, 4)
    colored = {}
    seen = set()
    for k in (1, 2, 3):
        colored[k] = 0
        for cells in file_placements(board.heights, 3 - k):
            forest = biject.file_to_forest(cells, 3, 4)
            if biject.forest_to_file(forest, 3, 4) != tuple(sorted(cells)):
                mismatches += 1
            seen.add(forest)
            colored[k] += 1
    if colored != {3: 1, 2: 8, 1: 16} or seen != biject.rooted_forests(3, 4):
        mismatches += 1

    ok = mismatches == 0
    _report(
        "criterion 9: bijection roundtrips and exact counts",
        ok,
        f"mismatches={mismatches}, abel t(5,2)={abel_counts[(5, 2)]}, colored={colored}",
    )
    assert ok


def test_criterion_10_analytic_substrate():
    rng = random.Random(110)
    worst_two, worst_add, worst_ell = 0.0, 0.0, 0.0

    def nonzero():
        import cmath

        return rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 6.283185307))

    def nome():
        import cmath

        return rng.uniform(0.05, 0.4) * cmath.exp(1j * rng.uniform(0.0, 6.283185307))

    for _ in range(200):
        x, p = nonzero(), nome()
        worst_two = worst_error(worst_two, relative_error(theta(x, p), -x * theta(1 / x, p)))
        worst_two = worst_error(worst_two, relative_error(theta(p * x, p), -theta(x, p) / x))
    for _ in range(200):
        x, y, u, v = nonzero(), nonzero(), nonzero(), nonzero()
        p = nome()
        t1 = theta(x * y, p) * theta(x / y, p) * theta(u * v, p) * theta(u / v, p)
        t2 = theta(x * v, p) * theta(x / v, p) * theta(u * y, p) * theta(u / y, p)
        t3 = (u / y) * theta(y * v, p) * theta(y / v, p) * theta(x * u, p) * theta(x / u, p)
        worst_add = worst_error(worst_add, abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3)))
    for _ in range(200):
        a, b, q, p = random_generic_point(rng)
        k = rng.randrange(-4, 5)
        base = FullElliptic(a, b, q, p).small_weight(k)
        worst_ell = worst_error(
            worst_ell,
            relative_error(base, FullElliptic(a * p, b, q, p).small_weight(k)),
            relative_error(base, FullElliptic(a, b * p, q, p).small_weight(k)),
        )
    ok = worst_two < 1e-9 and worst_add < 1e-10 and worst_ell < 1e-9
    _report(
        "criterion 10: theta substrate identities",
        ok,
        f"two-term={worst_two:.2e} addition={worst_add:.2e} ellipticity={worst_ell:.2e}",
    )
    assert ok


def test_criterion_11_matrix_inverse():
    rng = random.Random(111)
    n_max = 6
    worst = 0.0
    for _ in range(3):
        fam = _elliptic(rng)
        try:
            big = {
                (n, k): gen_stirling2_normalized(0, 1, n, k, fam)
                for n in range(n_max + 1)
                for k in range(n + 1)
            }
            small = {
                (n, k): (-1) ** (n - k) * gen_stirling1(0, 1, n, k, fam)
                for n in range(n_max + 1)
                for k in range(n + 1)
            }
        except PoleEncountered:
            continue
        for n in range(n_max + 1):
            for target in range(n + 1):
                terms = [big[(n, k)] * small[(k, target)] for k in range(target, n + 1)]
                total = sum(terms)
                want = 1 if target == n else 0
                scale = max(1.0, max(abs(t) for t in terms))
                worst = worst_error(worst, abs(total - want) / scale)
    ok = worst < 1e-9
    _report(
        "criterion 11: first/second-kind matrices are inverse at offset 0, jump 1",
        ok,
        f"n<=6 max_residual={worst:.2e}",
    )
    assert ok


def test_criterion_12_rook_and_file_equivalence():
    rng = random.Random(112)
    worst = 0.0
    for _ in range(5):
        def attempt(fam, _z):
            err = 0.0
            for n in range(2, 6):
                lah_like = rectangle(n, n - 1)
                evens = SkylineBoard(tuple(2 * i for i in range(n)))
                for k in range(n + 1):
                    err = worst_error(
                        err,
                        relative_error(
                            rook_number(lah_like, n - k, fam),
                            rook_number(evens, n - k, fam),
                        ),
                    )
            return err
        worst = worst_error(worst, _retry(rng, attempt))

    base = (0, 1, 3, 3, 5)
    for _ in range(2):
        def attempt(fam, _z):
            err = 0.0
            reference = [file_number(SkylineBoard(base), k, fam) for k in range(6)]
            for perm in set(itertools.permutations(base)):
                board = SkylineBoard(perm)
                for k in range(6):
                    err = worst_error(
                        err, relative_error(file_number(board, k, fam), reference[k])
                    )
            return err
        worst = worst_error(worst, _retry(rng, attempt))
    ok = worst < 1e-9
    _report(
        "criterion 12: rook and file equivalences",
        ok,
        f"max_rel_err={worst:.2e}",
    )
    assert ok
