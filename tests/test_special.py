import csv
import json
import random
from fractions import Fraction
from functools import partial

import pytest

from conftest import sample_elliptic
from ellrook import special
from ellrook.numeric import relative_error
from ellrook.weights import ABq, Aq, PlainQ, random_generic_point

TRIVIAL = PlainQ(1)


def test_boards():
    assert special.staircase(4).heights == (0, 1, 2, 3)
    assert special.staircase(5, 2).heights == (0, 0, 2, 3, 4)
    assert special.lah_board(4).heights == (3, 3, 3, 3)
    assert special.lah_board(4, 2).heights == (2,) * 5
    assert special.abel_board(4).heights == (0, 4, 4, 4)
    assert special.abel_board(4, 2).heights == (0, 0, 4, 4)
    assert special.abel_board(4, 1, 7).heights == (0, 7, 7, 7)


def test_stirling2_small_k(rng):
    fam = sample_elliptic(rng)
    for n in range(1, 6):
        assert special.stirling2(n, 1, fam) == 1
    lhs = special.stirling2(4, 2, fam)
    assert relative_error(lhs, fam.number(2) ** 3 - 1) < 1e-10
    lhs = special.stirling2(5, 3, fam)
    assert relative_error(lhs, special.stirling2_small_k(5, 3, fam)) < 1e-10


def test_stirling2_small_k_is_zero_above_n():
    fam = ABq(Fraction(3, 7), Fraction(5, 11), Fraction(2, 3))
    for elliptic in (fam, sample_elliptic(random.Random(7))):
        for n in range(3):
            for k in range(n + 1, 4):
                assert special.stirling2_small_k(n, k, elliptic) == 0


# exact points: PlainQ leaves every shift alone, ABq does not
EXACT_FAMILIES = (PlainQ(Fraction(2, 3)), ABq(Fraction(3, 7), Fraction(5, 11), Fraction(2, 3)))


def _param_sets(spec):
    if "r" in spec.params:
        return ({"r": 1}, {"r": 3})
    if "I" in spec.params:
        return ({"I": 0, "J": 1}, {"I": 2, "J": 3})
    return ({},)


@pytest.mark.parametrize("name", list(special.RECURSIONS))
def test_recursion_spec_is_exact(name):
    spec = special.RECURSIONS[name]
    for params in _param_sets(spec):
        for fam in EXACT_FAMILIES:
            for n in range(6):
                for k in range(-1, n + 2):
                    rebuilt = special.via_recursion(name, n, k, fam, **params)
                    assert rebuilt == spec.value(fam, n, k, **params), (params, fam, n, k)


def test_stirling2_recursion_table(rng):
    fam = sample_elliptic(rng)
    for n in range(6):
        for k in range(n + 1):
            lhs = special.via_recursion("stirling2", n, k, fam)
            rhs = special.stirling2(n, k, fam)
            assert relative_error(lhs, rhs) < 1e-10


def test_carlitz_oracle_values():
    assert special.carlitz_stirling2_q(4, 4, Fraction(1)) == 1
    assert special.carlitz_stirling2_q(3, 2, Fraction(1)) == 3
    for q in (Fraction(2, 3), Fraction(5, 4)):
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert special.stirling2(n, k, PlainQ(q)) == special.carlitz_stirling2_q(
                    n, k, q
                )


def test_stirling2_r(rng):
    fam = sample_elliptic(rng)
    assert special.stirling2(5, 0, fam, 2) == 0
    for n in range(2, 6):
        for k in range(n + 1):
            assert special.stirling2(n, k, TRIVIAL, 2) == special.classical_stirling2_r(
                n, k, 2
            )
    # recursion from the exact base at n = r
    for n in range(2, 6):
        for k in range(1, n + 1):
            lhs = special.via_recursion("stirling2-r", n, k, fam, r=2)
            rhs = special.stirling2(n, k, fam, 2)
            assert relative_error(lhs, rhs) < 1e-10


def test_restricted_seed_is_classical_only(rng):
    # the published n = r-1 seed only works when all weights are 1: the
    # first elliptic step lands on W(r-1), not 1
    fam = sample_elliptic(rng)
    direct = special.stirling2(2, 2, fam, 2)
    seeded = fam.big_weight(1)
    assert relative_error(direct, 1) < 1e-12
    assert relative_error(direct, seeded) > 1e-3


def test_lah(rng):
    fam = sample_elliptic(rng)
    for n, k in ((3, 2), (4, 1), (4, 3)):
        lhs = special.via_recursion("lah", n, k, fam)
        rhs = special.lah(n, k, fam)
        assert relative_error(lhs, rhs) < 1e-10


def test_lah_aq_closed(rng):
    a, _, q, _ = random_generic_point(rng)
    fam = Aq(a, q)
    for n in range(1, 5):
        for k in range(1, n + 1):
            lhs = special.lah_aq_closed(n, k, a, q)
            rhs = special.lah(n, k, fam)
            assert relative_error(lhs, rhs) < 1e-10


def test_lah_aq_limit_is_q_lah():
    big_a, q = 1e8, 0.7
    for n in range(1, 5):
        for k in range(1, n + 1):
            lhs = special.lah_aq_closed(n, k, big_a, q)
            rhs = special.lah_q_closed(n, k, q)
            assert relative_error(lhs, rhs) < 1e-6


def test_lah_r(rng):
    fam = sample_elliptic(rng)
    assert special.classical_lah_r(4, 3, 2) == 10
    for k in range(2, 5):
        assert special.lah(4, k, TRIVIAL, 2) == special.classical_lah_r(4, k, 2)
    lhs = special.via_recursion("lah-r", 4, 3, fam, r=2)
    rhs = special.lah(4, 3, fam, 2)
    assert relative_error(lhs, rhs) < 1e-9


def test_lah_r_closed_forms(rng):
    a, _, q, _ = random_generic_point(rng)
    for r in (1, 2):
        for n in range(r, 5):
            for k in range(r, n + 1):
                lhs = special.lah_r_aq_closed(n, k, r, a, q)
                rhs = special.lah(n, k, Aq(a, q), r)
                assert relative_error(lhs, rhs) < 1e-10
                lhs = special.lah_r_q_closed(n, k, r, q)
                rhs = special.lah(n, k, PlainQ(q), r)
                assert relative_error(lhs, rhs) < 1e-10


def test_stirling1(rng):
    fam = sample_elliptic(rng)
    for n in range(6):
        for k in range(n + 1):
            lhs = special.via_recursion("stirling1", n, k, fam)
            rhs = special.stirling1(n, k, fam)
            assert relative_error(lhs, rhs) < 1e-10
    assert special.stirling1(5, 2, TRIVIAL) == 50
    assert special.classical_stirling1(5, 2) == 50
    assert special.stirling1(1, 1, TRIVIAL, 2) == 1  # the (r-1, r-1) convention
    for n in range(2, 6):
        for k in range(1, n + 1):
            lhs = special.via_recursion("stirling1-r", n, k, fam, r=2)
            rhs = special.stirling1(n, k, fam, 2)
            assert relative_error(lhs, rhs) < 1e-10


def test_abel(rng):
    fam = sample_elliptic(rng)
    assert special.abel(5, 2, TRIVIAL) == 500
    for n in range(1, 6):
        for k in range(1, n + 1):
            lhs = special.abel_closed(n, k, fam)
            rhs = special.abel(n, k, fam)
            assert relative_error(lhs, rhs) < 1e-9
    for k in (3, 2, 1):
        assert special.abel(3, k, TRIVIAL, 1, 4) == (1, 8, 16)[3 - k]
    for n in range(2, 5):
        for k in range(2, n + 1):
            lhs = special.abel_closed(n, k, fam, 2)
            rhs = special.abel(n, k, fam, 2)
            assert relative_error(lhs, rhs) < 1e-9
    lhs = special.abel_closed(4, 2, fam, 1, 7)
    rhs = special.abel(4, 2, fam, 1, 7)
    assert relative_error(lhs, rhs) < 1e-9


def test_table_export(tmp_path):
    table = special.SpecialNumberTable.build("stirling2", 4, TRIVIAL)
    path = tmp_path / "stirling2.json"
    table.write_json(str(path))
    payload = json.loads(path.read_text())
    entry = [e for e in payload["entries"] if e["n"] == 4 and e["k"] == 2][0]
    assert entry["value"] == "7"

    table = special.SpecialNumberTable.build("abel", 5, TRIVIAL)
    path = tmp_path / "abel.csv"
    table.write_csv(str(path))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    match = [r for r in rows if r["n"] == "5" and r["k"] == "2"]
    assert match and match[0]["value"] == "500"

    table = special.SpecialNumberTable.build("lah", 3, TRIVIAL)
    path = tmp_path / "lah.csv"
    table.write_csv(str(path))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    match = [r for r in rows if r["n"] == "3" and r["k"] == "2"]
    assert match and match[0]["value"] == "6"

    # every family at r = 1 starts with the row S(0, 0) = 1
    for family in special.TABLE_FAMILIES:
        table = special.SpecialNumberTable.build(family, 1, TRIVIAL)
        assert [row for row in table.rows() if row["n"] == 0] == [
            {"family": family, "n": 0, "k": 0, "value": "1"}
        ]


def test_table_export_complex(rng, tmp_path):
    fam = sample_elliptic(rng)
    table = special.SpecialNumberTable.build("stirling2", 3, fam)
    path = tmp_path / "st.csv"
    table.write_csv(str(path))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert {"re", "im"} <= set(rows[0])


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        special.SpecialNumberTable.build("nope", 3, TRIVIAL)


def test_q_lah_oracle_exact():
    q = Fraction(4, 7)
    fam = PlainQ(q)
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert special.lah(n, k, fam) == special.lah_q_closed(n, k, q)


def test_table_recursions_at_many_points(rng):
    # every table family satisfies its published recursion row by row; the
    # comparison is guarded against points where the enumerated values are
    # dominated by cancellation (resampled, not judged)
    from ellrook.errors import IllConditioned, PoleEncountered
    from ellrook.files import ROW_ONLY, file_row
    from ellrook.numeric import guard_condition
    from ellrook.rook import rook_row

    def vm(row, k):
        values, magnitudes = row(k=k, magnitude=True)
        return values.get(k, 0), magnitudes.get(k, 0.0)

    def err(lhs_vm, coef_same, same_vm, coef_below, below_vm):
        lhs, lhs_mag = lhs_vm
        rhs = coef_same * same_vm[0] + coef_below * below_vm[0]
        scale = max(
            lhs_mag, abs(coef_same) * same_vm[1], abs(coef_below) * below_vm[1]
        )
        guard_condition(scale, lhs, rhs, 1e6)
        return relative_error(lhs, rhs)

    def rook_vm(board, k, fam):
        if not 0 <= k <= board.n:
            return 0, 0.0
        return vm(partial(rook_row, board, fam), k)

    def file_vm(board, k, fam):
        if not 0 <= k <= board.n:
            return 0, 0.0
        return vm(partial(file_row, board, fam, ROW_ONLY), k)

    checked = 0
    attempts = 0
    while checked < 10 and attempts < 300:
        attempts += 1
        fam = sample_elliptic(rng)
        try:
            for n in range(4):
                for k in range(n + 2):
                    lhs = rook_vm(special.staircase(n + 1), n + 1 - k, fam)
                    same = rook_vm(special.staircase(n), n - k, fam) if n else (
                        (1 if k == 0 else 0),
                        0.0,
                    )
                    below = rook_vm(special.staircase(n), n - k + 1, fam) if n else (
                        (1 if k == 1 else 0),
                        0.0,
                    )
                    assert err(lhs, fam.number(k), same, fam.big_weight(k - 1), below) < 1e-9
            for r in (2, 3):
                for n in range(r, 5):
                    for k in range(r - 1, n + 2):
                        lhs = rook_vm(special.staircase(n + 1, r), n + 1 - k, fam)
                        same = rook_vm(special.staircase(n, r), n - k, fam)
                        below = rook_vm(special.staircase(n, r), n - k + 1, fam)
                        assert (
                            err(lhs, fam.number(k), same, fam.big_weight(k - 1), below)
                            < 1e-9
                        )
            for n in range(1, 4):
                sh = fam.shifted(-n)
                for k in range(1, n + 2):
                    lhs = rook_vm(special.lah_board(n + 1), n + 1 - k, fam)
                    same = rook_vm(special.lah_board(n), n - k, fam)
                    below = rook_vm(special.lah_board(n), n - k + 1, fam)
                    assert (
                        err(lhs, sh.number(n + k), same, sh.big_weight(n + k - 1), below)
                        < 1e-9
                    )
            for n in range(4):
                sh = fam.shifted(-n)
                for k in range(n + 2):
                    lhs = file_vm(special.staircase(n + 1), n + 1 - k, fam)
                    same = file_vm(special.staircase(n), n - k, fam) if n else (
                        (1 if k == 0 else 0),
                        0.0,
                    )
                    below = file_vm(special.staircase(n), n - k + 1, fam) if n else (
                        (1 if k == 1 else 0),
                        0.0,
                    )
                    assert err(lhs, sh.number(n), same, sh.big_weight(n), below) < 1e-9
        except (IllConditioned, PoleEncountered):
            continue
        checked += 1
    assert checked == 10
