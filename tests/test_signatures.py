"""The transfer kernels against signatures rebuilt placement by placement
from the public enumerators and the geometry that boards.py states cell
by cell: j_uncancelled, the one cancellation rule (rook placements at
jump 1, row-only file placements at jump 0), and file_above_cells for the
above-rook weighting.  Over formal sums, the kernels' signatures
(rook_signature, _file_signatures, j_rook_signature, and the unpruned
pass of each) must equal the placement-level multisets exactly; at an
exact point, rook_row, file_row and j_rook_row must equal those multisets
evaluated.  Also the enumerators against a brute force over cell
subsets."""

import itertools
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import cache, partial

import pytest
from conftest import exact_bits

from ellrook import rook as rook_module
from ellrook.boards import (
    SkylineBoard,
    file_above_cells,
    file_placements,
    j_rook_placements,
    j_uncancelled,
    rook_placements,
)
from ellrook.errors import PoleEncountered
from ellrook.files import ABOVE_ROOK, ROW_ONLY, _file_signatures, _file_transfer, file_row
from ellrook.jattack import b_board, j_rook_row, j_rook_signature
from ellrook.rook import (
    _j_rook_transfer,
    evaluate_signature_with_magnitude,
    rook_row,
    rook_signature,
    signature_row,
    transfer_row,
)
from ellrook.harness import wide_family
from ellrook.weights import ABq, FullElliptic, PlainQ, WeightTable


def _ferrers(n):
    """Every Ferrers board with n columns of height at most 5."""
    return list(itertools.combinations_with_replacement(range(6), n))


# the kernels accept any skyline; on these a rook further left can sit
# above a column's top, so it counts north-west of every cell of that column
NON_FERRERS = [(3, 1, 2), (2, 0, 1), (4, 2, 3, 1), (0, 3, 0, 2), (5, 1, 4)]
JUMP_BOARDS = [
    (b_board(offset, jump, n).heights, jump)
    for offset in range(3)
    for jump in range(1, 4)
    for n in range(6)
]


def _signature(terms):
    return tuple(sorted(Counter(tuple(sorted(exps)) for exps in terms).items()))


# the placement-level signatures, computed once per board, k and depth for
# both the formal and the exact comparison
@cache
def _jump_reference(heights, jump, k, depth=0):
    # at jump 1 the arguments are the rook ones, i - j - nw, and at jump 0
    # the row-only file ones, 1 - j
    terms = []
    for cells in j_rook_placements(heights, jump, k, depth):
        uncancelled = j_uncancelled(heights, cells, jump, depth)
        terms.append([jump * (i - 1) + 1 - j - jump * nw for (i, j), nw in uncancelled.items()])
    return _signature(terms)


@cache
def _file_reference(heights, k):
    above = [
        [i - j for i, j in file_above_cells(heights, cells)]
        for cells in file_placements(heights, k)
    ]
    return _jump_reference(heights, 0, k), _signature(above)


def _ks(heights):
    # k = -1 and k = n + 1 have no placements: the empty signature
    return range(-1, len(heights) + 2)


BOARD_SETS = {f"ferrers-{n}-columns": _ferrers(n) for n in range(6)}
BOARD_SETS["non-ferrers"] = NON_FERRERS
# the reference is slow on extended boards, so depths 1..3 stop at 4 columns
EXTENDED = [
    (name, depth) for name in BOARD_SETS if name != "ferrers-5-columns" for depth in (1, 2, 3)
]


@pytest.mark.parametrize("name, depth", [(name, 0) for name in BOARD_SETS] + EXTENDED)
def test_rook_signature_matches_placements(name, depth):
    for heights in BOARD_SETS[name]:
        unpruned = signature_row(partial(_j_rook_transfer, heights, 1, depth, None))
        for k in _ks(heights):
            expected = _jump_reference(heights, 1, k, depth)
            assert rook_signature.__wrapped__(heights, k, depth) == expected, (heights, k)
            assert unpruned.get(k, ()) == expected, (heights, k)


@pytest.mark.parametrize("name", BOARD_SETS)
def test_file_signatures_match_placements(name):
    for heights in BOARD_SETS[name]:
        unpruned = [
            signature_row(partial(_file_transfer, heights, weighting, None))
            for weighting in (ROW_ONLY, ABOVE_ROOK)
        ]
        for k in _ks(heights):
            expected = _file_reference(heights, k)
            assert _file_signatures.__wrapped__(heights, k) == expected, (heights, k)
            assert tuple(row.get(k, ()) for row in unpruned) == expected, (heights, k)


@pytest.mark.parametrize("heights, jump", JUMP_BOARDS, ids=str)
def test_j_rook_signature_matches_placements(heights, jump):
    assert SkylineBoard(heights).is_j_attacking(jump)
    _check_j_rook_signature(heights, jump)


@pytest.mark.parametrize("heights", NON_FERRERS, ids=str)
@pytest.mark.parametrize("jump", [1, 2])
def test_j_rook_signature_matches_placements_on_any_skyline(heights, jump):
    # the kernel, like the enumerator, takes boards that are not jump-attacking
    _check_j_rook_signature(heights, jump)


def _check_j_rook_signature(heights, jump, depth=0):
    unpruned = signature_row(partial(_j_rook_transfer, heights, jump, depth, None))
    for k in _ks(heights):
        expected = _jump_reference(heights, jump, k, depth)
        assert j_rook_signature.__wrapped__(heights, jump, k, depth) == expected, k
        assert unpruned.get(k, ()) == expected, k


# the depth-z extensions of the jump product formula's cross-check: the
# below-ground attack wraps, and needs depth z >= jump * n to find its rows
EXTENDED_JUMP_BOARDS = [
    (heights, jump, depth)
    for heights, jump in JUMP_BOARDS
    if len(heights) <= 3
    for depth in (jump * len(heights), jump * len(heights) + 1)
]


@pytest.mark.parametrize("heights, jump, depth", EXTENDED_JUMP_BOARDS, ids=str)
def test_j_rook_signature_matches_placements_below_ground(heights, jump, depth):
    _check_j_rook_signature(heights, jump, depth)


def _brute_force(heights, k, depth, distinct_rows):
    """The k-subsets of the depth-extended board's cells with distinct
    columns, and distinct rows if asked, as column-sorted cell tuples."""
    cells = [(i, j) for i, h in enumerate(heights, 1) for j in range(1 - depth, h + 1)]
    out = set()
    if k < 0:
        return out
    for combo in itertools.combinations(cells, k):
        rows = {j for _, j in combo}
        if len({i for i, _ in combo}) == k and (not distinct_rows or len(rows) == k):
            out.add(combo)
    return out


# the brute force is slow on 4 Ferrers columns, so it stops at 3
BRUTE_FORCE_BOARDS = [heights for n in range(4) for heights in _ferrers(n)] + NON_FERRERS


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_rook_placements_match_brute_force(depth):
    for heights in BRUTE_FORCE_BOARDS:
        for k in _ks(heights):
            placements = list(rook_placements(heights, k, depth))
            assert len(placements) == len(set(placements)), (heights, k)
            assert set(placements) == _brute_force(heights, k, depth, True), (heights, k)


def test_file_placements_match_brute_force():
    for heights in BRUTE_FORCE_BOARDS:
        for k in _ks(heights):
            placements = list(file_placements(heights, k))
            assert len(placements) == len(set(placements)), (heights, k)
            assert set(placements) == _brute_force(heights, k, 0, False), (heights, k)


def test_empty_signatures_out_of_range():
    assert rook_signature.__wrapped__((2, 3), 3) == ()
    assert rook_signature.__wrapped__((2, 3), -1) == ()
    assert _file_signatures.__wrapped__((2, 3), 3) == ((), ())
    assert j_rook_signature.__wrapped__((1, 3), 2, -1) == ()
    assert j_rook_signature.__wrapped__((1, 3), 2, 3, 4) == ()
    # the empty board has one placement, of no rooks, with no cells
    assert rook_signature.__wrapped__((), 0) == (((), 1),)


def test_signature_builders_keep_no_cache():
    calls = {
        rook_signature: ((1, 2, 3), 2, 1),
        _file_signatures: ((1, 2, 3), 2),
        j_rook_signature: ((1, 3, 5), 2, 2),
    }
    for builder, args in calls.items():
        assert builder(*args) == builder(*args) == builder.__wrapped__(*args)
        assert builder.cache_info().currsize == 0, builder
        # the benchmark empties them between passes, and the tests call the
        # kernels unwrapped
        builder.cache_clear()
        assert builder.cache_info().misses == 0


# ---------------------------------------------------------------------------
# the transfer kernels at an exact point against the placement-level signatures
# ---------------------------------------------------------------------------

# an exact point whose small weight depends on its argument, unlike PlainQ's
EXACT = ABq(Fraction(3, 7), Fraction(5, 11), Fraction(2, 3))


def _check_kernel(kernel, signature, heights, depth=0):
    """kernel(k, magnitude) against signature(k) evaluated at EXACT, for
    every k and one past each end: the full row's values by ==, and its
    magnitudes to 1e-12 relative.  One pass pruned to a k, which varies
    from board to board over -1..n+1, must give the row's entry by ==."""
    values, magnitudes = kernel(None, True)
    table = WeightTable(EXACT)
    for k in _ks(heights):
        value, magnitude = evaluate_signature_with_magnitude(signature(k), table)
        assert values.get(k, 0) == value, k
        assert abs(magnitudes.get(k, 0) - magnitude) <= 1e-12 * magnitude, k
    pruned = (sum(heights) + depth) % (len(heights) + 3) - 1
    assert kernel(pruned, False) == ({pruned: values[pruned]} if pruned in values else {})


@pytest.mark.parametrize("name, depth", [(name, 0) for name in BOARD_SETS] + EXTENDED)
def test_rook_row_matches_signatures(name, depth):
    for heights in BOARD_SETS[name]:
        board = SkylineBoard(heights)
        _check_kernel(
            lambda k, magnitude: rook_row(board, EXACT, depth, k, magnitude),
            lambda k: _jump_reference(heights, 1, k, depth),
            heights,
            depth,
        )


@pytest.mark.parametrize("name", BOARD_SETS)
def test_file_row_matches_signatures(name):
    for heights in BOARD_SETS[name]:
        board = SkylineBoard(heights)
        for part, weighting in enumerate((ROW_ONLY, ABOVE_ROOK)):
            _check_kernel(
                lambda k, magnitude: file_row(board, EXACT, weighting, k, magnitude),
                lambda k: _file_reference(heights, k)[part],
                heights,
                part,
            )


# the jump boards at depth 0 and at the placement tests' depths below ground
# (the exact reference takes over a second per board at n = 4, jump 3), and,
# at jumps 0 to 2, the skylines where a rook further left sits above a
# column's top; at jump 0 two rooks may share a row
J_ROW_CASES = [(heights, jump, 0) for heights, jump in JUMP_BOARDS] + EXTENDED_JUMP_BOARDS
J_ROW_CASES += [(heights, jump, 0) for heights in NON_FERRERS for jump in (0, 1, 2)]


@pytest.mark.parametrize("heights, jump, depth", J_ROW_CASES, ids=str)
def test_j_rook_row_matches_signatures(heights, jump, depth):
    board = SkylineBoard(heights)
    _check_kernel(
        lambda k, magnitude: j_rook_row(board, jump, EXACT, depth, k, magnitude),
        lambda k: _jump_reference(heights, jump, k, depth),
        heights,
        depth,
    )


def test_j_rook_row_too_shallow_raises():
    # one column of height 1 extended by one row: a jump-2 rook in row 0
    # finds only its own row to attack, in the last column as in any other
    board = SkylineBoard((1,))
    for k in (None, 1):
        with pytest.raises(ValueError, match="too shallow"):
            j_rook_row(board, 2, EXACT, 1, k)
    with pytest.raises(ValueError, match="too shallow"):
        j_rook_signature.__wrapped__((1,), 2, 1, 1)
    # no rook, no attack: the empty column weighs its rows 1 and 0
    table = WeightTable(EXACT)
    assert j_rook_row(board, 2, EXACT, 1, 0) == {0: table[0] * table[1]}


# ---------------------------------------------------------------------------
# the recorded programs replayed against the kernels run at the same weights
# ---------------------------------------------------------------------------


def _elliptic():
    return FullElliptic(0.61 + 0.23j, 0.38 - 0.52j, 0.41 + 0.33j, 0.12 - 0.07j)


def _wide_elliptic():
    return wide_family(_elliptic())


REPLAY_FAMILIES = {"elliptic": _elliptic, "mp-35-digits": _wide_elliptic, "exact-abq": lambda: EXACT}


def _row_bits(row: dict):
    return [(k, type(value), exact_bits(value)) for k, value in row.items()]


class _WeightsOnce:
    """A family's small weights, each evaluated once for all the calls."""

    def __init__(self, fam):
        self.small_weight = cache(fam.small_weight)


def _replay_matches(kernel, args, fam, rows, unpaired) -> bool:
    """Whether transfer_row, which replays the recorded program, gives what
    the kernel gives at fam's weights and at their moduli, as the second
    pass of the magnitudes did: the same values, bit for bit and in the
    same order."""
    weight = fam.small_weight
    values = kernel(*args, weight)
    magnitudes = kernel(*args, cache(lambda ell: abs(complex(weight(ell)))))
    got_values, got_magnitudes = transfer_row(kernel, args, fam, True, rows)
    same = _row_bits(got_values) == _row_bits(values)
    same &= _row_bits(got_magnitudes) == _row_bits(magnitudes)
    if unpaired:
        same &= _row_bits(transfer_row(kernel, args, fam, False, rows)) == _row_bits(values)
    return same


def _replay_cases():
    """(kernel, args, rows, thin) of every board the kernel tests take, at
    every k; thin marks every third board of each of BOARD_SETS and every
    jump board."""
    for boards in BOARD_SETS.values():
        for i, heights in enumerate(boards):
            for k in (None, *_ks(heights)):
                yield _j_rook_transfer, (heights, 1, 0, k), heights, i % 3 == 0
                for weighting in (ROW_ONLY, ABOVE_ROOK):
                    yield _file_transfer, (heights, weighting, k), heights, i % 3 == 0
    jump_cases = [(heights, jump, 0) for heights, jump in JUMP_BOARDS] + EXTENDED_JUMP_BOARDS
    jump_cases += [(heights, jump, 0) for heights in NON_FERRERS for jump in (0, 2)]
    for heights, jump, depth in jump_cases:
        for k in (None, *_ks(heights)):
            yield _j_rook_transfer, (heights, jump, depth, k), [h + depth for h in heights], True


@pytest.fixture(scope="module")
def replay_mismatches():
    """{family: the args at which its replay differs from the kernel} for
    REPLAY_FAMILIES.  One walk checks every family a case takes, so that
    each plan is recorded once.  The 35-digit and exact arithmetic is
    slow, so those families take the thin cases only, and the replay
    without magnitudes is checked only at doubles."""
    wrong = {family: [] for family in REPLAY_FAMILIES}
    fams = {family: _WeightsOnce(make()) for family, make in REPLAY_FAMILIES.items()}
    for kernel, args, rows, thin in _replay_cases():
        for family, fam in fams.items():
            doubles = family == "elliptic"
            if (doubles or thin) and not _replay_matches(kernel, args, fam, rows, doubles):
                wrong[family].append(args)
    return wrong


@pytest.mark.parametrize("family", REPLAY_FAMILIES)
def test_replay_matches_the_kernel_bit_for_bit(family, replay_mismatches):
    assert not replay_mismatches[family]


def test_replay_at_exact_q_keeps_the_packed_values():
    # at PlainQ over an int or a Fraction the values come from the packed
    # kernel and only the magnitudes from the program
    for fam in (PlainQ(1), PlainQ(Fraction(2, 3)), PlainQ(-3)):
        for heights in BOARD_SETS["ferrers-3-columns"] + NON_FERRERS:
            board = SkylineBoard(heights)
            values, magnitudes = rook_row(board, fam, magnitude=True)
            assert values == rook_row(board, fam)
            weight = WeightTable(fam).__getitem__
            want = _j_rook_transfer(heights, 1, 0, None, lambda ell: abs(complex(weight(ell))))
            assert _row_bits(magnitudes) == _row_bits(want)


def test_recording_too_shallow_raises_and_caches_nothing():
    rook_module._plan.cache_clear()
    board = SkylineBoard((1,))
    for magnitude in (False, True):
        for fam in (EXACT, _elliptic(), PlainQ(Fraction(1, 2))):
            with pytest.raises(ValueError, match="too shallow"):
                j_rook_row(board, 2, fam, 1, None, magnitude)
    assert rook_module._plan.cache_info().currsize == 0
    assert rook_module._plan.cache_info().maxsize == 256


class _PoleAt:
    """A family whose small weight has a pole at one argument."""

    def __init__(self, ell):
        self.ell = ell

    def small_weight(self, ell):
        if ell == self.ell:
            raise PoleEncountered(f"pole at {ell}")
        return EXACT.small_weight(ell)


def test_pole_of_a_weight_propagates():
    board = SkylineBoard((2, 3, 3))
    for magnitude in (False, True):
        with pytest.raises(PoleEncountered, match="pole at -1"):
            rook_row(board, _PoleAt(-1), magnitude=magnitude)
        with pytest.raises(PoleEncountered, match="pole at 0"):
            file_row(board, _PoleAt(0), ABOVE_ROOK, magnitude=magnitude)
    # a weight no placement uses is never evaluated
    assert rook_row(board, _PoleAt(99)) == rook_row(board, EXACT)


def test_two_threads_record_and_replay_at_once():
    fam = _elliptic()
    boards = [BOARD_SETS["ferrers-4-columns"][::3], BOARD_SETS["ferrers-4-columns"][1::3]]
    weight = WeightTable(fam).__getitem__
    wrong = []

    def record_and_replay(heights_list):
        try:
            for _ in range(3):
                for heights in heights_list:
                    args = (heights, 1, 0, None)
                    # record afresh, past the cache, so both threads record at once
                    plan = rook_module._plan.__wrapped__(_j_rook_transfer, args)
                    got = rook_module._replay(plan, [weight(ell) for ell in plan.args])
                    if _row_bits(got) != _row_bits(_j_rook_transfer(*args, weight)):
                        wrong.append(heights)
                    if rook_row(SkylineBoard(heights), fam) != _j_rook_transfer(*args, weight):
                        wrong.append(heights)
        except Exception as exc:
            wrong.append(exc)

    threads = [threading.Thread(target=record_and_replay, args=(part,)) for part in boards]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
