"""The enumerators, the transfer kernels and the bijection checks free
what they build by reference counting alone: none of them leaves cyclic
garbage, which would hold its output until the next full collection."""

import gc

import pytest

from ellrook import biject, boards, files, jattack, rook
from ellrook.boards import SkylineBoard
from ellrook.harness import identity_names, run_check
from ellrook.weights import FullElliptic, PlainQ, WeightTable

CALLS = {
    "set_partitions": lambda: list(biject.set_partitions(5)),
    "rooted_forests": lambda: biject.rooted_forests(4),
    "rooted_forests, colored": lambda: biject.rooted_forests(3, 5),
    "tube_placements": lambda: biject.tube_placements(4, 2, 2),
    "enumerate_rg_words": lambda: jattack.enumerate_rg_words(1, 2, 4, 2),
    "jump_enumeration_total": lambda: jattack.jump_enumeration_total(
        jattack.b_board(1, 2, 2), 2, 4, PlainQ(1)
    ),
    "rook_placements": lambda: list(boards.rook_placements((1, 2, 3), 2, 1)),
    "rook_placements, abandoned": lambda: next(boards.rook_placements((1, 2, 3), 2)),
    "file_placements": lambda: list(boards.file_placements((1, 2, 3), 2)),
    "j_rook_placements": lambda: list(boards.j_rook_placements((1, 3, 5), 2, 2)),
    # the transfer kernels, with their magnitude passes
    "rook_row": lambda: rook.rook_row(SkylineBoard((1, 2, 3)), PlainQ(2), magnitude=True),
    "rook_row, below ground": lambda: rook.rook_row(
        SkylineBoard((1, 2, 3)), PlainQ(2), 2, magnitude=True
    ),
    "file_row": lambda: files.file_row(SkylineBoard((1, 2, 3)), PlainQ(2), magnitude=True),
    "file_row, above rook": lambda: files.file_row(
        SkylineBoard((1, 2, 3)), PlainQ(2), files.ABOVE_ROOK, magnitude=True
    ),
    "j_rook_row": lambda: jattack.j_rook_row(
        SkylineBoard((1, 3, 5)), 2, PlainQ(2), magnitude=True
    ),
    "j_rook_row, below ground": lambda: jattack.j_rook_row(
        SkylineBoard((1, 3, 5)), 2, PlainQ(2), 7, magnitude=True
    ),
    # the packed path's kernel at the constant weight 2^shift, shift being
    # the bit length of the extended board's file placement count, as in transfer_row
    "_j_rook_exact": lambda: rook._j_rook_exact((1, 2, 3), 1, 0, None, 5),
    "_j_rook_exact, B(2,3,3)": lambda: rook._j_rook_exact(
        jattack.b_board(2, 3, 3).heights, 3, 0, None, 8
    ),
    "_j_rook_exact, below ground": lambda: rook._j_rook_exact((1, 3, 5), 2, 7, None, 11),
    # a family's small-weight table, which the family holds and which refers to it
    "WeightTable": lambda: WeightTable(FullElliptic(0.5 + 0.1j, 1.3, 0.7j, 0.2))[3],
    "rook_row, elliptic": lambda: rook.rook_row(
        SkylineBoard((1, 2, 3)), FullElliptic(0.5 + 0.1j, 1.3, 0.7j, 0.2), magnitude=True
    ),
    # the transfer kernels over formal sums, below the lru cache
    "rook_signature": lambda: rook.rook_signature.__wrapped__((1, 2, 3), 2, 1),
    "_file_signatures": lambda: files._file_signatures.__wrapped__((1, 2, 3), 2),
    "j_rook_signature": lambda: jattack.j_rook_signature.__wrapped__((1, 3, 5), 2, 2),
    "j_rook_signature, below ground": lambda: jattack.j_rook_signature.__wrapped__(
        (1, 3, 5), 2, 3, 7
    ),
}
CALLS.update(
    (name, lambda name=name: run_check(name))
    for name in identity_names()
    if name.startswith("bijection-")
)


def _cyclic_garbage(call) -> int:
    """The number of unreachable objects that call() leaves to the collector."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", CALLS)
def test_no_cyclic_garbage(name):
    assert _cyclic_garbage(CALLS[name]) == 0
