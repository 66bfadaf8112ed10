from ellrook import biject, special
from ellrook.boards import file_placements, rook_placements


def test_partition_examples():
    assert biject.rooks_to_partition((), 3) == ((1,), (2,), (3,))
    assert biject.rooks_to_partition(((2, 1),), 3) == ((1, 2), (3,))
    assert biject.partition_to_rooks(((1, 2), (3,))) == ((2, 1),)


def test_partition_roundtrip_and_counts():
    board = special.staircase(5)
    blocks3 = 0
    for k in range(6):
        for cells in rook_placements(board.heights, 5 - k):
            part = biject.rooks_to_partition(cells, 5)
            assert len(part) == k
            assert biject.partition_to_rooks(part) == tuple(sorted(cells))
            if k == 3:
                blocks3 += 1
    assert blocks3 == 25


def test_cycles_figure():
    cells = ((4, 1), (5, 2), (6, 4), (7, 4), (8, 3))
    perm = biject.file_to_cycles(cells, 8)
    assert perm.render() == "(6 7 4 1)(5 2)(8 3)"
    assert biject.cycles_to_file(perm) == cells


def test_cycles_fixed_points():
    perm = biject.file_to_cycles((), 4)
    assert perm.cycles == ((1,), (2,), (3,), (4,))


def test_cycles_roundtrip_exhaustive():
    board = special.staircase(5, 2)
    images = set()
    total = 0
    for k in range(6):
        for cells in file_placements(board.heights, 5 - k):
            perm = biject.file_to_cycles(cells, 5)
            assert len(perm.cycles) == k
            assert biject.cycles_to_file(perm) == tuple(sorted(cells))
            images.add(perm)
            total += 1
    codomain = biject.restricted_cycle_structures(5, 2)
    assert images == codomain
    assert total == len(codomain)


def test_forest_figure():
    cells = (
        (2, 1),
        (15, 1),
        (5, 5),
        (12, 6),
        (14, 6),
        (8, 7),
        (7, 8),
        (10, 8),
        (13, 8),
        (11, 9),
        (3, 13),
        (4, 14),
    )
    forest = biject.file_to_forest(cells, 15)
    assert forest.roots == frozenset({6, 7, 9})
    assert forest.parent_map() == {
        1: 5,
        2: 1,
        3: 13,
        4: 14,
        5: 8,
        8: 7,
        10: 8,
        11: 9,
        12: 6,
        13: 8,
        14: 6,
        15: 1,
    }
    assert biject.forest_to_file(forest, 15) == tuple(sorted(cells))


def test_forest_empty_placement():
    forest = biject.file_to_forest((), 4)
    assert forest.roots == frozenset({1, 2, 3, 4})
    assert forest.parent == ()


def test_forest_roundtrip_and_counts():
    board = special.abel_board(5)
    by_k = {}
    images = set()
    for k in range(1, 6):
        for cells in file_placements(board.heights, 5 - k):
            forest = biject.file_to_forest(cells, 5)
            assert len(forest.roots) == k
            assert biject.forest_to_file(forest, 5) == tuple(sorted(cells))
            by_k[k] = by_k.get(k, 0) + 1
            images.add(forest)
    assert by_k == {k: biject.abel_count(5, k) for k in range(1, 6)}
    assert by_k[2] == 500
    assert images == biject.rooted_forests(5)


def test_colored_forest_counts():
    board = special.abel_board(3, 1, 4)
    by_k = {}
    images = set()
    for k in range(1, 4):
        for cells in file_placements(board.heights, 3 - k):
            forest = biject.file_to_forest(cells, 3, 4)
            assert biject.forest_to_file(forest, 3, 4) == tuple(sorted(cells))
            by_k[k] = by_k.get(k, 0) + 1
            images.add(forest)
    assert by_k == {3: 1, 2: 8, 1: 16}
    assert images == biject.rooted_forests(3, 4)


def test_restricted_forest_roundtrip():
    board = special.abel_board(4, 2)
    images = set()
    for k in range(2, 5):
        for cells in file_placements(board.heights, 4 - k):
            forest = biject.file_to_forest(cells, 4, None, 2)
            assert biject.forest_to_file(forest, 4, None, 2) == tuple(sorted(cells))
            images.add(forest)
    assert images == biject.rooted_forests(4, None, 2)
    for forest in images:
        roots = forest.roots
        assert 1 in roots  # labels 1..r-1 are all roots after the swap
        parent = forest.parent_map()

        def tree_of(x):
            while x in parent:
                x = parent[x]
            return x

        assert tree_of(1) != tree_of(2)


def test_tubes_figure():
    cells = ((9, 6), (3, 5), (6, 3), (8, 1))
    tubes = biject.rooks_to_tubes(cells, 8, 2)
    assert tubes.render() == "{(8,1),(3,2,4),(5),(7,6)}"
    assert biject.tubes_to_rooks(tubes, 8, 2) == tuple(sorted(cells))


def test_tubes_singletons():
    tubes = biject.rooks_to_tubes((), 3, 3)
    assert tubes.tubes == ((1,), (2,), (3,))


def test_tubes_roundtrip_and_counts():
    board = special.lah_board(4, 2)
    by_k = {}
    images = set()
    for k in range(2, 5):
        for cells in rook_placements(board.heights, 4 - k):
            tubes = biject.rooks_to_tubes(cells, 4, 2)
            assert len(tubes.tubes) == k
            assert biject.tubes_to_rooks(tubes, 4, 2) == tuple(sorted(cells))
            by_k[k] = by_k.get(k, 0) + 1
            images.add(tubes)
    assert by_k[3] == 10
    assert by_k == {k: special.classical_lah_r(4, k, 2) for k in (2, 3, 4)}
    codomain = set()
    for k in (2, 3, 4):
        codomain |= biject.tube_placements(4, k, 2)
    assert images == codomain


def test_tall_board_forest_roundtrips():
    # general Abel boards: m <= 8, n <= 4, colored as soon as m > n
    for m in range(1, 9):
        for n in range(2, 5):
            board = special.abel_board(n, 1, m)
            images = set()
            for k in range(1, n + 1):
                for cells in file_placements(board.heights, n - k):
                    forest = biject.file_to_forest(cells, n, m)
                    assert biject.forest_to_file(forest, n, m) == tuple(sorted(cells))
                    images.add(forest)
            assert images == biject.rooted_forests(n, m)
            for k in range(1, n + 1):
                expected = biject.abel_count_general(m, n, k)
                assert sum(1 for f in images if len(f.roots) == k) == expected


def test_trivial_stirling2_counts_partitions():
    from ellrook.special import stirling2
    from ellrook.weights import PlainQ

    trivial = PlainQ(1)
    for n in range(1, 8):
        for k in range(1, n + 1):
            count = sum(1 for p in biject.set_partitions(n) if len(p) == k)
            assert stirling2(n, k, trivial) == count
