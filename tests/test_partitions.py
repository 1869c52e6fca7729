from permit_games.partitions import block_with_singletons, enumerate_partitions


def test_three_elements():
    parts = enumerate_partitions(3)
    assert set(parts) == {
        ((1, 2, 3),),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1,), (2, 3)),
        ((1,), (2,), (3,)),
    }
    assert len(parts) == 5


def test_single_element():
    assert enumerate_partitions(1) == (((1,),),)


def test_counts_match_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        assert len(enumerate_partitions(n)) == bell
        assert len(set(enumerate_partitions(n))) == bell


def test_blocks_are_canonical():
    for partition in enumerate_partitions(5):
        leads = [block[0] for block in partition]
        assert leads == sorted(leads)
        for block in partition:
            assert list(block) == sorted(block)


def _restricted_growth(n):
    """Partitions by a recursion over restricted growth strings in
    lexicographic order, kept as the oracle for the enumeration order."""
    out = []
    labels = [0] * n

    def grow(i, used):
        if i == n:
            blocks = [[] for _ in range(used)]
            for element, label in enumerate(labels, start=1):
                blocks[label].append(element)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for label in range(used + 1):
            labels[i] = label
            grow(i + 1, max(used, label + 1))

    grow(0, 0)
    return tuple(out)


def test_order_matches_the_restricted_growth_recursion():
    for n in range(1, 9):
        assert enumerate_partitions(n) == _restricted_growth(n)


def test_helpers():
    assert block_with_singletons({2, 3}, 4) == ((1,), (2, 3), (4,))
    assert block_with_singletons({1, 4}, 4) == ((1, 4), (2,), (3,))
