"""Set-partition enumeration in a fixed canonical order.

A partition is a tuple of blocks; each block is a sorted tuple of 1-based
firm ids and blocks are ordered by least member, so equality is syntactic.
Enumeration follows restricted growth strings in lexicographic order, which
is deterministic and yields exactly the Bell number of partitions: element
i joins each block of every partition of 1..i-1 in turn, then opens its own.
"""

from __future__ import annotations

Partition = tuple[tuple[int, ...], ...]

DEFAULT_LIMIT = 10


class PartitionLimitError(ValueError):
    """Enumeration refused: the Bell number would be unreasonably large."""


def bell_number(n: int) -> int:
    if n < 1:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def enumerate_partitions(n: int, limit: int = DEFAULT_LIMIT) -> tuple[Partition, ...]:
    if n < 1:
        raise ValueError("need at least one element to partition")
    if n > limit:
        raise PartitionLimitError(
            f"partitions of {n} elements ({bell_number(n)} of them) exceed the "
            f"configured limit of {limit} elements; raise the limit explicitly "
            "if you really want the exhaustive sweep")
    partitions: list[Partition] = [()]
    for element in range(1, n + 1):
        grown = []
        for partition in partitions:
            for j, block in enumerate(partition):  # element joins block j ...
                grown.append(partition[:j] + ((*block, element),) + partition[j + 1:])
            grown.append(partition + ((element,),))  # ... or opens its own
        partitions = grown
    return tuple(partitions)


def block_with_singletons(members, n: int) -> Partition:
    """The partition whose only non-trivial block is ``members``."""
    block = tuple(sorted(members))
    rest = [(i,) for i in range(1, n + 1) if i not in members]
    return tuple(sorted([block] + rest, key=lambda b: b[0]))

