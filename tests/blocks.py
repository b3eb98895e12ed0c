"""The literal cells of a `segments` block, for tests that walk them in turn."""


def patterns(block):
    """Yield (widths, values, n) in order; the block's cells are each pattern's
    cells listed n times back to back.  A CellBlock is one pattern listed once,
    a RepeatBlock run is expanded pattern by pattern, pattern j counts[j] times."""
    if not hasattr(block, "counts"):
        yield block.widths, block.values, 1
        return
    for j, n in enumerate(block.counts):
        yield block.widths[:, j], block.values[:, j], int(n)
