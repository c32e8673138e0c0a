"""Whole min-sum batches and trained tables, for tests, from the package's streamed pass.

The package draws min-sum trials ``BLOCK`` rows at a time
(``minsum.simulate_blocks``) and scores them one block at a time
(``minsum.evaluate_table``). Tests that hold a run against per-sample
formulas need its whole batch: ``whole_batch`` concatenates a run's
blocks, and ``blocks_of`` cuts a batch back into the blocks the run
yielded, so scoring them keeps the run's block boundaries and its bits.
"""

import numpy as np

from rolemodel import minsum
from rolemodel.train import PostTable

FIELDS = ("posteriors", "bins", "truths", "minsum_llrs")
QUANT = minsum.ZQuantizer()


def whole_batch(d: int, sigmas, n: int, seed: int, quantizer=QUANT) -> minsum.MinsumBatch:
    """The n trials of a ``simulate_blocks`` run, its blocks concatenated into one batch."""
    blocks = list(minsum.simulate_blocks(d, sigmas, n, seed, quantizer))
    return minsum.MinsumBatch(*(np.concatenate([getattr(b, f) for b in blocks]) for f in FIELDS))


def blocks_of(batch: minsum.MinsumBatch) -> list[minsum.MinsumBatch]:
    """The batch's ``BLOCK``-row blocks, views of its arrays, in order."""
    return [minsum.MinsumBatch(*(getattr(batch, f)[start:start + minsum.BLOCK] for f in FIELDS))
            for start in range(0, len(batch), minsum.BLOCK)]


def trained_table(d: int, sigmas, n: int, seed: int, quantizer=QUANT) -> PostTable:
    """The table that ``train-minsum`` sums from the same run."""
    table = PostTable(quantizer.total_bins, 2)
    for block in minsum.simulate_blocks(d, sigmas, n, seed, quantizer):
        table.ingest_batch(block.posteriors, block.bins)
    return table
