"""A constraint node that records its calls, for tests that read what BP hands its node.

``bp_solve`` keeps no per-iteration state; it calls its node once per
iteration on a fresh ``(3n, n, q)`` stack in constraint order and never
writes to that stack or the returned rows afterwards. Wrapping a node from
``sudoku.node_function`` in :class:`RecordingNode` keeps every stack, the
rows returned for it, and a copy of both taken at the call, so a test can
check that contract as well as read the stacks.
"""

import numpy as np


class RecordingNode:
    """``node`` (m -> ``(rows, fallback_rows)``), keeping each call's stack and rows.

    ``inputs[i]`` and ``outputs[i]`` are the arrays of call i as BP passed
    and received them; ``snapshots[i]`` holds copies of both taken at the call.
    """

    def __init__(self, node):
        self.node = node
        self.inputs: list[np.ndarray] = []
        self.outputs: list[np.ndarray] = []
        self.snapshots: list[tuple[np.ndarray, np.ndarray]] = []

    def __call__(self, m: np.ndarray):
        stack = m.copy()
        rows, fallback_rows = self.node(m)
        self.inputs.append(m)
        self.outputs.append(rows)
        self.snapshots.append((stack, rows.copy()))
        return rows, fallback_rows
