"""Output checks: comparison with the recorded outcomes, and plain-numpy recounts.

The recounts never call oakit.  They confirm a reported witness subset by
counting tuples with ``np.unique``, and a reported minimal distance by
comparing every row pair directly.
"""

from __future__ import annotations

import json
from math import comb, prod
from pathlib import Path

import numpy as np

RECORD_PATH = Path(__file__).with_name("record.json")


class Record:
    """Recorded outcomes of one workload.

    ``"*"`` holds the fields that were the same for every recorded seed,
    ``"seeds"`` the fields that differed, per seed, and ``"known_defects"``
    maps a task to the exception type it raises at the recorded commit.
    """

    def __init__(self, data: dict, seed: int):
        self.common = data.get("*", {})
        self.for_seed = data.get("seeds", {}).get(str(seed), {})
        self.known_defects = data.get("known_defects", {})

    @classmethod
    def load(cls, path: Path, workload: str, seed: int) -> "Record":
        data = json.loads(Path(path).read_text(encoding="utf-8")) if Path(path).is_file() else {}
        return cls(data.get(workload, {}), seed)

    def expected(self, task: str) -> dict:
        return {**self.common.get(task, {}), **self.for_seed.get(task, {})}

    def mismatches(self, task: str, outcome: dict) -> list[str]:
        outcome = json.loads(json.dumps(outcome))
        return [
            f"{task}: {key} is {outcome.get(key)!r}, recorded {value!r}"
            for key, value in self.expected(task).items()
            if outcome.get(key) != value
        ]


def combination_rank(subset, n: int) -> int:
    """Position of a sorted k-subset of range(n) in lexicographic order."""
    k = len(subset)
    rank, prev = 0, -1
    for i, c in enumerate(subset):
        for v in range(prev + 1, c):
            rank += comb(n - v - 1, k - i - 1)
        prev = c
    return rank


def strength_fails(cells: np.ndarray, levels, subset) -> bool:
    """True when some tuple on ``subset`` does not appear r / prod(d) times."""
    cols = list(subset)
    r = cells.shape[0]
    d = prod(levels[j] for j in cols)
    if r % d:
        return True
    tuples, counts = np.unique(cells[:, cols], axis=0, return_counts=True)
    return len(tuples) != d or bool((counts != r // d).any())


def uniformity_fails(cells: np.ndarray, levels, subset) -> bool:
    """True when the reduction of the induced state to ``subset`` is not I / D.

    r * rho(a, b) counts ordered row pairs that agree off the subset and read
    a and b on it.  Off-diagonal mass means two rows agree off the subset but
    differ on it; the diagonal must then give every tuple r / D.
    """
    cols = list(subset)
    rest = [j for j in range(cells.shape[1]) if j not in cols]
    r = cells.shape[0]
    d = prod(levels[j] for j in cols)
    if r % d:
        return True
    _, group = np.unique(cells[:, rest], axis=0, return_inverse=True)
    values, value = np.unique(cells[:, cols], axis=0, return_inverse=True)
    pairs, size = np.unique(
        np.stack([group.reshape(-1), value.reshape(-1)], axis=1), axis=0, return_counts=True
    )
    if len(np.unique(pairs[:, 0])) != len(pairs):
        return True
    diagonal = np.zeros(len(values), dtype=np.int64)
    np.add.at(diagonal, pairs[:, 1], size.astype(np.int64) ** 2)
    return len(values) != d or bool((diagonal != r // d).any())


def min_distance(cells: np.ndarray, block: int = 512) -> int:
    """Smallest Hamming distance over all row pairs (N + 1 for one row).

    With each cell one-hot encoded, the dot product of two rows counts the
    columns where they agree; float32 holds these small counts exactly.
    """
    r, n = cells.shape
    onehot = np.concatenate(
        [cells[:, [j]] == np.arange(cells[:, j].max() + 1) for j in range(n)], axis=1
    ).astype(np.float32)
    most = -1.0
    for lo in range(0, r - 1, block):
        agree = onehot[lo : lo + block] @ onehot[lo + 1 :].T
        # keep only pairs (i, j) with j > i
        i = np.arange(lo, min(lo + block, r))[:, None]
        j = np.arange(lo + 1, r)[None, :]
        most = max(most, float(np.where(j > i, agree, -1.0).max()))
    return n + 1 if most < 0 else n - int(most)
