"""Seeded decision-table generator for the benchmark workloads.

Every table the benchmark feeds the program comes from `make_table`, so
one seed always gives the same CSV bytes. Features are named f0, f1, ...,
cells are short letter tokens and the decision column `dec` holds integer
values 0..9.
"""

from __future__ import annotations

import random
import string


def make_table(
    seed: int,
    rows: int,
    features: int,
    values: int,
    dup_frac: float = 0.0,
) -> str:
    """CSV text of a random decision table.

    With dup_frac 0 the feature vectors are pairwise distinct, so the
    table and every table left after removing a row are consistent. With
    dup_frac > 0 that share of rows (after the first) copies the feature
    vector of a random earlier row and draws a fresh decision, which makes
    the table inconsistent.
    """
    rng = random.Random(seed)
    alphabet = string.ascii_lowercase[:values]
    vectors: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for i in range(rows):
        if dup_frac and i and rng.random() < dup_frac:
            vector = rng.choice(vectors)
        else:
            vector = tuple(rng.choice(alphabet) for _ in range(features))
            while not dup_frac and vector in seen:
                vector = tuple(rng.choice(alphabet) for _ in range(features))
        seen.add(vector)
        vectors.append(vector)
    lines = [",".join([f"f{j}" for j in range(features)] + ["dec"])]
    lines += [",".join(v + (str(rng.randint(0, 9)),)) for v in vectors]
    return "\n".join(lines) + "\n"
