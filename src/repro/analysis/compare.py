"""Ordering agreement between a measured figure and the paper's."""

from __future__ import annotations

from typing import Sequence


def kendall_tau(order_a: Sequence[str], order_b: Sequence[str]) -> float:
    """Kendall rank correlation between two orderings of the same tags.

    1.0 = identical order, 0 = unrelated, -1 = reversed.  Used to check that
    a figure's x-axis ordering is reproduced even when absolute values
    differ (ties in the underlying values make small deviations expected).
    """
    common = [tag for tag in order_a if tag in set(order_b)]
    if len(common) < 2:
        raise ValueError("need at least two common tags")
    position = {tag: i for i, tag in enumerate(order_b)}
    concordant = 0
    discordant = 0
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            if position[common[i]] < position[common[j]]:
                concordant += 1
            else:
                discordant += 1
    total = concordant + discordant
    return (concordant - discordant) / total
