"""Local idr values, cumulative IDR, and threshold selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .mixture import (Theta, _e_step, _sum_difference, _ThetaBlock,
                      compute_pseudo_data)
from .ranking import RankedPairSet

__all__ = ["IdrTable", "local_idr", "idr_table", "select_at_idr"]


@dataclass(frozen=True)
class IdrTable:
    """Per-signal local idr in idr-ascending order with a running-mean IDR.

    original_index maps each row back to the input ordering; cumulative_idr[i]
    is the mean local idr of the first i+1 rows and is nondecreasing.
    """

    original_index: np.ndarray
    local_idr: np.ndarray
    cumulative_idr: np.ndarray = field(repr=False)

    @classmethod
    def from_local_idr(cls, idr: np.ndarray) -> "IdrTable":
        """Sort signals by local idr (ties by original index) and accumulate
        the running mean."""
        order = np.argsort(idr, kind="stable")
        sorted_idr = idr[order]
        cumulative = np.cumsum(sorted_idr) / np.arange(1, idr.size + 1)
        return cls(original_index=order, local_idr=sorted_idr,
                   cumulative_idr=cumulative)


def local_idr(ranked: RankedPairSet, theta: Theta) -> np.ndarray:
    """Posterior probability of the irreproducible component per signal.

    For the theta that `fit` returns this is `1 - FitResult.posterior`,
    which the fit has already computed.
    """
    gamma, _ = _e_step(_sum_difference(compute_pseudo_data(ranked, theta)),
                       _ThetaBlock.of([theta]))
    return 1.0 - gamma[0]


def idr_table(ranked: RankedPairSet, theta: Theta) -> IdrTable:
    """The IdrTable of the local idr at theta."""
    return IdrTable.from_local_idr(local_idr(ranked, theta))


def select_at_idr(table: IdrTable, alpha: float) -> int:
    """Largest selection size whose running-mean idr stays at or below alpha."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    passing = np.nonzero(table.cumulative_idr <= alpha)[0]
    return int(passing[-1] + 1) if passing.size else 0
