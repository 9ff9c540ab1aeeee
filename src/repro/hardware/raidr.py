"""Retention-aware multirate refresh (RAIDR-style row binning).

The paper cites RAIDR [26] (Liu et al., ISCA 2013) as the source of its
refresh-power argument.  The uniform relaxation of Section 6.B leaves
savings on the table: almost all rows retain data for many seconds, and
only a tiny weak tail needs frequent refresh.  RAIDR bins rows by
profiled retention time and refreshes each bin at its own rate.

This module implements that mechanism on top of the statistical
retention model:

* :func:`bin_rows` — expected row population per retention bin, from
  the per-cell lognormal and the cells-per-row geometry (a row is as
  weak as its weakest cell);
* :class:`MultirateRefresh` — refresh-power and BER accounting for a
  binned scheme, comparable head-to-head against uniform refresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.eop import NOMINAL_REFRESH_INTERVAL_S
from ..core.exceptions import ConfigurationError
from .dram import Dimm, RetentionModel


@dataclass(frozen=True)
class RefreshBin:
    """One retention bin: rows refreshed every ``interval_s``."""

    interval_s: float
    #: Fraction of rows assigned to this bin.
    row_fraction: float

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigurationError("bin interval must be positive")
        if not 0.0 <= self.row_fraction <= 1.0:
            raise ConfigurationError("row fraction must be in [0, 1]")


def row_failure_probability(retention: RetentionModel, interval_s: float,
                            cells_per_row: int,
                            temperature_c: Optional[float] = None) -> float:
    """Probability a row has ≥1 cell with retention below the interval.

    A row must be refreshed at the rate of its weakest cell; with
    per-cell BER ``p`` and independent cells, P(row weak) = 1-(1-p)^n.
    """
    if cells_per_row < 1:
        raise ConfigurationError("cells_per_row must be >= 1")
    p = retention.ber(interval_s, temperature_c)
    if p <= 0:
        return 0.0
    # log1p for numerical stability at tiny p.
    return -math.expm1(cells_per_row * math.log1p(-min(p, 1.0 - 1e-15)))


def bin_rows(retention: RetentionModel,
             intervals_s: Sequence[float] = (0.064, 0.256, 1.0, 4.0),
             cells_per_row: int = 8192,
             temperature_c: Optional[float] = None) -> List[RefreshBin]:
    """Assign row population to retention bins.

    ``intervals_s`` must ascend; a row lands in the *longest* interval it
    can safely sustain (its weakest cell's retention exceeds it), with
    rows too weak even for the shortest interval folded into that first
    bin (they would be remapped/ECC-handled in a real system).
    """
    intervals = sorted(intervals_s)
    if intervals[0] > NOMINAL_REFRESH_INTERVAL_S + 1e-12:
        raise ConfigurationError(
            "the shortest bin must be at most the nominal interval"
        )
    # P(row cannot sustain interval i) is monotone increasing in i.
    weak_at = [
        row_failure_probability(retention, interval, cells_per_row,
                                temperature_c)
        for interval in intervals
    ]
    bins = []
    for i, interval in enumerate(intervals):
        if i == len(intervals) - 1:
            fraction = 1.0 - weak_at[i]
        else:
            fraction = weak_at[i + 1] - (weak_at[i] if i > 0 else 0.0)
        if i == 0:
            # Fold the hopeless rows into the fastest bin.
            fraction += weak_at[0]
        bins.append(RefreshBin(interval_s=interval,
                               row_fraction=max(0.0, fraction)))
    total = sum(b.row_fraction for b in bins)
    if total > 0:
        bins = [RefreshBin(b.interval_s, b.row_fraction / total)
                for b in bins]
    return bins


class MultirateRefresh:
    """Refresh-power accounting for a binned refresh scheme."""

    def __init__(self, dimm: Dimm, bins: Sequence[RefreshBin]) -> None:
        if not bins:
            raise ConfigurationError("need at least one bin")
        if abs(sum(b.row_fraction for b in bins) - 1.0) > 1e-6:
            raise ConfigurationError("bin fractions must sum to 1")
        self.dimm = dimm
        self.bins = list(bins)

    def refresh_power_w(self) -> float:
        """Total refresh power: each bin refreshed at its own rate.

        Refresh power is proportional to refresh operations per second,
        i.e. ``row_fraction / interval`` summed over bins, normalised to
        the all-rows-at-nominal case.
        """
        model = self.dimm.power_model()
        nominal_power = (model.refresh_power_w(NOMINAL_REFRESH_INTERVAL_S)
                         * self.dimm.n_devices)
        rate_fraction = sum(
            b.row_fraction * NOMINAL_REFRESH_INTERVAL_S / b.interval_s
            for b in self.bins
        )
        return nominal_power * rate_fraction

    def saving_vs_nominal(self) -> float:
        """Fraction of nominal refresh power saved by binning."""
        model = self.dimm.power_model()
        nominal_power = (model.refresh_power_w(NOMINAL_REFRESH_INTERVAL_S)
                         * self.dimm.n_devices)
        if nominal_power <= 0:
            return 0.0
        return 1.0 - self.refresh_power_w() / nominal_power

    def saving_vs_uniform(self, uniform_interval_s: float) -> float:
        """Refresh-power saving relative to a uniform relaxed interval.

        A fair comparison requires the uniform scheme to be *safe*, i.e.
        its interval can be no longer than the shortest bin that has any
        weak rows — in practice the nominal 64 ms, since some rows always
        need it.  Positive values mean binning wins.
        """
        if uniform_interval_s <= 0:
            raise ConfigurationError("interval must be positive")
        model = self.dimm.power_model()
        uniform_power = (model.refresh_power_w(uniform_interval_s)
                         * self.dimm.n_devices)
        if uniform_power <= 0:
            return 0.0
        return 1.0 - self.refresh_power_w() / uniform_power

    def residual_ber(self, retention: RetentionModel,
                     temperature_c: Optional[float] = None) -> float:
        """Cell BER remaining after binning (mis-binned weak cells).

        Only the rows folded into the fastest bin beyond their ability
        contribute; with the fastest bin at nominal this is the nominal
        BER — effectively zero.
        """
        fastest = min(b.interval_s for b in self.bins)
        return retention.ber(fastest, temperature_c)


def raidr_comparison(dimm: Dimm,
                     intervals_s: Sequence[float] = (0.064, 0.256, 1.0, 4.0),
                     temperature_c: Optional[float] = None,
                     ) -> Tuple[List[RefreshBin], float, float]:
    """Convenience: (bins, saving vs nominal, residual BER)."""
    retention = dimm.retention
    bins = bin_rows(retention, intervals_s,
                    temperature_c=temperature_c)
    scheme = MultirateRefresh(dimm, bins)
    return bins, scheme.saving_vs_nominal(), scheme.residual_ber(
        retention, temperature_c)
