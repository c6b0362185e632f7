"""Friedman test and Nemenyi post-hoc analysis.

The standard companion statistics to Fig. 9-style multi-method/multi-dataset
comparisons (Demšar, 2006): the Friedman test asks whether *any* method
differs, and the Nemenyi critical difference tells which pairs of average
ranks differ significantly.  They extend the paper's Wilcoxon analysis
(Table III) to the full eight-sampler comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evaluation.stats import rankdata_average

__all__ = ["FriedmanResult", "friedman_test", "nemenyi_critical_difference"]

# Two-tailed studentized range statistic q_alpha / sqrt(2) for the Nemenyi
# test (Demšar 2006, Table 5), indexed by the number of compared methods.
_NEMENYI_Q = {
    0.05: {2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949,
           8: 3.031, 9: 3.102, 10: 3.164},
    0.10: {2: 1.645, 3: 2.052, 4: 2.291, 5: 2.459, 6: 2.589, 7: 2.693,
           8: 2.780, 9: 2.855, 10: 2.920},
}


@dataclass(frozen=True)
class FriedmanResult:
    """Outcome of a Friedman test over a methods × datasets score matrix.

    Attributes
    ----------
    statistic:
        The Friedman chi-square statistic.
    p_value:
        Chi-square tail probability with ``k - 1`` degrees of freedom.
    iman_davenport_statistic, iman_davenport_p_value:
        The less conservative F-distributed correction.
    average_ranks:
        Mean rank per method (1 = best), in input order.
    n_methods, n_datasets:
        Shape of the comparison.
    """

    statistic: float
    p_value: float
    iman_davenport_statistic: float
    iman_davenport_p_value: float
    average_ranks: dict[str, float]
    n_methods: int
    n_datasets: int

    def significant(self, alpha: float = 0.05) -> bool:
        """Reject "all methods perform alike" at level ``alpha``?"""
        return self.p_value < alpha


def friedman_test(
    scores: dict[str, np.ndarray], higher_is_better: bool = True
) -> FriedmanResult:
    """Friedman test over ``method -> scores-per-dataset``.

    Ties within a dataset get average ranks; at least two methods and two
    datasets are required.
    """
    from scipy.stats import chi2, f as f_dist

    names = list(scores)
    if len(names) < 2:
        raise ValueError("need at least two methods")
    matrix = np.vstack([np.asarray(scores[n], dtype=np.float64) for n in names])
    k, n = matrix.shape
    if n < 2:
        raise ValueError("need at least two datasets")

    signed = -matrix if higher_is_better else matrix
    ranks = np.empty_like(signed)
    for j in range(n):
        ranks[:, j] = rankdata_average(signed[:, j])
    mean_ranks = ranks.mean(axis=1)

    chi_sq = 12.0 * n / (k * (k + 1)) * (
        float(np.sum(mean_ranks**2)) * 1.0 - k * (k + 1) ** 2 / 4.0
    )
    # Guard the degenerate all-tied case against tiny negative round-off.
    chi_sq = max(chi_sq, 0.0)
    p = float(chi2.sf(chi_sq, df=k - 1))

    denominator = n * (k - 1) - chi_sq
    if denominator <= 0:
        # Perfectly consistent rankings: the F correction diverges.
        f_stat = np.inf
        f_p = 0.0
    else:
        f_stat = (n - 1) * chi_sq / denominator
        f_p = float(f_dist.sf(f_stat, k - 1, (k - 1) * (n - 1)))

    return FriedmanResult(
        statistic=float(chi_sq),
        p_value=p,
        iman_davenport_statistic=float(f_stat),
        iman_davenport_p_value=f_p,
        average_ranks={name: float(r) for name, r in zip(names, mean_ranks)},
        n_methods=k,
        n_datasets=n,
    )


def nemenyi_critical_difference(
    n_methods: int, n_datasets: int, alpha: float = 0.05
) -> float:
    """Nemenyi critical difference of average ranks.

    Two methods differ significantly when their average ranks differ by at
    least the returned value.
    """
    if alpha not in _NEMENYI_Q:
        raise ValueError(f"alpha must be one of {sorted(_NEMENYI_Q)}")
    table = _NEMENYI_Q[alpha]
    if n_methods not in table:
        raise ValueError(
            f"Nemenyi table covers 2..10 methods, got {n_methods}"
        )
    if n_datasets < 2:
        raise ValueError("need at least two datasets")
    q = table[n_methods]
    return float(q * np.sqrt(n_methods * (n_methods + 1) / (6.0 * n_datasets)))
