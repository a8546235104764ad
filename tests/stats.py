"""Chi-square tests that the suite applies to simulated statistics.

They need ``scipy.special.chdtrc``, which the package itself never loads,
so they live here with the tests that use them.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from bakerlab.ensemble import _CHUNK, SimConfig, _run, _segment_means
from bakerlab.errors import DomainError


def segment_means(config: SimConfig, seg_len: int) -> np.ndarray:
    """Every segment mean of ``config``, segment by segment, from one pass
    of ``_segment_means`` over all members: the values that
    ``segment_mean_counts`` bins."""
    return np.concatenate([means.copy() for means in _segment_means(config, seg_len, (0, config.n_ens))])


def uniformity_chi_square(counts: np.ndarray) -> tuple[float, int, float]:
    """Pearson chi-square of observed bin counts against the uniform law;
    returns (statistic, dof, p-value)."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise DomainError("empty histogram")
    expected = total / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = counts.size - 1
    return stat, dof, float(chdtrc(dof, stat))


def word_counts(config: SimConfig) -> np.ndarray:
    """N[i, j, k], the (4, 4, 4) counts of the region words i j k of three
    consecutive kept states over all members of the x-only run of
    ``config``, evolved one ``_CHUNK`` of members at a time in this process."""
    counts = np.zeros(64, dtype=np.int64)
    for a in range(0, config.n_ens, _CHUNK):
        pair = None  # r_{t-1} r_t of each member, as 4 r_{t-1} + r_t
        for t, (_, _, r, _) in enumerate(_run(config, False, (a, min(a + _CHUNK, config.n_ens)))):
            if t >= 2:
                word = 4 * pair + r
                counts += np.bincount(word, minlength=64)
                pair = word & 15
            else:
                pair = r.astype(np.intp) if pair is None else 4 * pair + r
    return counts.reshape(4, 4, 4)


def markov_order_chi_square(counts: np.ndarray) -> tuple[float, int, float]:
    """Anderson-Goodman chi-square of order-2 word counts N[i, j, k] against
    first order, "i and k are independent given j"; returns (statistic,
    dof, p-value).  Each j is a contingency table of predecessors i by
    successors k, expected N[i, j, .] N[., j, k] / N[., j, .]; a row or
    column with no count is a structural zero and adds no degree of
    freedom, so the dof sum (rows - 1)(columns - 1) over j."""
    counts = np.asarray(counts, dtype=float)
    stat, dof = 0.0, 0
    for j in range(counts.shape[1]):
        table = counts[:, j, :]
        rows, cols = table.sum(axis=1), table.sum(axis=0)
        rows, cols, table = rows[rows > 0], cols[cols > 0], table[rows > 0][:, cols > 0]
        if rows.size == 0:
            continue
        expected = np.outer(rows, cols) / rows.sum()
        stat += float(((table - expected) ** 2 / expected).sum())
        dof += (rows.size - 1) * (cols.size - 1)
    return stat, dof, float(chdtrc(dof, stat))


@dataclass(frozen=True)
class EquivalenceReport:
    """Two-sample chi-square comparison of segment-average histograms."""

    statistic: float
    dof: int
    pvalue: float
    passed: bool
    identical: bool


# histogram bins and significance level of variant_equivalence_test
_EQUIV_BINS = 20
_EQUIV_ALPHA = 0.01


def variant_equivalence_test(config_a: SimConfig, config_b: SimConfig, seg_len: int) -> EquivalenceReport:
    """Test whether two runs produce the same law of segment averages,
    passing at significance level 0.01.

    Histograms use 20 shared bins spanning the pooled sample; sparsely
    populated edge bins are merged pairwise until every bin has a pooled
    count of at least 10.
    """
    a = segment_means(config_a, seg_len)
    b = segment_means(config_b, seg_len)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        identical = bool(np.array_equal(a, b))
        return EquivalenceReport(0.0, 0, 1.0, True, identical)
    edges = np.linspace(lo, hi, _EQUIV_BINS + 1)
    edges[-1] = np.nextafter(hi, np.inf)
    ca, _ = np.histogram(a, bins=edges)
    cb, _ = np.histogram(b, bins=edges)

    merged_a, merged_b = [], []
    acc_a = acc_b = 0
    for oa, ob in zip(ca, cb):
        acc_a += oa
        acc_b += ob
        if acc_a + acc_b >= 10:
            merged_a.append(acc_a)
            merged_b.append(acc_b)
            acc_a = acc_b = 0
    if acc_a + acc_b > 0:
        if merged_a:
            merged_a[-1] += acc_a
            merged_b[-1] += acc_b
        else:
            merged_a.append(acc_a)
            merged_b.append(acc_b)
    oa = np.array(merged_a, dtype=float)
    ob = np.array(merged_b, dtype=float)
    na, nb = oa.sum(), ob.sum()
    k1 = np.sqrt(nb / na)
    k2 = np.sqrt(na / nb)
    with np.errstate(invalid="ignore", divide="ignore"):
        contrib = (k1 * oa - k2 * ob) ** 2 / (oa + ob)
    stat = float(np.nansum(contrib))
    dof = max(len(oa) - 1, 1)
    pvalue = float(chdtrc(dof, stat))
    return EquivalenceReport(
        statistic=stat,
        dof=dof,
        pvalue=pvalue,
        passed=pvalue >= _EQUIV_ALPHA,
        identical=bool(np.array_equal(a, b)),
    )
