"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's DP / closed-form code paths: the
distribution oracle enumerates all 4^n region sequences and weights them
with the chain law, and the matrix oracles rebuild stationary objects by
eigen-solving.  They stay independent of what they check.  The full-width
lattice DP is the exception: it is the library's DP before it wrote only the
reachable band and added its two paths outside ``np.logaddexp``, kept as
the reference that the band DP must match; ``log_dp_by_step`` is the band
DP as it was before its reads were paired and its views built once per
block of visits, which the band DP must match bit for bit.
"""

import itertools

import numpy as np

from bakerlab.mapcore import MapParams, contraction_rates
from bakerlab.markov import _log_add, coarse_measure, transition_matrix


def brute_force_distribution(ell, q, n):
    """Exact atoms (values, probabilities) of the n-step contraction sum by
    full enumeration of region sequences, grouped by visit-count vector."""
    mu = coarse_measure(ell)
    P = transition_matrix(ell)
    rates = contraction_rates(MapParams(ell=ell, q=q))
    atoms = {}
    for seq in itertools.product(range(4), repeat=n):
        prob = mu[seq[0]]
        for a, b in zip(seq, seq[1:]):
            prob *= P[a, b]
            if prob == 0.0:
                break
        if prob == 0.0:
            continue
        counts = tuple(np.bincount(seq, minlength=4))
        value = float(np.dot(counts, rates))
        old_v, old_p = atoms.get(counts, (value, 0.0))
        atoms[counts] = (value, old_p + prob)
    pairs = sorted(atoms.values())
    values, probs = [], []
    for v, p in pairs:
        if values and abs(v - values[-1]) <= 1e-9:
            probs[-1] += p
        else:
            values.append(v)
            probs.append(p)
    return np.array(values), np.array(probs)


def stationary_by_eigensolve(matrix, left=True):
    """Perron vector of a stochastic matrix via numpy's eigensolver,
    normalized to unit sum."""
    m = matrix.T if left else matrix
    vals, vecs = np.linalg.eig(m)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, idx])
    return v / v.sum()


def log_dp_full_width(ell, m, n):
    """Reference for ``markov._log_dp``: the same DP over (class of the
    current region, signed count c), with every step adding the two paths
    into each class by ``np.logaddexp`` over the whole width [-n, n]."""
    entered_from = (1, 1, 0, 0)  # A and B are entered from {B, D}, C and D from {A, C}
    size = 2 * n + 1
    state = np.full((2, size + 2), -np.inf)  # cell n + 1 + c holds count c
    np.logaddexp.at(state, (np.arange(4) % 2, n + 1 + m), np.log(coarse_measure(ell)))
    log_p = np.log([2.0 * ell, 1.0 - 2.0 * ell, 0.5, 0.5])  # of entering A, B, C, D
    reads = [(row, slice(1 - k, size + 1 - k)) for row, k in zip(entered_from, m)]
    entered = np.empty((4, size))
    for _ in range(n - 1):
        for r, read in enumerate(reads):
            np.add(state[read], log_p[r], out=entered[r])
        np.logaddexp(entered[:2], entered[2:], out=state[:, 1:-1])  # rows A + C, B + D
    total = np.logaddexp(state[0], state[1])
    mask = total > -np.inf
    return np.flatnonzero(mask) - n - 1, total[mask]


def log_dp_by_step(ell, m, n):
    """Reference for ``markov._log_dp``: the same band DP with its views
    built at every visit and one add per entered region."""
    entered_from = (1, 1, 0, 0)
    size = 2 * n + 1
    state = np.full((2, size + 2), -np.inf)  # cell n + 1 + c holds count c
    np.logaddexp.at(state, (np.arange(4) % 2, n + 1 + m), np.log(coarse_measure(ell)))
    log_p = np.log([2.0 * ell, 1.0 - 2.0 * ell, 0.5, 0.5])  # of entering A, B, C, D
    entered = np.empty((4, size))
    reads = [state[row, 1 - k : size + 1 - k] for row, k in zip(entered_from, m)]
    counts = state[:, 1:-1]
    for k in range(2, n + 1):
        band = 1 if m[1] == 0 else k  # on q = 0 A and D alternate, so |c| <= 1
        cells = slice(n - band, n + band + 1)
        for r in range(4):
            np.add(reads[r][cells], log_p[r], out=entered[r, cells])
        _log_add(entered[:2, cells], entered[2:, cells], counts[:, cells])  # rows A + C, B + D
    total = np.logaddexp(state[0], state[1])
    mask = total > -np.inf
    return np.flatnonzero(mask) - n - 1, total[mask]
