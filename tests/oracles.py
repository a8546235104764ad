"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's DP / closed-form code paths: the
distribution oracle enumerates all 4^n region sequences and weights them
with the chain law, and the matrix oracles rebuild stationary objects by
eigen-solving.  They stay independent of what they check.  The two lattice
DP references are the exception, each the library's recursion in another
arithmetic: ``log_dp_long_double`` runs it in long-double log space, the
accuracy reference, and ``scaled_dp_by_visit`` in the float64 linear space
of ``markov._log_dp`` over the whole width, renormalized at every visit,
which the library's DP must match bit for bit.  ``eager_parser`` is the
CLI's parser with every subcommand, the reference for
``cli.build_parser(argv)``, which adds only the subcommand argv names.
"""

import itertools
from fractions import Fraction

import numpy as np

from bakerlab.cli import build_parser
from bakerlab.mapcore import MapParams, contraction_rates
from bakerlab.markov import coarse_measure, transition_matrix


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


_ENTERED_FROM = (1, 1, 0, 0)  # A and B are entered from {B, D}, C and D from {A, C}


def log_dp_long_double(ell, m, n):
    """Reference for ``markov._log_dp`` in long-double log space: the DP over
    (class of the current region, signed count c) with every visit adding
    the two paths into each class by ``np.logaddexp`` over the counts the
    visit can reach.  Returns the reachable c and long-double
    log-probabilities.  On x86-64 Linux long double is the 80-bit extended
    format, 11 more mantissa bits than float64; where it is float64 itself,
    this reference is no more accurate than a float64 log-space DP."""
    ell = np.longdouble(ell)
    size = 2 * n + 1
    state = np.full((2, size + 2), -np.inf, dtype=np.longdouble)  # cell n + 1 + c holds count c
    mu = np.array([2 * ell, 1 - 2 * ell, 2 * ell, 2 * ell]) / (1 + 4 * ell)
    state[np.arange(4) % 2, n + 1 + m] = np.log(mu)  # the four cells differ on both families
    log_p = np.log(np.array([2 * ell, 1 - 2 * ell, 0.5, 0.5], dtype=np.longdouble))
    entered = np.empty((4, size), dtype=np.longdouble)
    reads = [state[row, 1 - k : size + 1 - k] for row, k in zip(_ENTERED_FROM, m)]
    for k in range(2, n + 1):
        band = 1 if m[1] == 0 else k  # on q = 0 A and D alternate, so |c| <= 1
        cells = slice(n - band, n + band + 1)
        for r in range(4):
            np.add(reads[r][cells], log_p[r], out=entered[r, cells])
        np.logaddexp(entered[:2, cells], entered[2:, cells], out=state[:, 1:-1][:, cells])  # A + C, B + D
    total = np.logaddexp(state[0], state[1])
    mask = total > -np.inf
    return np.flatnonzero(mask) - n - 1, total[mask]


def scaled_dp_by_visit(ell, m, n):
    """Reference for ``markov._log_dp``: the same float64 linear-space DP over
    the whole width [-n, n], each value a mantissa in [1/2, 1) times 2 to an
    integer exponent, renormalized by ``np.frexp`` after every visit.  A
    path's weight is its source mantissa times the mantissa of its p, at
    the sum of their exponents, and the two paths into a class are added at
    the larger of their exponents."""
    size = 2 * n + 1
    u = np.zeros((2, size + 2))  # cell n + 1 + c holds count c
    u[np.arange(4) % 2, n + 1 + m] = coarse_measure(ell)
    u, exp = np.frexp(u)
    p_mantissa, p_exp = np.frexp([2.0 * ell, 1.0 - 2.0 * ell, 0.5, 0.5])  # of entering A, B, C, D
    zero_exp = np.iinfo(exp.dtype).min // 2  # the exponent of a zero weight: below every other
    reads = [(row, slice(1 - k, size + 1 - k)) for row, k in zip(_ENTERED_FROM, m)]
    weight, weight_exp = np.empty((4, size)), np.empty((4, size), dtype=exp.dtype)
    for _ in range(n - 1):
        for r, (row, read) in enumerate(reads):
            np.multiply(u[row, read], p_mantissa[r], out=weight[r])
            weight_exp[r] = np.where(weight[r] != 0.0, exp[row, read] + p_exp[r], zero_exp)
        top = np.maximum(weight_exp[:2], weight_exp[2:])  # A with C, B with D
        value = np.ldexp(weight[:2], weight_exp[:2] - top) + np.ldexp(weight[2:], weight_exp[2:] - top)
        u[:, 1:-1], shift = np.frexp(value)
        exp[:, 1:-1] = top + shift
    # the two classes of each count, added at the exponent of the larger
    class_exp = np.where(u[:, 1:-1] != 0.0, exp[:, 1:-1], zero_exp)
    top = class_exp.max(axis=0)
    total, shift = np.frexp(np.ldexp(u[0, 1:-1], class_exp[0] - top) + np.ldexp(u[1, 1:-1], class_exp[1] - top))
    mask = total > 0.0
    return np.flatnonzero(mask) - n, np.log(total[mask]) + (top + shift)[mask] * np.log(2.0)


def eager_parser(argv=None):
    """``build_parser()``, all seven subcommands with their options, whatever
    ``argv`` names."""
    return build_parser()


def chain_autocovariance_rational(ell, phi, k_max):
    """Exact autocovariances cov(phi_0, phi_k), k = 0..k_max, of a region
    observable on the jump chain, in ``fractions`` arithmetic: ``ell`` and
    ``phi`` are read as the rationals their floats are, mu and P are rebuilt
    from their closed forms, and P^k phi is iterated lag by lag with no
    rounding.  The rational Green-Kubo reference."""
    ell, phi = Fraction(ell), [Fraction(v) for v in phi]
    a, b = 2 * ell, 1 - 2 * ell  # the chance to enter A and B from B or D
    mu = [w / (1 + 4 * ell) for w in (a, b, a, a)]
    mean = sum(m * v for m, v in zip(mu, phi))
    u, cov = phi, []
    for _ in range(k_max + 1):
        cov.append(sum(m * p * v for m, p, v in zip(mu, phi, u)) - mean * mean)
        from_ac = (u[2] + u[3]) / 2  # A and C go to C or D, 1/2 each
        from_bd = a * u[0] + b * u[1]
        u = [from_ac, from_bd, from_ac, from_bd]
    return cov
