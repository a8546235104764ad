"""Deterministic parallel Monte Carlo engine for the baker dynamics.

Ensembles are evolved as numpy vectors; every random draw comes from a
counter-based (Philox) stream keyed by the configured seed, so a
configuration determines its outputs exactly.  Member k's start and its
dither draws are fixed positions in those streams, so any contiguous range
of members can be evolved on its own, bit for bit as in the whole ensemble.

Every reduction (histograms, transition counts, segment-mean cell counts,
member averages, lag products) splits the members into one contiguous
range per worker process, at most one per usable CPU and one per
``_MIN_SPLIT_MEMBERS`` members.  Each worker evolves its range in
consecutive chunks of at most ``_CHUNK`` members, each through every step
before the next starts, so a worker's memory does not grow with its range.
Only sums leave a chunk: a member average or total keeps each member's
integer region counts in the chunk and adds their moments Σc and Σc cᵀ to
the sums.  Each process holds one sums array, the caller's: every worker
adds its chunks into it, and the parent adds each child's sums into its
own a fixed piece at a time as they arrive.  Chunks and ranges merge by
one rule, in member order: sums are added.  Integer-valued sums are exact,
so what is built on them is bitwise independent of the worker count, the
CPU count and the chunk size.

Because the x-coordinate update never reads y, x-projected reductions are
bitwise identical between the reversible and irreversible variants at equal
seed, and the x-only reductions skip the y update (``mapcore._advance``, the
one step, with y None).

Every run starts x in its exact stationary law, the piecewise-constant
density (2, 8 ell)/(1 + 4 ell) on the two halves, by the inverse CDF of the
same uniforms, and y uniform.  x-only reductions are therefore stationary
from the first step and need no burn-in; reductions that read y still do.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import CapacityError, DomainError, WorkerError, _in_range, _refusal, _refuse, _require
from .mapcore import (
    MapParams,
    MapVariant,
    Region,
    ReversalScheme,
    branch_coefficients,
    contraction_rates,
    region_indices,
    region_reverse,
    _TOP,
    _advance,
    _coefficient_table,
)

__all__ = [
    "SimConfig",
    "Histogram2D",
    "sample_ensemble",
    "worker_count",
    "empirical_density",
    "transition_counts",
    "segment_mean_counts",
    "odd_observable_mean",
    "lag_products",
]

_MAX_ENSEMBLE = 50_000_000
# fewest members per worker process: below it forking a worker costs more
# than the second core saves (crossover sweep in CHANGES.md)
_MIN_SPLIT_MEMBERS = 10_000
# most members a worker evolves at once, the one cache-sized cut of the
# state: a with-y step touches about 60 bytes a member (x, y, a 32-byte
# coefficient row, the int8 regions, the 8-byte intp index that take widens
# them to, and the flip's mask), about 1 MB a chunk, within one core's 2 MiB
# L2 (sweep in CHANGES.md)
_CHUNK = 16_384
# most bins along either axis of a 2-d histogram: each worker's counts take
# 8 bytes a cell, 32 MB at 2000 x 2000, and each process holds them once
_MAX_BINS = 2_000
# elements of a child's sums that the parent reads and adds at a time, 64 KiB
# of int64 or float64: the buffer that spares it a second copy of the sums
_PIECE = 8_192
# largest n_ens * n_iter**2, a bound on every entry of a count moment Σc cᵀ:
# int64 sums and float64 ones (lag_products') hold every integer up to it
_MAX_MOMENT = 2**53
# region j adds 1 to the j-th uint8 lane of a member's packed uint32 counts
_LANES = np.eye(4, dtype=np.uint8).view(np.uint32).ravel()
_LANE_MAX = 2**8 - 1  # states a lane counts before it is flushed

# At ell = 1/4 every branch has x-slope exactly 2, so a float64 orbit sheds
# one significand bit per step and collapses onto the x = 1/2 fixed point
# within ~55 iterations.  The engine re-injects counter-based noise at
# 2^-43, far below any feasible histogram resolution, purely to keep the
# sampled orbit ergodic, and at that one ell alone.  Other ell are not all
# safe: undithered runs collapse members onto x = 1/2 at ell = 1/8, 1/16
# and 1/4 - 1 ulp as well (ROADMAP.md, open item 1, which measures them).
_DITHER_SCALE = 2.0**-43
_DITHER_SUBKEY_X = np.uint64(0xB4C3D11A)
_DITHER_SUBKEY_Y = np.uint64(0xB4C3D11B)


def _needs_dither(params: MapParams) -> bool:
    return params.ell == 0.25


# each count's claim: a count of burn-in steps may be 0, a run keeps at
# least one state, and the seed is one key word
_n_ens_claim = _in_range(1, _MAX_ENSEMBLE)
_steps_claim = _in_range(0)
_states_claim = _in_range(1)
_bins_claim = _in_range(1, _MAX_BINS)
_seed_claim = _in_range(0, 2**64 - 1)


def _moment_claim(n_ens: int, n_iter: int) -> str | None:
    """Why ``n_ens`` members of ``n_iter`` kept states pass ``_MAX_MOMENT``,
    which bounds n_ens n_iter**2, or None."""
    longest = math.isqrt(_MAX_MOMENT // n_ens)
    if n_iter <= longest:
        return None
    return f"{{n_iter}} must be <= {longest} at {{n_ens}} {n_ens}, got {n_iter}"


def _segments_claim(n_ens: int, n_iter: int, seg_len: int, min_count: int) -> str | None:
    """Why ``n_ens`` members of ``n_iter`` states make no segment of
    ``seg_len`` states, or fewer than ``min_count``, so that no cell can
    count ``min_count``; or None."""
    if n_iter < seg_len:
        return f"{{n_iter}} must be >= {{seg_len}} ({seg_len}) for one segment, got {n_iter}"
    if (segments := n_ens * (n_iter // seg_len)) >= min_count:
        return None
    return (f"{{n_ens}} x ({{n_iter}} // {{seg_len}}) segments must be >= {{min_count}} ({min_count}), "
            f"got {n_ens} x ({n_iter} // {seg_len}) = {segments}")


def _seed_key(seed: int) -> np.uint64:
    """The seed as the one 64-bit key word of the sample stream."""
    _refuse("seed", seed, _seed_claim)
    return np.uint64(seed)


def _philox(key, start: int) -> np.random.Generator:
    """A generator over the Philox stream of ``key`` positioned at draw
    ``start`` (one draw is one 64-bit output, one double).  The counter
    advances by whole blocks of four draws and the rest of the block is
    drawn and discarded, so what follows is the stream from ``start`` on,
    bit for bit."""
    bits = np.random.Philox(key=key)
    bits.advance(start // 4)
    gen = np.random.Generator(bits)
    gen.random(start % 4)
    return gen


def _dither(v: np.ndarray, gen) -> np.ndarray:
    """``clip(v + (u - 0.5) * 2 * _DITHER_SCALE, 0, _TOP)`` for uniform u,
    written into ``v``, which is returned."""
    d = gen.random(len(v))
    d -= 0.5
    d *= 2.0
    d *= _DITHER_SCALE
    v += d
    return v.clip(0.0, _TOP, out=v)


def _stationary_x(x: np.ndarray, ell: float) -> None:
    """Map uniforms ``x`` in place through the inverse CDF of the invariant
    x-law, density ``(2, 8 ell) / (1 + 4 ell)`` on the halves split at 1/2.

    With ``c = 1/(1 + 4 ell)`` a uniform u goes to ``u (1 + 4 ell)/2`` when
    ``u < c`` and to ``1/2 + (u - c)(1 + 4 ell)/(8 ell)`` otherwise, so the
    count of members in the left half equals the count of u below c.  At
    ell = 1/4 both slopes are 1 and c = 1/2, so the map is the identity bit
    for bit.  One bool mask is the only temporary, so the start adds no
    full-length float array to the peak memory of a run.
    """
    width = 1.0 + 4.0 * ell
    c = 1.0 / width
    mask = np.less(x, c)
    np.multiply(x, 0.5 * width, out=x, where=mask)
    right = np.logical_not(mask, out=mask)
    np.subtract(x, c, out=x, where=right)
    np.multiply(x, width / (8.0 * ell), out=x, where=right)
    np.add(x, 0.5, out=x, where=right)


def _x_table(params: MapParams, phi: np.ndarray | None) -> np.ndarray:
    """The (4, 4) table of the x-only loop, whose row r is
    ``(ax[r], bx[r], phi[r], _LANES[r])`` (``phi`` is 0 where None): a row
    gathered at a member's region holds the coefficients of its x step,
    the region observable and the word that counts the region, which
    float64 holds exactly.  Four float64 columns make a 32-byte row, which
    one gather fetches in about the time of two columns."""
    ax, bx = branch_coefficients(params)[:2]
    return np.stack([ax, bx, np.zeros(4) if phi is None else phi, _LANES], axis=1)


def _run(config: SimConfig, with_y: bool, members: tuple[int, int], phi: np.ndarray | None = None):
    """The one state advance behind every ensemble reduction, so that any
    two reductions over the same config see bitwise-identical x streams.

    ``members = (a, b)`` evolves the members [a, b) only, bit for bit as in
    the whole ensemble.  They start from points [a, b) of
    ``sample_ensemble``: the first column goes through the inverse CDF of
    the exact stationary x-law (``_stationary_x``) and the second is y,
    uniform.  The x-projection is then stationary from step 0, whatever
    the variant; only y needs burn-in.  At ell = 1/4 step k draws the slice
    [k n_ens + a, k n_ens + b) of each dither stream.

    Discards ``burn_in`` states, then yields ``(x, y, r, rows)`` at each of
    the ``n_iter`` kept states, taking ``burn_in + n_iter - 1`` steps in
    all.  Each step is taken when the consumer asks for the next state.
    Each state's int8 regions r are looked up once, after the dither, and
    one gather at r writes the (b - a, 4) ``rows``: of
    ``_coefficient_table(params)`` with ``with_y``, else of
    ``_x_table(params, phi)``, and y is None.  The next step is
    ``mapcore._advance`` on those rows, which steps x, and y, in place.
    Each call takes all b - a members, which ``_split`` keeps to at most
    ``_CHUNK``.

    Every yielded array is valid until the consumer asks for the next
    state; a consumer that keeps one copies it.
    """
    params, n = config.params, config.n_ens
    a, b = members
    pts = _philox(_seed_key(config.seed), 2 * a).random((b - a, 2))
    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1]) if with_y else None
    del pts  # else the (b - a, 2) sample lives as long as the generator
    _stationary_x(x, params.ell)
    dither = _needs_dither(params)
    if dither:
        kx, ky = (np.array([config.seed, sub], dtype=np.uint64) for sub in (_DITHER_SUBKEY_X, _DITHER_SUBKEY_Y))
    table = _coefficient_table(params) if with_y else _x_table(params, phi)
    rows = np.empty((b - a, 4))
    for k in range(config.burn_in + config.n_iter):
        if k > 0:  # step k - 1 leads to state k
            _advance(rows, x, y, params, config.variant)
            if dither:
                _dither(x, _philox(kx, (k - 1) * n + a))
                if with_y:
                    _dither(y, _philox(ky, (k - 1) * n + a))
        r = region_indices(x, params.ell)
        table.take(r.view(np.uint8), axis=0, mode="clip", out=rows)
        if k >= config.burn_in:
            yield x, y, r, rows


def worker_count(n_ens: int) -> int:
    """Processes that share an ensemble reduction over ``n_ens`` members:
    one per usable CPU, but at most one per ``_MIN_SPLIT_MEMBERS`` members,
    and one where the platform cannot fork.  No result depends on it."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, n_ens // _MIN_SPLIT_MEMBERS))


def _fork(part: Callable[[int, int], np.ndarray], a: int, b: int):
    """Fork a child that writes the bytes of the 1-d array ``part(a, b)``
    to a pipe and exits 0, or on any failure writes a one-line reason and
    exits 1.  Returns the child's pid and the read end of its pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child never returns: it must not unwind into the caller's stack
        status = 1
        try:
            os.close(r)
            try:
                payload = part(a, b).view(np.uint8)
                status = 0
            except BaseException as exc:  # reported by the parent
                payload = f"{type(exc).__name__}: {exc}".encode()
            with open(w, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _split(n_ens: int, part: Callable[[int, int, np.ndarray], None], start: np.ndarray) -> np.ndarray:
    """``part(c, d, sums)``, a reduction over the members [c, d) that adds
    into ``sums``, run on the contiguous ranges of ``worker_count(n_ens)``
    workers, each range cut into consecutive chunks of at most ``_CHUNK``
    members, and merged by one rule, in member order: sums are added (exact
    for integer-valued sums).  ``_split`` takes over ``start``, a 1-d array,
    and returns it as the sums; after an error it holds no result.

    The parent forks a child for every range but the first before it adds
    anything, so each child adds into its own private copy of ``start``.  It
    then reduces the first range straight into ``start``, and reads each
    child's sums through one buffer of ``_PIECE`` elements, adding each
    piece into its slice of ``start`` as it arrives, and reaps it: each
    process holds one sums array.  A child that fails or sends the wrong
    number of bytes raises ``WorkerError``.  Children still running when the
    call ends, by an error or an interrupt, are killed and reaped.
    """

    def chunked(a, b):
        for c in range(a, b, _CHUNK):
            part(c, min(c + _CHUNK, b), start)
        return start

    w = worker_count(n_ens)
    cuts = [n_ens * i // w for i in range(w + 1)]
    ranges = list(zip(cuts, cuts[1:]))
    children = {}  # pid -> (read end of its pipe, its range), until reaped
    try:
        for a, b in ranges[1:]:
            pid, pipe = _fork(chunked, a, b)
            children[pid] = (pipe, (a, b))
        chunked(*ranges[0])
        piece = np.empty(min(_PIECE, start.size), start.dtype)
        for pid, (pipe, (a, b)) in list(children.items()):
            got, head = 0, b""
            with pipe:
                for i in range(0, start.size, _PIECE):
                    buffer = piece[: start.size - i]
                    n = pipe.readinto(buffer.view(np.uint8))
                    if i == 0:  # a failed child's reason starts here
                        head = buffer.view(np.uint8)[:n].tobytes()
                    if n == buffer.nbytes:
                        start[i : i + len(buffer)] += buffer
                    got += n
                rest = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code != 0:
                died = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                reason = (head + rest).decode(errors="replace") if code == 1 else died
                raise WorkerError(f"the worker for members [{a}, {b}) failed: {reason}")
            if got + len(rest) != start.nbytes:
                raise WorkerError(f"the worker for members [{a}, {b}) sent {got + len(rest)} bytes, not {start.nbytes}")
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # already gone, still to be reaped
                pass
            os.waitpid(pid, 0)
    return start


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """One reproducible simulation run.

    The ensemble starts with x in its stationary law and y uniform;
    ``n_iter`` states per member, at least one, are produced after
    ``burn_in`` steps discarded after that start, and the first produced
    state is the post-burn-in point itself.  x-only reductions are
    stationary at any ``burn_in``, including 0; the y-marginal needs a
    burn-in to forget its uniform start.
    """

    params: MapParams
    variant: MapVariant = MapVariant.REVERSIBLE
    n_ens: int
    n_iter: int
    burn_in: int
    seed: int = 0

    def __post_init__(self):  # checked before any worker starts
        _require(vars(self), n_ens=_n_ens_claim, n_iter=_states_claim, burn_in=_steps_claim, seed=_seed_claim)


def sample_ensemble(n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform points on the unit square as an (n, 2) array.

    Point k is a fixed function of (seed, k): values come from a Philox
    counter stream keyed by the seed, in counter order.  The seed is one
    64-bit key word, so it must lie in [0, 2**64).
    """
    _refuse("n", n, _in_range(1))
    return _philox(_seed_key(seed), 0).random((int(n), 2))


@dataclass
class Histogram2D:
    """Uniform-bin occupation counts on the unit square."""

    nx: int
    ny: int
    counts: np.ndarray
    n_samples: int

    def x_marginal(self, density: bool = False) -> np.ndarray:
        m = self.counts.sum(axis=1).astype(float)
        return m * self.nx / max(self.n_samples, 1) if density else m

    def y_marginal(self, density: bool = False) -> np.ndarray:
        m = self.counts.sum(axis=0).astype(float)
        return m * self.ny / max(self.n_samples, 1) if density else m


def empirical_density(config: SimConfig, nx: int, ny: int) -> Histogram2D:
    """Histogram of all post-burn-in states (n_ens * n_iter samples)."""
    for name, bins in ("nx", nx), ("ny", ny):
        _refuse(name, bins, _bins_claim, DomainError if bins < 1 else CapacityError)

    def part(a, b, counts):
        for x, y, _, _ in _run(config, True, (a, b)):
            cell = np.minimum((x * nx).astype(np.int64), nx - 1)
            cell *= ny
            cell += np.minimum((y * ny).astype(np.int64), ny - 1)
            np.add.at(counts, cell, 1)  # a bincount would be as long as counts

    counts = _split(config.n_ens, part, np.zeros(nx * ny, dtype=np.int64))
    return Histogram2D(nx=nx, ny=ny, counts=counts.reshape(nx, ny), n_samples=config.n_ens * config.n_iter)


def transition_counts(config: SimConfig) -> np.ndarray:
    """4x4 counts of observed one-step region transitions
    (n_iter - 1 transitions per member)."""

    def part(a, b, counts):
        prev = None
        for _, _, r, _ in _run(config, False, (a, b)):
            if prev is not None:
                counts += np.bincount(prev.astype(np.int64) * 4 + r, minlength=16)
            prev = r

    return _split(config.n_ens, part, np.zeros(16, dtype=np.int64)).reshape(4, 4)


def _segment_means(config: SimConfig, seg_len: int, members: tuple[int, int]):
    """The per-segment loop of ``segment_mean_counts``: yields the means of
    the members [a, b) over each of their ``n_iter // seg_len`` consecutive
    segments as the segment ends, each mean the sum of ``seg_len`` region
    rates starting with the segment's first state, over ``seg_len``.  They
    are yielded in the one buffer that then sums the next segment, so a
    consumer uses them, or overwrites them, before it asks for the next."""
    a, b = members
    n_segs = config.n_iter // seg_len
    used = replace(config, n_iter=n_segs * seg_len)  # no state past the last segment is made
    acc = np.zeros(b - a)
    for k, (_, _, _, rows) in enumerate(_run(used, False, members, contraction_rates(config.params))):
        acc += rows[:, 2]
        if (k + 1) % seg_len == 0:
            acc /= seg_len
            yield acc
            acc[:] = 0.0


def segment_mean_counts(
    config: SimConfig, seg_len: int, scale: float, cell_of: Callable[[np.ndarray], np.ndarray], n_cells: int,
    min_count: int = 1,
) -> np.ndarray:
    """Counts per cell of the segment means of ``config`` over ``scale``:
    ``cell_of(values)`` gives each value's cell in ``[0, n_cells)``, or -1
    for a value in no cell, which is not counted.

    Each member contributes ``n_iter // seg_len`` consecutive segments; a
    segment mean sums exactly ``seg_len`` region rates starting with the
    segment's first state.  Each chunk of members bins its means as each
    segment ends, so no worker keeps a mean past its segment and only the
    ``n_cells`` int64 counts leave a worker; only the ensemble cap bounds
    the number of segments.  A run of fewer than ``min_count`` segments,
    where no cell can count ``min_count``, is refused before any worker
    starts.
    """
    _refuse("seg_len", seg_len, _in_range(1))
    if (claim := _segments_claim(config.n_ens, config.n_iter, seg_len, min_count)) is not None:
        raise _refusal(claim)

    def part(a, b, counts):
        for means in _segment_means(config, seg_len, (a, b)):
            means /= scale
            cells = cell_of(means)
            counts += np.bincount(cells[cells >= 0], minlength=n_cells)

    return _split(config.n_ens, part, np.zeros(n_cells, dtype=np.int64))


def _add_moments(sums: np.ndarray, z: np.ndarray) -> None:
    """Add Σz, then Σz zᵀ, of the members' integer counts ``z``, one member
    a column of the (d, m) array, into the d + d² ``sums``."""
    sums[: len(z)] += z.sum(axis=1)
    sums[len(z) :] += (z @ z.T).ravel()


def _moments(n: int, blocks, scale: int) -> tuple[float, float]:
    """The mean of n members' values w . z / scale and its standard error
    (nan for one member), from one block (w, moments) per disjoint group of
    members: integer weights w and the ``_add_moments`` of the group's
    counts z.  The centred moment n Σ(w . z)² - (Σ w . z)² is exact in
    Python ints, and each result is rounded once."""
    s1 = s2 = 0
    for w, moments in blocks:
        d = len(w)
        z, zz = moments[:d].astype(np.int64).tolist(), moments[d:].astype(np.int64).reshape(d, d).tolist()
        s1 += sum(wi * zi for wi, zi in zip(w, z))
        s2 += sum(wi * wj * zz[i][j] for i, wi in enumerate(w) for j, wj in enumerate(w))
    return s1 / (n * scale), math.sqrt((n * s2 - s1 * s1) / (n * n * (n - 1) * scale * scale)) if n > 1 else math.nan


def _region_phi(phi) -> tuple[np.ndarray, list[int], int]:
    """``phi`` as one finite float per region, and exactly as integers p
    over one power-of-two denominator den: phi = p / den."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (4,) or not np.isfinite(phi).all():
        raise DomainError("phi must assign one value per region, a finite one")
    ratios = [v.as_integer_ratio() for v in phi.tolist()]
    den = max(d for _, d in ratios)
    return phi, [num * (den // d) for num, d in ratios], den


def _lag_sums(config: SimConfig, phi: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Per start region r_0 the ``_add_moments`` of the members' region
    counts over the kept states, (4, 20); and the float sums over members
    of phi(r_k) phi(r_0) at each kept step k, none where ``phi`` is None.
    A state adds each member's ``_LANES`` word, gathered in column 3 of its
    row, into a packed float64 that holds it exactly, flushed before a lane
    carries.  Refused before any worker starts if the sums could not hold
    the moments exactly: an entry of Σc cᵀ reaches n_ens n_iter²."""
    if (claim := _moment_claim(config.n_ens, config.n_iter)) is not None:
        raise _refusal(claim, CapacityError)
    t = config.n_iter

    def part(a, b, sums):
        m = b - a
        prod, packed = np.empty(m), np.zeros(m)
        counts = np.zeros((4, m), dtype=np.int32)  # a member a column; n_iter < 2**27 by _MAX_MOMENT
        for k, (_, _, r, rows) in enumerate(_run(config, False, (a, b), phi)):
            if k == 0:
                r0, phi0 = r, rows[:, 2].copy()  # the next state's gather overwrites rows
            if phi is not None:
                np.multiply(rows[:, 2], phi0, out=prod)
                sums[80 + k] += prod.sum()
            packed += rows[:, 3]
            if (k + 1) % _LANE_MAX == 0 or k + 1 == t:
                counts += packed.astype(np.uint32).view(np.uint8).reshape(m, 4).T
                packed[:] = 0.0
        for i, moments in enumerate(sums[:80].reshape(4, 20)):
            _add_moments(moments, counts.compress(r0 == i, axis=1).astype(np.int64))

    sums = _split(config.n_ens, part, np.zeros(80 + (0 if phi is None else t)))
    return sums[:80].reshape(4, 20), sums[80:]


def odd_observable_mean(config: SimConfig, phi: np.ndarray, scheme: ReversalScheme) -> tuple[float, float]:
    """Ensemble/time average of a region observable that is odd under the
    reversal scheme; returns (mean, stderr across members), each exact from
    the moments of the members' region counts, then rounded once.

    Raises if phi(Q r) != -phi(r) for any region (tolerance 1e-12).
    """
    phi, p, den = _region_phi(phi)
    for r in Region:
        if abs(phi[region_reverse(r, scheme)] + phi[r]) > 1e-12:
            raise DomainError(f"phi is not odd under {scheme.value}: region {r.name}")
    return _moments(config.n_ens, [(p, m) for m in _lag_sums(config, None)[0]], den * config.n_iter)


def lag_products(config: SimConfig, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over members of ``phi(r_k) phi(r_0)`` for a region observable
    ``phi``, r_k a member's region at kept step k, at each step (``n_iter``
    values); and the mean over members of their totals over the steps with
    its standard error from their spread, as one pair.

    The step sums are float sums, bitwise independent of where the ranges
    and chunks are cut only when the products are integers, as for the
    current.  A member's total is phi(r_0) phi . c, c its region counts, so
    the pair is exact from the moments per start region, a (4, 4) and a
    (4, 4, 4) block, then rounded once.
    """
    phi, p, den = _region_phi(phi)
    moments, at_step = _lag_sums(config, phi)
    blocks = [([pi * pj for pj in p], m) for pi, m in zip(p, moments)]
    return at_step, np.array(_moments(config.n_ens, blocks, den * den))
