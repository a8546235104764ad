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
before the next starts, and each chunk writes its per-member rows straight
into their slice, so a worker's memory does not grow with its range apart
from the rows it returns.  Only the member averages and lag products return
rows, one float per member; the histograms, transition counts and
segment-mean counts return sums alone.  Chunks and ranges are merged by one
rule, in member order: integer-valued sums are added and per-member rows
concatenated.  Their results are therefore bitwise independent of the
worker count, the CPU count and the chunk size.

Because the x-coordinate update never reads y, x-projected reductions are
bitwise identical between the reversible and irreversible variants at equal
seed, and internal fast paths may skip the y update entirely.

Every run starts x in its exact stationary law, the piecewise-constant
density (2, 8 ell)/(1 + 4 ell) on the two halves, by the inverse CDF of the
same uniforms, and y uniform.  x-only reductions are therefore stationary
from the first step and need no burn-in; reductions that read y still do.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import CapacityError, DomainError, WorkerError
from .mapcore import (
    MapParams,
    MapVariant,
    Region,
    ReversalScheme,
    contraction_rates,
    region_indices,
    region_reverse,
    step_arrays,
    _x_gather,
    _x_step_table,
)

__all__ = [
    "SimConfig",
    "Histogram2D",
    "RectSet",
    "MeasureEstimate",
    "sample_ensemble",
    "worker_count",
    "empirical_density",
    "transition_counts",
    "segment_mean_counts",
    "measure_estimate",
    "odd_observable_mean",
    "lag_products",
    "reflect_rect",
]

_MAX_ENSEMBLE = 50_000_000
# fewest members per worker process: below it forking a worker costs more
# than the second core saves (crossover sweep in CHANGES.md)
_MIN_SPLIT_MEMBERS = 10_000
# most members a worker evolves at once: 8 bytes a member per array, so x, y
# and their images fit a 2 MiB L2 (sweep in CHANGES.md)
_CHUNK = 16_384
# widest 2-d histogram accepted (2000 x 2000): each worker's counts take 8
# bytes a cell, 32 MB at the cap, and the parent reads a child's counts into
# a second such array before adding them
_MAX_HIST_CELLS = 4_000_000

# At ell = 1/4 (and only there) every branch has x-slope exactly 2, so a
# float64 orbit sheds one significand bit per step and collapses onto the
# x = 1/2 fixed point within ~55 iterations.  The engine re-injects
# counter-based noise at 2^-43, far below any feasible histogram
# resolution, purely to keep the sampled orbit ergodic; all other
# parameter values mix low-order bits through non-dyadic arithmetic and
# need no regularization.
_DITHER_SCALE = 2.0**-43
_DITHER_SUBKEY_X = np.uint64(0xB4C3D11A)
_DITHER_SUBKEY_Y = np.uint64(0xB4C3D11B)


def _needs_dither(params: MapParams) -> bool:
    return params.ell == 0.25


def _seed_key(seed: int) -> np.uint64:
    """The seed as the one 64-bit key word of the sample stream."""
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
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
    """``clip(v + (u - 0.5) * 2 * _DITHER_SCALE, 0, 1)`` for uniform u,
    computed in place in the one array of draws."""
    d = gen.random(len(v))
    d -= 0.5
    d *= 2.0
    d *= _DITHER_SCALE
    d += v
    return np.clip(d, 0.0, 1.0, out=d)


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


def _run(config: SimConfig, with_y: bool, members: tuple[int, int], phi: np.ndarray | None = None):
    """The one state advance behind every ensemble reduction, so that any
    two reductions over the same config see bitwise-identical x streams.

    ``members = (a, b)`` evolves the members [a, b) only, bit for bit as in
    the whole ensemble.  They start from rows [a, b) of
    ``sample_ensemble``: the first column goes through the inverse CDF of
    the exact stationary x-law (``_stationary_x``) and the second is y,
    uniform.  The x-projection is then stationary from step 0, whatever
    the variant; only y needs burn-in.  At ell = 1/4 step k draws the slice
    [k n_ens + a, k n_ens + b) of each dither stream.

    Discards ``burn_in`` states, then yields ``(x, y, r, v)`` at each of the
    ``n_iter`` kept states, taking ``burn_in + n_iter - 1`` steps in all,
    and none when ``n_iter`` is 0.  With ``with_y``, ``step_arrays`` looks
    the regions up block by block inside each step, taken after the state
    is yielded, and r and v are None.  Without it, y is None and each
    state's int8 regions r are looked up once, after the dither; the step
    that leaves the state is taken before it is yielded, by ``step_arrays``
    given r, and its one gather of ``_x_step_table(params, phi)`` per member
    also writes v = phi[r] (0 where ``phi`` is None).  At the last state,
    which no step leaves, ``_x_gather`` writes v alone.

    x, y and r are the loop's own state: the next step replaces them rather
    than writing into them.  v is the one buffer that every state's gather
    writes into, so it holds phi[r] only until the consumer asks for the
    next state; a consumer that keeps it copies it.
    """
    if config.n_iter == 0:
        return
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
    last = config.burn_in + config.n_iter - 1
    table = xn = r = v = None
    if not with_y:
        table, v = _x_step_table(params, phi), np.empty(b - a)
    for k in range(last + 1):
        if k > 0:  # step k - 1 leads to state k
            if table is None:
                x, y = step_arrays(x, y, params, config.variant)
            else:  # taken at state k - 1
                x, xn = xn, None
            if dither:
                x = _dither(x, _philox(kx, (k - 1) * n + a))
                y = None if y is None else _dither(y, _philox(ky, (k - 1) * n + a))
        if table is not None:
            r = region_indices(x, params.ell)
            if k < last:
                xn, _ = step_arrays(x, None, params, config.variant, r, table, v)
            else:
                _x_gather(r, table, v)
        if k >= config.burn_in:
            yield x, y, r, v


def worker_count(n_ens: int) -> int:
    """Processes that share an ensemble reduction over ``n_ens`` members:
    one per usable CPU, but at most one per ``_MIN_SPLIT_MEMBERS`` members,
    and one where the platform cannot fork.  No result depends on it."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, n_ens // _MIN_SPLIT_MEMBERS))


def _fork(part: Callable[[int, int], tuple[np.ndarray, np.ndarray]], a: int, b: int):
    """Fork a child that writes the bytes of the two arrays of
    ``part(a, b)`` to a pipe and exits 0, or on any failure writes a
    one-line reason and exits 1.  Returns the child's pid and the read end
    of its pipe."""
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
                payload = [np.ascontiguousarray(v).reshape(-1).view(np.uint8) for v in part(a, b)]
                status = 0
            except BaseException as exc:  # reported by the parent
                payload = [f"{type(exc).__name__}: {exc}".encode()]
            with open(w, "wb") as pipe:
                for chunk in payload:
                    pipe.write(chunk)
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _split(
    n_ens: int,
    part: Callable[[int, int, np.ndarray, np.ndarray], None],
    start: np.ndarray,
    row_shape: tuple[int, ...] = (0,),
) -> tuple[np.ndarray, np.ndarray]:
    """``part(c, d, sums, rows)``, a reduction over the members [c, d) that
    adds into ``sums`` and writes one float64 row of shape ``row_shape`` per
    member into ``rows``, run on the contiguous ranges of
    ``worker_count(n_ens)`` workers, each range cut into consecutive chunks
    of at most ``_CHUNK`` members, and merged in member order: each worker
    adds the chunks of its range into its own copy of ``start`` and each
    chunk writes its rows into their slice of the worker's rows, the parent
    adds up the workers' sums (exact for the integer-valued sums added
    here), and every worker's rows land in their slice of the one
    ``(n_ens, *row_shape)`` array the parent returns.  A reduction without
    sums takes ``np.empty(0)`` as ``start``; one without rows keeps the
    default ``row_shape``, so its rows take no bytes.

    The parent forks a child for every range but the first, reduces the
    first itself straight into the rows it returns, then reads each child's
    sums into a buffer and its rows straight into their slice, and reaps
    it.  A child that fails or sends the wrong number of bytes raises
    ``WorkerError`` and nothing is merged.  Children still running when the
    call ends, by an error or an interrupt, are killed and reaped.
    """

    def chunked(a, b, rows=None):
        sums = start.copy()
        if rows is None:  # a child's range
            rows = np.empty((b - a, *row_shape))
        for c in range(a, b, _CHUNK):
            d = min(c + _CHUNK, b)
            part(c, d, sums, rows[c - a : d - a])
        return sums, rows

    w = worker_count(n_ens)
    cuts = [n_ens * i // w for i in range(w + 1)]
    ranges = list(zip(cuts, cuts[1:]))
    children = {}  # pid -> (read end of its pipe, its range), until reaped
    try:
        for a, b in ranges[1:]:
            pid, pipe = _fork(chunked, a, b)
            children[pid] = (pipe, (a, b))
        rows = np.empty((n_ens, *row_shape))
        sums, _ = chunked(*ranges[0], rows[: cuts[1]])
        child_sums = np.empty_like(sums)
        for pid, (pipe, (a, b)) in list(children.items()):
            buffers = [child_sums.reshape(-1).view(np.uint8), rows[a:b].reshape(-1).view(np.uint8)]
            with pipe:
                got = [pipe.readinto(buffer) for buffer in buffers]
                extra = len(pipe.read(1))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code != 0:
                reason = (
                    b"".join(buffer[:n].tobytes() for buffer, n in zip(buffers, got)).decode(errors="replace")
                    if code == 1
                    else f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                )
                raise WorkerError(f"the worker for members [{a}, {b}) failed: {reason}")
            expected = sum(buffer.nbytes for buffer in buffers)
            if sum(got) + extra != expected:
                raise WorkerError(f"the worker for members [{a}, {b}) sent {sum(got) + extra} bytes, not {expected}")
            sums += child_sums
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # already gone, still to be reaped
                pass
            os.waitpid(pid, 0)
    return sums, rows


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation run.

    The ensemble starts with x in its stationary law and y uniform;
    ``n_iter`` states per member are produced after ``burn_in`` steps
    discarded after that start, and the first produced state is the
    post-burn-in point itself.  x-only reductions are stationary at any
    ``burn_in``, including 0; the y-marginal needs a burn-in to forget its
    uniform start.
    """

    params: MapParams
    variant: MapVariant = MapVariant.REVERSIBLE
    n_ens: int = 10_000
    n_iter: int = 1_000
    burn_in: int = 1_000
    seed: int = 0

    def __post_init__(self):
        if self.n_ens < 1 or self.n_ens > _MAX_ENSEMBLE:
            raise DomainError(f"n_ens must lie in [1, {_MAX_ENSEMBLE}], got {self.n_ens}")
        if self.n_iter < 0:
            raise DomainError("n_iter must be >= 0")
        if self.burn_in < 0:
            raise DomainError("burn_in must be >= 0")
        _seed_key(self.seed)  # checked before any worker starts


def sample_ensemble(n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform points on the unit square as an (n, 2) array.

    Point k is a fixed function of (seed, k): values come from a Philox
    counter stream keyed by the seed, in counter order.  The seed is one
    64-bit key word, so it must lie in [0, 2**64).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
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
        if density:
            m = m * self.nx / max(self.n_samples, 1)
        return m

    def y_marginal(self, density: bool = False) -> np.ndarray:
        m = self.counts.sum(axis=0).astype(float)
        if density:
            m = m * self.ny / max(self.n_samples, 1)
        return m


def empirical_density(config: SimConfig, nx: int = 500, ny: int = 500) -> Histogram2D:
    """Histogram of all post-burn-in states (n_ens * n_iter samples)."""
    if config.n_iter < 1:
        raise DomainError("n_iter must be >= 1 for a density estimate")
    if nx < 1 or ny < 1:
        raise DomainError("bin counts must be >= 1")
    if nx * ny > _MAX_HIST_CELLS:
        raise CapacityError(
            f"a {nx} x {ny} histogram exceeds the limit of {_MAX_HIST_CELLS} cells"
        )

    def part(a, b, counts, _):
        for x, y, _, _ in _run(config, True, (a, b)):
            cell = np.minimum((x * nx).astype(np.int64), nx - 1)
            cell *= ny
            cell += np.minimum((y * ny).astype(np.int64), ny - 1)
            np.add.at(counts, cell, 1)  # a bincount would be as long as counts

    counts, _ = _split(config.n_ens, part, np.zeros(nx * ny, dtype=np.int64))
    n_samples = config.n_ens * config.n_iter
    return Histogram2D(nx=nx, ny=ny, counts=counts.reshape(nx, ny), n_samples=n_samples)


def transition_counts(config: SimConfig) -> np.ndarray:
    """4x4 counts of observed one-step region transitions
    (n_iter - 1 transitions per member)."""

    def part(a, b, counts, _):
        prev = None
        for _, _, r, _ in _run(config, False, (a, b)):
            if prev is not None:
                counts += np.bincount(prev.astype(np.int64) * 4 + r, minlength=16)
            prev = r

    return _split(config.n_ens, part, np.zeros(16, dtype=np.int64))[0].reshape(4, 4)


def _segment_means(config: SimConfig, seg_len: int, members: tuple[int, int]):
    """The per-segment loop of ``segment_mean_counts``: yields the means of
    the members [a, b) over each of their ``n_iter // seg_len`` consecutive
    segments as the segment ends, each mean the sum of
    ``seg_len`` region rates starting with the segment's first state, over
    ``seg_len``.  They are yielded in the one buffer that then sums the next
    segment, so a consumer uses them, or overwrites them, before it asks for
    the next."""
    a, b = members
    n_segs = config.n_iter // seg_len
    used = replace(config, n_iter=n_segs * seg_len)  # no state past the last segment is made
    rates, acc = contraction_rates(config.params), np.zeros(b - a)
    # v alone passes through enumerate, whose last item stays referenced
    # until the next one: a held x would outlive the step that replaces it
    for k, rate in enumerate(v for _, _, _, v in _run(used, False, members, rates)):
        acc += rate
        if (k + 1) % seg_len == 0:
            acc /= seg_len
            yield acc
            acc[:] = 0.0


def segment_mean_counts(
    config: SimConfig, seg_len: int, scale: float, cell_of: Callable[[np.ndarray], np.ndarray], n_cells: int
) -> np.ndarray:
    """Counts per cell of the segment means of ``config`` over ``scale``:
    ``cell_of(values)`` gives each value's cell in ``[0, n_cells)``, or -1
    for a value in no cell, which is not counted.

    Each member contributes ``n_iter // seg_len`` consecutive segments; a
    segment mean sums exactly ``seg_len`` region rates starting with the
    segment's first state.  Each chunk of members bins its means as each
    segment ends, so no worker keeps a mean past its segment and only the
    ``n_cells`` int64 counts leave a worker; only the ensemble cap bounds
    the number of segments.
    """
    if seg_len < 1:
        raise DomainError("seg_len must be >= 1")
    if config.n_iter < seg_len:
        raise DomainError("n_iter too small for one segment")

    def part(a, b, counts, _):
        for means in _segment_means(config, seg_len, (a, b)):
            means /= scale
            cells = cell_of(means)
            counts += np.bincount(cells[cells >= 0], minlength=n_cells)

    return _split(config.n_ens, part, np.zeros(n_cells, dtype=np.int64))[0]


@dataclass(frozen=True)
class RectSet:
    """Axis-aligned rectangle inside the unit square."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (0.0 <= self.x_min < self.x_max <= 1.0 and 0.0 <= self.y_min < self.y_max <= 1.0):
            raise DomainError(f"invalid rectangle {self}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x >= self.x_min) & (x < self.x_max) & (y >= self.y_min) & (y < self.y_max)


@dataclass(frozen=True)
class MeasureEstimate:
    fraction: float
    stderr: float
    n_samples: int


def _member_average(config: SimConfig, values: Callable) -> tuple[float, float]:
    """Mean over members of each member's time average of the per-state
    arrays that ``values((a, b))`` yields for the members [a, b), with the
    standard error from the spread of those time averages (nan for a single
    member)."""

    def part(a, b, _, per_member):
        per_member[:] = 0.0
        for v in values((a, b)):
            per_member += v

    _, per_member = _split(config.n_ens, part, np.empty(0), ())
    per_member /= config.n_iter
    se = float(per_member.std(ddof=1) / np.sqrt(config.n_ens)) if config.n_ens > 1 else float("nan")
    return float(per_member.mean()), se


def measure_estimate(config: SimConfig, rect: RectSet) -> MeasureEstimate:
    """Long-run fraction of post-burn-in states inside ``rect``.

    The standard error comes from the spread of per-member time averages,
    so it stays honest under within-member correlation.
    """
    if config.n_iter < 1:
        raise DomainError("n_iter must be >= 1 for a measure estimate")
    frac, se = _member_average(config, lambda m: (rect.contains(x, y) for x, y, _, _ in _run(config, True, m)))
    return MeasureEstimate(fraction=frac, stderr=se, n_samples=config.n_ens * config.n_iter)


def reflect_rect(rect: RectSet) -> list[RectSet]:
    """Image of a rectangle under the time-reversal map.

    The reversal is piecewise across x = 1/2, so the rectangle is split at
    the seam first; mapping corners of an unsplit straddling rectangle
    would be wrong.
    """
    pieces = []
    if rect.x_min < 0.5:
        pieces.append((rect.x_min, min(rect.x_max, 0.5), False))
    if rect.x_max > 0.5:
        pieces.append((max(rect.x_min, 0.5), rect.x_max, True))
    out = []
    for x0, x1, right in pieces:
        if right:
            out.append(
                RectSet(0.5 * (rect.y_min + 1.0), 0.5 * (rect.y_max + 1.0), 2.0 * x0 - 1.0, 2.0 * x1 - 1.0)
            )
        else:
            out.append(RectSet(0.5 * rect.y_min, 0.5 * rect.y_max, 2.0 * x0, 2.0 * x1))
    return out


def odd_observable_mean(
    config: SimConfig, phi: np.ndarray, scheme: ReversalScheme
) -> tuple[float, float]:
    """Ensemble/time average of a region observable that is odd under the
    reversal scheme; returns (mean, stderr across members).

    Raises if phi(Q r) != -phi(r) for any region (tolerance 1e-12).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (4,):
        raise DomainError("phi must assign one value per region")
    for r in Region:
        if abs(phi[region_reverse(r, scheme)] + phi[r]) > 1e-12:
            raise DomainError(f"phi is not odd under {scheme.value}: region {r.name}")
    if config.n_iter < 1:
        raise DomainError("n_iter must be >= 1")
    return _member_average(config, lambda m: (v for _, _, _, v in _run(config, False, m, phi)))


def lag_products(config: SimConfig, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of ``phi(r_k) phi(r_0)`` for a region observable ``phi``, where
    r_k is a member's region at kept step k: over members at each step
    (``n_iter`` values) and over steps for each member (``n_ens`` values).

    The step sums are added up over the chunks and the worker ranges, so
    they are bitwise independent of the worker count and the chunk size when
    the products are integer-valued, as they are for the current.  For a
    ``phi`` whose products are not, they depend on where the ranges and the
    chunks are cut.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (4,):
        raise DomainError("phi must assign one value per region")

    def part(a, b, at_step, per_member):
        per_member[:] = 0.0
        prod = np.empty(b - a)
        for k, v in enumerate(v for _, _, _, v in _run(config, False, (a, b), phi)):  # as in _segment_means
            if k == 0:
                phi0 = v.copy()  # the next state's gather overwrites v
            np.multiply(v, phi0, out=prod)
            at_step[k] += prod.sum()
            per_member += prod

    return _split(config.n_ens, part, np.zeros(config.n_iter), ())
