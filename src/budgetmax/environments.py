"""Trial-stream generators and the line-oriented stream file format.

Four families:

- ``facility_location``: zero energies, non-negative costs, rewards are
  clipped linear in the distance between random sites and per-trial users.
- ``knapsack_median``: positive energies, zero costs, same reward geometry.
- ``knapsack_01``: zero rewards, non-positive costs (item values enter as
  negated costs, so profit is the summed value of the selected items).
- ``random_adversarial``: bounded uniform rewards/costs/energies with an
  optional piecewise-constant shift schedule that changes which action is
  favored from segment to segment.

Every stream is cut one way, whether generated, read, spooled, learned or
written (:func:`_block_rows`): into blocks of ``BLOCK_ENTRIES`` entries in
whole rows of ``n``, at least one. A block is a triple ``(start, rewards,
costs)`` that carries its first trial's 0-based index, so no later stage
cuts or counts trials. A spec's stream (:func:`generate`) draws each
block when it is read, so a run holds one whatever ``T`` is. Each block
of each matrix has its own ``np.random.PCG64(seed)``, advanced to the
draw at which one ``np.random.default_rng(seed)`` drawing everything in
turn would start the block (every ``random`` or ``uniform`` double is one
64-bit output), so the values do not depend on the block size or on how
often a block is read. The matrices' offsets, in draws:

====================  ====================================================
kind                  matrix at its offset
====================  ====================================================
facility_location     sites ``(n, 2)`` at 0, users ``(T, 2)`` at ``2n``,
                      costs at ``2n + 2T``
knapsack_median       z at 0, sites at ``n``, users at ``3n``; zero costs
knapsack_01           z at 0, item values at ``n``; zero rewards
random_adversarial    z at 0, costs at ``n``, rewards at ``n + Tn``; with
                      ``shift_segments >= 2`` the favored actions
                      (``permutation``, a variable number of draws) at
                      ``n + 2Tn``, and the per-trial boosts after them
                      from that same generator
====================  ====================================================

Every stream is a :class:`Stream`, read by its blocks. One built in
memory holds the ``(T, n)`` reward and cost matrices; trial ``t`` is row
``t - 1`` of both. It checks its matrices once, when it is built, with
whole-array operations, and a :class:`TrialError` names the first bad
trial. A stream read from a file is a :class:`SpooledStream`: its rows,
checked the same way a block at a time, wait in a temporary file and are
read back only by its blocks, one at a time. A spec's stream is a
:class:`GeneratedStream`, whose blocks are drawn only when they are read.
Nothing but a run's bound check (at most 20 actions) reads a replayed or
generated stream whole: its comparator stacks the stream's blocks, read
a second time after the run's pass.
Every stream has one :attr:`~Stream.value_range`, ``(largest reward,
smallest cost, largest cost)``, computed once where its rows enter: from
the matrices of one built in memory, folded block by block as a file is
read. :func:`check_stream` checks a kind's rules on a stream's energies
and on that range. Generated rows need no check, so a
:class:`GeneratedStream`'s range is None: from a valid spec, every value
is finite, rewards lie in ``[0, r_max]``, ``facility_location`` costs are
at least ``cost_range[0] >= 0``, ``knapsack_median`` costs are zero,
``knapsack_01`` costs are at most 0 and ``random_adversarial`` costs lie
within ``c_max``. Only energies can break their kind's rule:
``beta_max * (1 - u)`` underflows to 0 when ``beta_max`` is subnormal.

Stream files are plain text: a preamble line ``n,T,z_1,...,z_n`` followed by
one line ``t,r_1,...,r_n,c_1,...,c_n`` per trial, floats printed with 17
significant digits so a write/read round trip is bit-exact.
:func:`write_stream` is the one writer of the format. Neither direction
holds more than a block's text: ``write_stream`` renders each block in
one write (:func:`write_rows`), and ``read_stream`` walks a buffered
reader's lines once, in file order (:func:`_lines` only splits them): the
preamble, then each block's trial lines (:func:`_trial_block`), cast in
one ``np.loadtxt`` call when every line is spelled as ``write_rows``
spells it and line by line otherwise, then any trailing lines. Each line's own check comes first and names its
first non-ASCII byte (:func:`_ascii`), so the first bad line is named
whatever its fault. Each cast block is checked and appended to the spool
before the next is read, and the learner reads the same blocks back, so
a replay never holds the ``(T, n)`` matrices.
The reader keeps the file's path and identity as the stream's ``source``,
and ``write_stream`` saves such a stream by copying that file, as it was
read, not re-rendered with ``%.17g``, once it has checked that the file
is still the one it parsed.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import shutil
import stat
import weakref
from contextlib import ExitStack
from dataclasses import dataclass
from tempfile import TemporaryFile

import numpy as np

from .core import ActionSet

KINDS = ("facility_location", "knapsack_median", "knapsack_01", "random_adversarial")


class StreamFormatError(ValueError):
    """Malformed stream file; messages carry the 1-based line number.

    A path that is not a regular file is refused with a message that names it.
    """


class TrialError(ValueError):
    """A stream row that fails a :class:`Stream`'s check: its 1-based ``trial`` and ``reason``.

    The message is ``trial <trial>: <reason>``; ``read_stream`` names the
    trial's line instead, from :func:`_first_bad_trial`'s ``(trial, reason)``.
    """

    def __init__(self, trial: int, reason: str):
        super().__init__(f"trial {trial}: {reason}")
        self.trial, self.reason = trial, reason


# Buffer of the reader that parses a stream file. Lines are about 4 KB at
# n = 100: with the default 8 KiB buffer, reading and splitting the lines of
# such a 6 MB file lost 42 of 60 interleaved timings to splitting the same
# bytes held in memory; from 64 KiB to 1 MiB it was at parity.
READ_BUFFER = 256 * 1024

# Entries per (rows, n) block of trials that a loop over a stream holds at
# once, cut in _block_rows: bounds the block's temporaries and its text.
BLOCK_ENTRIES = 1 << 14


# Largest c_max whose cost range 2 * c_max is finite: above it
# rng.uniform(-c_max, c_max) raises OverflowError.
C_MAX_LIMIT = float(np.finfo(float).max) / 2


def _finite(value) -> bool:
    """A real number other than a bool, nan or an infinity (JSON allows both)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class EnvironmentSpec:
    """Generator parameters. Only the fields of the chosen kind matter.

    A spec checks itself when it is built: one ``ValueError`` lists every
    field that is out of range, so every spec that exists is valid. A
    ``cost_range`` or ``value_range`` given as a list is kept as a tuple,
    before the check, so a spec equals and hashes as one built with tuples.
    """

    kind: str
    n: int
    T: int
    seed: int = 0
    r_max: float = 1.0                      # reward ceiling
    cost_range: tuple = (0.0, 0.2)          # facility_location cost interval
    beta_max: float = 0.49                  # energy ceiling for energetic kinds
    value_range: tuple = (0.0, 1.0)         # knapsack_01 item values
    c_max: float = 1.0                      # adversarial |cost| ceiling
    shift_segments: int = 0                 # adversarial favored-action segments

    def __post_init__(self):
        for name in ("cost_range", "value_range"):  # a JSON pair is a list: kept as a tuple
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        problems = []
        if self.kind not in KINDS:
            problems.append(f"unknown kind {self.kind!r} (expected one of {KINDS})")
        if not (type(self.n) is int and self.n >= 1):  # bool is an int subclass
            problems.append(f"n must be a positive integer, got {self.n!r}")
        if not (type(self.T) is int and self.T >= 1):
            problems.append(f"T must be a positive integer, got {self.T!r}")
        if not (type(self.seed) is int and self.seed >= 0):
            problems.append(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (_finite(self.r_max) and self.r_max >= 0.0):
            problems.append(f"r_max must be a finite number >= 0, got {self.r_max!r}")
        for name, pair in (("cost_range", self.cost_range), ("value_range", self.value_range)):
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(map(_finite, pair)) and 0.0 <= pair[0] <= pair[1]):
                problems.append(f"{name} must be a pair of finite numbers with 0 <= lo <= hi, "
                                f"got {pair!r}")
        if not (_finite(self.beta_max) and 0.0 < self.beta_max <= 1.0):
            problems.append(f"beta_max must be a number in (0, 1], got {self.beta_max!r}")
        if not (_finite(self.c_max) and 0.0 <= self.c_max <= C_MAX_LIMIT):
            problems.append(f"c_max must be a number in [0, {C_MAX_LIMIT!r}], got {self.c_max!r}")
        if not (type(self.shift_segments) is int and self.shift_segments >= 0):
            problems.append(f"shift_segments must be a non-negative integer, got {self.shift_segments!r}")
        elif type(self.n) is int and self.shift_segments > max(self.n, 0):
            problems.append(f"shift_segments ({self.shift_segments}) cannot exceed n ({self.n})")
        if problems:
            raise ValueError("invalid environment spec: " + "; ".join(problems))


def _identity(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


@dataclass(frozen=True)
class StreamSource:
    """The file a stream was read from: its path and its identity when read.

    The identity is ``(st_dev, st_ino, st_size, st_mtime_ns)`` of the open
    file; a file replaced, resized or rewritten since then has another.
    """

    path: str
    identity: tuple

    def copy_to(self, dest) -> None:
        """Copy the file to ``dest`` byte for byte, if it is still the one read.

        ``shutil.copyfile`` copies in the kernel where it can. The file's
        identity is taken before and after the copy; if either differs from
        the recorded one, ``OSError`` names the file and ``dest`` may hold a
        partial copy, which the caller removes.
        """
        self._check_unchanged()
        shutil.copyfile(self.path, dest)
        self._check_unchanged()

    def _check_unchanged(self) -> None:
        if _identity(os.stat(self.path)) != self.identity:
            raise OSError(f"stream file {self.path} changed after it was read")


def _first_bad_trial(rewards, costs, n: int, start: int = 0) -> tuple[int, str] | None:
    """``(t, reason)`` for the first 1-based trial whose row is bad, else None.

    Row 0 is trial ``start + 1``. A good row holds ``n`` finite rewards and
    costs, the rewards non-negative. Good rows cost four whole-array
    reductions; only bad ones build boolean ``(rows, n)`` masks to find
    the first.
    """
    if rewards.shape[1] != n:
        return start + 1, f"{rewards.shape[1]} rewards and costs, expected {n}"
    if (rewards.min() >= 0.0 and rewards.max() < np.inf
            and -np.inf < costs.min() and costs.max() < np.inf):
        return None  # nan fails every comparison above
    finite = np.isfinite(rewards)
    finite &= np.isfinite(costs)
    row_finite = finite.all(axis=1)
    t = int(np.argmax(~row_finite | (rewards < 0.0).any(axis=1)))
    return start + t + 1, "negative reward" if row_finite[t] else "rewards and costs must be finite"


def _value_range(rewards, costs, fold=(-np.inf, np.inf, -np.inf)) -> tuple:
    """Checked rows' ``(largest reward, smallest cost, largest cost)``, widening ``fold``'s.

    Three whole-array reductions, with no ``(rows, n)`` temporary. The
    default ``fold`` is the range of no rows, so a block's range is its own.
    """
    return (max(fold[0], float(rewards.max())), min(fold[1], float(costs.min())),
            max(fold[2], float(costs.max())))


class Stream:
    """A full instance held in memory: fixed energies plus (T, n) reward and cost matrices.

    Building a stream casts its matrices to float arrays (a float64 array is
    kept, not copied) and checks them once (at least one trial, and a
    :class:`TrialError` names the first bad trial, see
    :func:`_first_bad_trial`), so every consumer takes row ``t`` of
    ``rewards`` and ``costs`` as trial ``t + 1`` unchecked. Its
    ``value_range``, ``(largest reward, smallest cost, largest cost)`` as
    floats, is computed then too, once, for :func:`check_stream`.

    A stream has three sources, and every one is read by its
    :meth:`blocks`, one :func:`_block_rows` block at a time: a stream
    built in memory, the only one with whole ``rewards`` and ``costs``; a
    spec's stream (:func:`generate`), a :class:`GeneratedStream` that
    draws each block when it is read; and a file's (:func:`read_stream`),
    a :class:`SpooledStream` that reads each block back from its spool.
    Only the last has a file to copy; the others' ``source`` is None.
    """

    source = None

    def __init__(self, action_set: ActionSet, rewards, costs):
        rewards, costs = np.asarray(rewards, dtype=float), np.asarray(costs, dtype=float)
        if rewards.ndim != 2 or rewards.shape != costs.shape or len(rewards) == 0:
            raise ValueError(f"rewards and costs must be (T, n) matrices of one shape with "
                             f"T >= 1, got {rewards.shape} and {costs.shape}")
        bad = _first_bad_trial(rewards, costs, action_set.n)
        if bad is not None:
            raise TrialError(*bad)
        self.action_set, self.T, self.rewards, self.costs = action_set, len(rewards), rewards, costs
        self.value_range = _value_range(rewards, costs)

    @property
    def n(self) -> int:
        return self.action_set.n

    def blocks(self):
        """Yield ``(start, rewards, costs)`` per block: its trials from ``start + 1`` on."""
        for start, rows in _block_rows(self.n, self.T):
            yield start, *self._block(start, rows)

    def close(self) -> None:
        """Release the rows' storage: a replay's spool is deleted, and cannot be read after.

        A stream in memory holds nothing to release.
        """

    def _block(self, start: int, rows: int):
        """Trials ``start + 1`` to ``start + rows``: row-slice views of the matrices."""
        return self.rewards[start:start + rows], self.costs[start:start + rows]


class SpooledStream(Stream):
    """A stream read from a file, its rows held in a temporary spool rather than in memory.

    :func:`read_stream` appends each checked block, rewards then costs, as
    float64 to an unnamed temporary file under ``TMPDIR`` (``16 T n``
    bytes), folds their ``value_range`` a block at a time, and keeps the
    file's :class:`StreamSource`, so :func:`write_stream` saves the stream
    by copying the file it was read from. Its rows are read only by
    :meth:`~Stream.blocks`, each block with ``np.fromfile`` (no mapping,
    whose pages would stay resident), so a replay holds one block, as a
    generated run does; it has no whole ``rewards`` or ``costs``.
    :meth:`~Stream.close` deletes the spool; a stream dropped unclosed
    deletes it when it is collected.
    """

    def __init__(self, action_set: ActionSet, T: int, spool, value_range, source: StreamSource):
        self.action_set, self.T, self.value_range, self.source = action_set, T, value_range, source
        self._spool = spool
        # stands for Stream.close: closes the spool once, or when the stream is collected
        self.close = weakref.finalize(self, spool.close)

    def _block(self, start: int, rows: int):
        """Trials ``start + 1`` to ``start + rows``, read back from the spool."""
        width = 2 * self.n
        self._spool.seek(start * width * 8)
        values = np.fromfile(self._spool, count=rows * width).reshape(rows, width)
        return values[:, :self.n], values[:, self.n:]


def site_rewards(sites: np.ndarray, users: np.ndarray, r_max: float) -> np.ndarray:
    """Clipped linear reward ``max(0, r_max - distance)`` per (user, site).

    A user sitting exactly on a site earns the full ``r_max``.
    """
    d = np.linalg.norm(users[:, None, :] - sites[None, :, :], axis=2)
    return np.maximum(0.0, r_max - d)


def _rng_at(seed: int, draws: int) -> np.random.Generator:
    """The generator ``np.random.default_rng(seed)`` is after drawing ``draws`` doubles."""
    return np.random.Generator(np.random.PCG64(seed).advance(draws))


def _block_rows(n: int, T: int):
    """The one cut of ``T`` trials of ``n`` actions: ``(start, rows)`` per block.

    A block holds ``BLOCK_ENTRIES`` entries in whole rows of ``n``, at
    least one (the last block may have fewer), from the 0-based trial
    ``start`` on.
    """
    rows = max(1, BLOCK_ENTRIES // n)
    for start in range(0, T, rows):
        yield start, min(rows, T - start)


def _facility_location(spec: EnvironmentSpec):
    n, T, seed = spec.n, spec.T, spec.seed
    sites = _rng_at(seed, 0).random((n, 2))
    lo, hi = spec.cost_range
    return np.zeros(n), lambda start, m: (
        site_rewards(sites, _rng_at(seed, 2 * n + 2 * start).random((m, 2)), spec.r_max),
        _rng_at(seed, 2 * n + 2 * T + start * n).uniform(lo, hi, size=(m, n)))


def _knapsack_median(spec: EnvironmentSpec):
    n, seed = spec.n, spec.seed
    z = spec.beta_max * (1.0 - _rng_at(seed, 0).random(n))  # strictly positive
    sites = _rng_at(seed, n).random((n, 2))
    return z, lambda start, m: (
        site_rewards(sites, _rng_at(seed, 3 * n + 2 * start).random((m, 2)), spec.r_max),
        np.zeros((m, n)))


def _knapsack_01(spec: EnvironmentSpec):
    n, seed = spec.n, spec.seed
    z = spec.beta_max * (1.0 - _rng_at(seed, 0).random(n))
    vlo, vhi = spec.value_range
    return z, lambda start, m: (
        np.zeros((m, n)), -_rng_at(seed, n + start * n).uniform(vlo, vhi, size=(m, n)))


def _random_adversarial(spec: EnvironmentSpec):
    """``random_adversarial``'s energies and block function, with its favored-action segments.

    The favored actions and the per-trial boosts come from one generator
    at draw ``n + 2Tn``: ``permutation`` draws a variable number of values,
    so each block's boosts come from a copy of that generator as the
    permutation left it, advanced by one draw per earlier trial.
    """
    n, T, seed, k, r_max = spec.n, spec.T, spec.seed, spec.shift_segments, spec.r_max
    z = _rng_at(seed, 0).uniform(0.0, spec.beta_max, n)
    if k >= 2:
        boosts = _rng_at(seed, n + 2 * T * n).bit_generator
        favored = np.random.Generator(boosts).permutation(n)[:k]

    def block(start: int, m: int):
        rewards = _rng_at(seed, n + T * n + start * n).uniform(
            0.0, r_max if k < 2 else 0.5 * r_max, size=(m, n))
        if k >= 2:
            segment = np.minimum((np.arange(start, start + m) * k) // T, k - 1)
            rewards[np.arange(m), favored[segment]] = np.random.Generator(
                copy.copy(boosts).advance(start)).uniform(0.75 * r_max, r_max, size=m)
        return rewards, _rng_at(seed, n + start * n).uniform(-spec.c_max, spec.c_max, size=(m, n))
    return z, block


# Each kind's ``(z, block)``: its energies, and the function that draws
# trials ``start + 1`` to ``start + m`` as ``(m, n)`` reward and cost arrays.
_GENERATORS = {
    "facility_location": _facility_location,
    "knapsack_median": _knapsack_median,
    "knapsack_01": _knapsack_01,
    "random_adversarial": _random_adversarial,
}


class GeneratedStream(Stream):
    """A spec's stream, each block drawn from the spec's generators when it is read.

    Each matrix comes from its own generator, advanced to the draw where
    the module docstring's table puts the block's first trial, so only
    the block read is drawn and held, and every read of a block draws the
    same values. It has no whole ``rewards`` or ``costs``, and its
    ``value_range`` is None: its rows keep every rule on values by
    construction (see the module docstring), so :func:`check_stream`
    checks its energies alone, and no block is drawn to learn a range.
    """

    value_range = None

    def __init__(self, action_set: ActionSet, T: int, block):
        self.action_set, self.T, self._draw = action_set, T, block

    def _block(self, start: int, rows: int):
        """Trials ``start + 1`` to ``start + rows``, drawn."""
        return self._draw(start, rows)


def generate(spec: EnvironmentSpec) -> GeneratedStream:
    """The stream of a spec: its energies, drawn now, and its trials, drawn a block at a time.

    The spec checked itself when it was built. The blocks are not checked:
    they keep every rule on values by construction (see the module
    docstring), so a run checks the energies alone.
    """
    z, block = _GENERATORS[spec.kind](spec)
    return GeneratedStream(ActionSet.from_energies(z), spec.T, block)


def check_stream(stream: Stream, spec: EnvironmentSpec) -> None:
    """Check a stream's energies and ``value_range`` against the rules of the spec's kind.

    One ``ValueError`` lists every rule of the kind that the energies or
    the rows break. A stream's rows passed its own check where they
    entered, so their values are finite and their rewards non-negative:
    the largest reward and the extreme costs then decide every rule on
    values. A ``value_range`` of None (a :class:`GeneratedStream`'s) is
    the range of no rows, which breaks no rule, so the energies alone are
    checked. The shape is the caller's to check, once.
    """
    z, problems = stream.action_set.z, []
    r_top, c_lo, c_hi = stream.value_range or (-np.inf, np.inf, -np.inf)
    if spec.kind == "facility_location":
        if np.any(z != 0.0):
            problems.append("energies must all be zero")
        if c_lo < 0.0:
            problems.append("costs must be non-negative")
        if r_top > spec.r_max:
            problems.append("rewards exceed r_max")
    elif spec.kind == "knapsack_median":
        if c_lo < 0.0 or c_hi > 0.0:
            problems.append("costs must all be zero")
        if np.any(z <= 0.0) or np.any(z > spec.beta_max):
            problems.append("energies must lie in (0, beta_max]")
    elif spec.kind == "knapsack_01":
        if r_top > 0.0:
            problems.append("rewards must all be zero")
        if c_hi > 0.0:
            problems.append("costs must be non-positive")
        if np.any(z <= 0.0) or np.any(z > spec.beta_max):
            problems.append("energies must lie in (0, beta_max]")
    elif spec.kind == "random_adversarial":
        if r_top > spec.r_max:
            problems.append("rewards exceed r_max")
        if c_hi > spec.c_max or -c_lo > spec.c_max:
            problems.append("costs exceed c_max in magnitude")
        if np.any(z > spec.beta_max):
            problems.append("energies exceed beta_max")
    if problems:
        raise ValueError(f"{spec.kind} constraints violated: " + "; ".join(problems))


def write_rows(fh, rewards, costs, start: int) -> None:
    """Write one line per row of ``rewards``/``costs``, as trials ``start + 1`` on, in one write.

    Floats are written with ``%.17g``, which formats exactly as
    ``format(x, ".17g")`` and round-trips every float64. Callers pass one
    block, so a block's text is held.
    """
    row = "%d" + ",%.17g" * (2 * rewards.shape[1]) + "\n"
    fh.write("".join(row % (t, *r, *c) for t, r, c in zip(
        itertools.count(start + 1), rewards.tolist(), costs.tolist())))


def write_stream(stream: Stream, path) -> None:
    """Save ``stream`` to ``path`` as a stream file: the one writer of the format.

    A stream read from a file is saved as that file, copied byte for byte
    by its ``source`` (:meth:`StreamSource.copy_to`), which raises
    ``OSError`` naming the file if it changed after it was read. Any other
    stream is rendered: the preamble ``n,T,z_1,...,z_n``, then each of
    ``stream.blocks()`` in one write (:func:`write_rows`).
    """
    if stream.source is not None:
        stream.source.copy_to(path)
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        z = stream.action_set.z.tolist()
        fh.write(("%d,%d" + ",%.17g" * len(z) + "\n") % (len(z), stream.T, *z))
        for start, rewards, costs in stream.blocks():
            write_rows(fh, rewards, costs, start)


def _line_error(t: int, message: str) -> StreamFormatError:
    """A ``StreamFormatError`` on trial ``t``'s line, line ``t + 1``: the preamble is line 1."""
    return StreamFormatError(f"line {t + 1}: {message}")


def _floats(fields, t: int, what: str) -> np.ndarray:
    """The fields of trial ``t``'s line (0 for the preamble) cast to a float array, in one cast.

    The cast's ``ValueError`` names the first field that is not a float, as
    ``float()`` does, and becomes a ``StreamFormatError`` for the line.
    """
    try:
        return np.array(fields, dtype=float)
    except ValueError as exc:
        raise _line_error(t, f"bad {what}: {exc}") from None


def _lines(fh, size: int):
    """Yield the lines of the file's first ``size`` bytes as ``splitlines`` would.

    Each ``\\n``-terminated piece is read, decoded and split on its own (a
    line can also end at ``\\r``, ``\\v``, ``\\f`` or ``\\x1c``-``\\x1e``,
    and ``\\r\\n`` stays one line end), so no more than a line of the file
    is held at once. A piece is decoded with ``surrogateescape``: a byte
    above 0x7f becomes one of U+DC80-U+DCFF, which is no line end, and is
    left for the line's own check (:func:`_ascii`) to name.
    """
    while size > 0:
        piece = fh.readline(size)
        if not piece:
            return
        size -= len(piece)
        yield from piece.decode("ascii", "surrogateescape").splitlines()


def _ascii(line: str, t: int) -> str:
    """Trial ``t``'s line (0 for the preamble), refused if it holds a byte above 0x7f.

    The error names the line's first such byte.
    """
    if not line.isascii():
        byte = next(ord(c) - 0xdc00 for c in line if not c.isascii())
        raise _line_error(t, "non-ASCII byte 0x%02x" % byte)
    return line


def _trial_row(line: str, t: int, n: int) -> np.ndarray:
    """The ``2n`` values of trial ``t``'s line, rewards then costs, checked and cast on their own.

    A non-ASCII byte (:func:`_ascii`), a blank line, the field count and
    the trial tag are checked in that order, then the values are cast
    (:func:`_floats`).
    """
    if not _ascii(line, t).strip():
        raise _line_error(t, f"expected trial {t}, found a blank line")
    fields = line.split(",")
    if len(fields) != 1 + 2 * n:
        raise _line_error(t, f"expected {1 + 2 * n} fields (t, {n} rewards, {n} costs), got {len(fields)}")
    try:
        tag = int(fields[0])
    except ValueError:
        raise _line_error(t, f"trial index must be an integer, got {fields[0]!r}") from None
    if tag != t:
        raise _line_error(t, f"expected trial {t}, got {tag}")
    return _floats(fields[1:], t, "reward/cost")


def _trial_block(lines, start: int, count: int, n: int) -> np.ndarray:
    """Trials ``start + 1`` to ``start + count`` as a ``(count, 2n)`` array, rewards then costs.

    The block's lines are taken from ``lines`` (:func:`_lines`) first. When
    each is ASCII, starts with its own ``t,`` and holds no ``\\x1f``, one
    ``np.loadtxt`` call casts the whole block, tags included, in numpy's C
    tokenizer. It refuses lines of unequal widths, so a cast ``2n + 1``
    columns wide means ``2n`` commas on every line: the block is spelled
    as :func:`write_rows` spells it. The tokenizer converts each field
    with ``PyOS_string_to_double``, the routine under ``float()``, and
    accepts a subset of what ``float()`` accepts (not ``1_000``), with the
    same bits; the one exception is ``\\x1f`` around a value, which it
    strips and ``float()`` rejects, hence that rule. Any other block, and
    a block whose cast fails, goes a line at a time, in file order,
    through :func:`_trial_row`, the only source of messages, so the first
    bad line is named; a block cut short by the end of the file is
    reported once its lines have passed.
    """
    block = list(itertools.islice(lines, count))
    if len(block) == count and all(line.isascii() and line.startswith(f"{t},") and "\x1f" not in line
                                   for t, line in enumerate(block, start + 1)):
        try:
            values = np.loadtxt(block, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a field that is not a float, or lines of unequal widths
            pass
        else:
            if values.shape[1] == 1 + 2 * n:
                return values[:, 1:]
    values = np.empty((count, 2 * n))
    for i, line in enumerate(block):
        values[i] = _trial_row(line, start + i + 1, n)
    if len(block) < count:
        t = start + len(block) + 1
        raise _line_error(t, f"expected trial {t}, found end of file")
    return values


def read_stream(path) -> SpooledStream:
    """Parse a stream file a block of trial lines at a time, into a :class:`SpooledStream`.

    Only a regular file is read: anything else (a FIFO, a device, a
    directory) is refused with a ``StreamFormatError`` that names the path,
    before it is opened. The file is opened once; the identity ``os.fstat``
    gives then becomes, with the path, the stream's :class:`StreamSource`.
    At most the ``st_size`` bytes seen then are read, once, in file order,
    from a buffered reader (:func:`_lines`). Each line is checked where it
    is read, its first non-ASCII byte first (:func:`_ascii`): the
    preamble, then the trial lines of each :func:`_block_rows` block, each
    cast before the next is read (:func:`_trial_block`): in one ``np.loadtxt``
    call when every line is spelled as ``write_rows`` spells it, else a
    line at a time, each line's structure checked, then its ``2n`` values
    cast to floats at once; then any trailing lines, which must be blank.
    The values are those of ``float()`` either way, and an error names the
    first bad line, whether the fault is a non-ASCII byte, in its
    structure or in a value; a blank trial line is not named as the end
    of the file. Nothing is sized from the preamble's ``T``: a ``T``
    beyond the file fails at its first missing line.

    Each cast block is checked as a :class:`Stream` checks its matrices
    (:func:`_first_bad_trial`), its range is folded into the stream's
    ``value_range`` (:func:`_value_range`), and its rows are appended to
    the spool, so one block is held at a time. Bad energies, then the
    first non-finite value or negative reward, are raised only once the
    whole file has parsed, so faults come in the order a parse and then a
    check of the whole stream would find them. The spool is deleted on any
    error.
    """
    path = os.fspath(path)
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise StreamFormatError(f"{path}: not a regular file")
    with open(path, "rb", buffering=READ_BUFFER) as fh, ExitStack() as owner:
        identity = _identity(os.fstat(fh.fileno()))
        lines = _lines(fh, identity[2])
        first = next(lines, None)
        if first is None:
            raise StreamFormatError("line 1: empty stream file")
        head = _ascii(first, 0).split(",")
        if len(head) < 2:
            raise StreamFormatError("line 1: preamble needs at least n and T")
        try:
            n, T = int(head[0]), int(head[1])
        except ValueError:
            raise StreamFormatError(f"line 1: n and T must be integers, got {head[:2]}") from None
        if n < 1 or T < 1:
            raise StreamFormatError(f"line 1: n and T must be positive, got n={n}, T={T}")
        if len(head) != 2 + n:
            raise StreamFormatError(f"line 1: expected {2 + n} fields (n, T, {n} energies), got {len(head)}")
        z = _floats(head[2:], 0, "energy")

        spool = owner.enter_context(TemporaryFile())  # closed on any error
        value_range = (-np.inf, np.inf, -np.inf)  # no rows' range, widened by each checked block
        bad = None  # the first bad trial's (t, reason), raised once the file has parsed
        for start, rows in _block_rows(n, T):
            values = _trial_block(lines, start, rows, n)
            rewards, costs = values[:, :n], values[:, n:]
            bad = bad or _first_bad_trial(rewards, costs, n, start)
            if bad is None:
                value_range = _value_range(rewards, costs, value_range)
                spool.write(np.ascontiguousarray(values))
        for t, line in enumerate(lines, T + 1):
            if _ascii(line, t).strip():
                raise _line_error(t, f"trailing data after trial {T}")
        try:
            action_set = ActionSet.from_energies(z)
        except ValueError as exc:
            raise StreamFormatError(f"line 1: {exc}") from None
        if bad is not None:
            raise _line_error(*bad)
        stream = SpooledStream(action_set, T, spool, value_range, StreamSource(path, identity))
        owner.pop_all()  # the stream owns the spool now
    return stream
