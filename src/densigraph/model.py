"""Core model objects: parameters, population partition, random environment,
trajectories, and the transition probabilities.

The system is a collection of ``n`` binary chains evolving in discrete time.
Chain ``i`` fires at time ``t`` with probability

    mu + (1 - lam) * ( sum_{j excitatory} theta[i, j] * x[j]
                     + sum_{j inhibitory} theta[i, j] * (1 - x[j]) ) / n

given the previous configuration ``x``, where ``theta`` is a fixed directed
graph whose edges are i.i.d. Bernoulli(p).  Sites are 0-based throughout the
code; the excitatory population is always the prefix ``0 .. size_plus - 1``.

Trajectories are stored time-major, one row of n sites per time, from the
sampler that builds them to the file that holds them (whose rows are in time
order too); `Trajectory.x` is the ``(n, T)`` transposed view of that storage,
so no layer makes a transposing copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .rng import DRAW_BUDGET, Stream, derive_key

# Trajectory cells scanned per written block (so at most as many rows), and
# about 8 characters a row read per block: bounds what a block holds.
_ROWS_PER_BLOCK = 1 << 14


class InputError(ValueError):
    """An argument or input file the caller can fix; the CLI reports it on
    one stderr line instead of a traceback."""


@dataclass(frozen=True)
class ModelParams:
    """Parameter vector (mu, lam, p, r_plus) plus system size n.

    Constructible parameters satisfy ``0 <= mu <= lam <= 1``, ``lam > 0``,
    ``0 <= p <= 1`` and ``0 < r_plus < 1``, and all of them simulate.  The
    moment inversion recovers parameters only on the open set
    ``0 < mu < lam < 1``, ``0 < p < 1``, which nothing checks: a triple it
    cannot invert comes back flagged, not as an error.
    """

    mu: float
    lam: float
    p: float
    r_plus: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.r_plus < 1.0:
            raise InputError(f"r_plus must lie in (0, 1), got {self.r_plus}")
        if not 0.0 < self.lam <= 1.0:
            raise InputError(f"lam must lie in (0, 1], got {self.lam}")
        if not 0.0 <= self.mu <= self.lam:
            raise InputError(f"mu must lie in [0, lam], got mu={self.mu}")
        if not 0.0 <= self.p <= 1.0:
            raise InputError(f"p must lie in [0, 1], got {self.p}")

    @property
    def beta(self) -> float:
        """Spontaneous firing probability mu / lam, in [0, 1]."""
        return self.mu / self.lam

    @property
    def r_minus(self) -> float:
        return 1.0 - self.r_plus


@dataclass(frozen=True)
class Partition:
    """Split of the n chains into an excitatory prefix and inhibitory suffix.

    Sites 0 .. size_plus-1 are excitatory, the rest inhibitory.  The realized
    fractions deviate from the target by at most 1/n (ceiling rule).
    """

    n: int
    size_plus: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.size_plus <= self.n:
            raise ValueError(f"size_plus out of range: {self.size_plus}")


def build_partition(n: int, r_plus: float) -> Partition:
    """Canonical prefix partition with ceil(r_plus * n) excitatory chains."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < r_plus < 1.0:
        raise ValueError(f"r_plus must lie in (0, 1), got {r_plus}")
    return Partition(n=n, size_plus=ceil(r_plus * n))


@dataclass(frozen=True)
class Environment:
    """Realized directed interaction graph together with its partition.

    ``theta[i, j] = 1`` means the directed edge j -> i is present, i.e. chain
    j influences chain i.  ``p`` and ``seed`` record how the matrix was
    sampled (for serialization); they are NaN / 0 for hand-built fixtures.
    ``theta`` is read-only uint8 in C order.  A caller's array is checked and
    copied, so it stays the caller's own; `sample_environment` and
    `load_environment` hand over their fresh buffers through `_adopt`.
    """

    theta: np.ndarray
    partition: Partition
    p: float = float("nan")
    seed: int = 0

    def __post_init__(self):
        theta = np.asarray(self.theta)
        n = self.partition.n
        if theta.shape != (n, n):
            raise ValueError(f"theta must be {n}x{n}, got {theta.shape}")
        _check_binary(theta, "theta")
        theta = theta.astype(np.uint8, order="C")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return self.partition.n


def sample_environment(params: ModelParams, seed: int) -> Environment:
    """Draw theta with i.i.d. Bernoulli(p) entries, row-major draw order.

    Identical (params, seed) pairs produce bit-identical matrices.  The
    stream is drawn in blocks of `DRAW_BUDGET` uniforms, each compared
    straight into theta, so no n^2-sized temporary is made.
    """
    n = params.n
    stream = Stream(derive_key(seed, "environment"))
    theta = np.empty(n * n, dtype=np.uint8)
    for lo in range(0, n * n, DRAW_BUDGET):
        block = theta[lo:lo + DRAW_BUDGET]
        np.less(stream.uniforms(block.size), params.p, out=block)
    return _adopt(Environment, theta=theta.reshape(n, n),
                  partition=build_partition(n, params.r_plus), p=params.p,
                  seed=seed)


def _check_n(env: Environment, params: ModelParams) -> None:
    """The one n rule of everything that reads (env, params): an `InputError`
    naming both sizes unless ``params.n`` is the environment's n."""
    if params.n != env.n:
        raise InputError(f"params.n={params.n} does not match the environment's "
                         f"n={env.n}")


def interaction_kernel(env: Environment, params: ModelParams):
    """Affine form of the transition probabilities: p(x) = base + coef * (B @ x).

    ``B`` is theta with inhibitory columns negated; ``base`` absorbs mu and
    the constant inhibitory contribution.  Entries of ``B @ x`` are exact
    small integers for binary x, so the result does not depend on summation
    order, nor on whether x is one state or the rows of a matrix of states.
    `transition_probabilities`, `oracles.transition_matrix` (every state at
    once) and the fixed-point solves in `limits` all build the signed kernel
    here, and `_check_n` first.
    """
    _check_n(env, params)
    sp = env.partition.size_plus
    theta = env.theta.astype(np.float64)
    coef = (1.0 - params.lam) / env.n
    base = params.mu + coef * theta[:, sp:].sum(axis=1)
    signed = theta
    signed[:, sp:] *= -1.0
    return base, signed, coef


def transition_probabilities(env: Environment, params: ModelParams,
                             x) -> np.ndarray:
    """Vector of firing probabilities for all sites given configuration x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (env.n,):
        raise InputError(f"x must have length {env.n}, got shape {x.shape}")
    base, signed, coef = interaction_kernel(env, params)
    return base + coef * (signed @ x)


@dataclass(frozen=True)
class Trajectory:
    """Binary observation matrix, sites along rows and time along columns.

    Column ``t`` (0-based) holds the configuration at observation time t+1.
    ``x`` is a read-only ``(n, T)`` view of time-major storage: ``x.T`` is a
    C-contiguous ``(T, n)`` array, one row per time, as the samplers build it
    and the file layer reads and writes it.  A caller's array is checked and
    copied into that layout; the samplers and `load_trajectory` hand over
    their fresh buffers through `_adopt`.
    """

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 2:
            raise ValueError(f"trajectory must be 2-D, got shape {x.shape}")
        _check_binary(x, "trajectory")
        x = x.astype(np.uint8, order="F")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def t_len(self) -> int:
        return self.x.shape[1]

    def prefix(self, t_len: int) -> "Trajectory":
        """View of the first t_len observation times: the first t_len rows of
        the checked time-major storage, neither copied nor scanned again."""
        if not 1 <= t_len <= self.t_len:
            raise ValueError(f"prefix length {t_len} out of range")
        return _adopt(Trajectory, x=self.x[:, :t_len])


def _adopt(cls, **fields):
    """A frozen `cls` instance over the package's own fresh 0/1 uint8 buffers,
    already in the class's layout, with no check and no copy.  Each array
    field is marked read-only; the producer keeps no other reference it
    writes through, so the instance's arrays stay as handed over."""
    adopted = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(adopted, name, value)
    return adopted


def _check_binary(a: np.ndarray, what: str) -> None:
    """Raise InputError unless every entry of `a` is 0 or 1, before a cast to
    uint8 could wrap 256 onto 0 or truncate 0.5 onto 0: uint8 input takes
    one max pass, bool input none."""
    if a.dtype == np.bool_:
        return
    if a.dtype == np.uint8:
        bad = a.max(initial=0) > 1
    else:
        bad = not np.all((a == 0) | (a == 1))
    if bad:
        raise InputError(f"{what} entries must be 0 or 1")


def save_environment(env: Environment, path) -> None:
    """Write an environment in the text format `n size_plus p seed` + 0/1 rows."""
    text = np.full((env.n, env.n + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = env.theta + ord("0")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{env.n} {env.partition.size_plus} {env.p!r} {env.seed}\n")
        fh.write(text.tobytes().decode("ascii"))


def save_trajectory(traj: Trajectory, path_or_file) -> None:
    """Write a trajectory as sparse CSV: only x = 1 cells, columns t,i,x.

    Times and sites are 1-based in the file.  A leading comment line records
    the matrix dimensions, which the sparse rows alone cannot recover.  The
    cells are found through a bool view of the time-major storage, whose
    order is the file's row order, about `_ROWS_PER_BLOCK` cells at a time.
    Each row gathers its ``t,`` and ``i,1\n`` bytes as whole 8-byte words
    from one table of right-aligned decimals, padded in front with 0 bytes,
    into one buffer that every block reuses; one pass deletes the padding.
    """
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    fh = open(path_or_file, "w", encoding="ascii") if own else path_or_file
    try:
        n, t_len = traj.n, traj.t_len
        fh.write(f"# n={n} t_len={t_len}\n")
        fh.write("t,i,x\n")
        cells = traj.x.T.view(np.bool_)  # (t_len, n), C-contiguous
        words = -(-max(len(str(t_len)) + 1, len(str(n)) + 3) // 8)  # a field's
        # Rows 0 .. t_len - 1 hold "t," and rows t_len .. t_len + n - 1 hold
        # "i,1\n", so one take gathers both fields of every file row.
        table = np.zeros((t_len + n, 8 * words), dtype=np.uint8)
        _decimals(table[:t_len], b",")
        _decimals(table[t_len:], b",1\n")
        table = table.view(np.uint64)
        span = max(1, min(t_len, _ROWS_PER_BLOCK // max(n, 1)))  # times a block
        index = np.empty((span * n, 2), dtype=np.intp)
        block = np.empty((span * n, 2, words), dtype=np.uint64)
        for lo in range(0, t_len, span):
            found = np.flatnonzero(cells[lo:lo + span])
            rows = index[:found.size]
            np.divmod(found, n, out=(rows[:, 0], rows[:, 1]))
            rows[:, 0] += lo
            rows[:, 1] += t_len
            # mode="clip" lets take write straight into the block (the
            # indices are in range anyway).
            text = np.take(table, rows, axis=0, out=block[:found.size], mode="clip")
            fh.write(text.tobytes().translate(None, b"\0").decode("ascii"))
    finally:
        if own:
            fh.close()


def _decimals(table: np.ndarray, tail: bytes) -> None:
    """Fill row k - 1 of the zeroed uint8 `table` with the ASCII decimal of
    k = 1..len(table) then `tail`, right-aligned: 0 bytes stay in front."""
    k = np.arange(1, len(table) + 1)
    end = table.shape[1] - len(tail)
    for place in range(len(str(len(table)))):
        power = 10 ** place
        table[k >= power, end - 1 - place] = k[k >= power] // power % 10 + ord("0")
    table[:, end:] = np.frombuffer(tail, dtype=np.uint8)


def load_trajectory(path) -> Trajectory:
    """Read a trajectory written by :func:`save_trajectory`, skipping blank
    lines; an `InputError` names the line of any row that is not three
    integers t in 1..t_len, i in 1..n and x in {0, 1}, or that repeats the
    cell (t, i) of an earlier row.

    The rows are read in blocks of about ``8 * _ROWS_PER_BLOCK`` characters,
    each ending at a line end.  A block whose every row is exactly
    ``digits,digits,digit`` (fields of at most 18 digits) is parsed with
    numpy byte operations; any other block (blank lines, signs, spaces,
    other fields) goes through `int` on each field, and a row with an
    underscore, which `int` reads as a digit group, is rejected.  Both feed
    one range and repeat check, which sets the cells of one time-major buffer
    through the flat index ``t * n + i``; the trajectory is its transposed
    view.  A header that repeats a key, whose n or t_len is not plain
    digits, or whose n x t_len matrix cannot be allocated, is an `InputError`.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.startswith("# n="):
            raise InputError(f"missing dimension header in {path}")
        try:
            pairs = [kv.split("=") for kv in header[2:].split()]
            parts = dict(pairs)
            if len(parts) < len(pairs) or not (parts["n"] + parts["t_len"]).isdigit():
                raise ValueError  # a repeated key, or a sign or `_` that `int` reads
            n, t_len = int(parts["n"]), int(parts["t_len"])
        except (KeyError, ValueError):
            n = t_len = 0
        if min(n, t_len) < 1:
            raise InputError(f"bad dimension header in {path}")
        if fh.readline().strip() != "t,i,x":
            raise InputError(f"missing column header in {path}")
        try:
            x = np.zeros((t_len, n), dtype=np.uint8)  # time-major
        except (MemoryError, ValueError):
            raise InputError(f"{path}: cannot allocate the n={n} x t_len={t_len} "
                             f"matrix its header names") from None
        line_no = 3
        while text := fh.read(8 * _ROWS_PER_BLOCK):
            if text[-1] != "\n":
                text += fh.readline()
            line_no += _set_rows(x, text, line_no, path)
    x &= 1
    return _adopt(Trajectory, x=x.T)


def _set_rows(x: np.ndarray, text: str, first: int, path) -> int:
    """Set the cells of the time-major x named by a block of t,i,x lines
    starting at file line `first` to 2 | x (2 marks a cell read) and return
    the number of lines, or raise an `InputError` naming the first bad or
    repeated row."""
    t_len, n = x.shape
    text = text if text[-1] == "\n" else text + "\n"
    fields = _canonical_fields(text)
    kept = None  # row r is line r, unless blank lines are skipped below
    if fields is None:
        lines = text.split("\n")
        kept = [k for k, line in enumerate(lines) if line.strip()]
        if not kept:
            return len(lines) - 1
        fields = np.array([_int_row(lines[k]) for k in kept], dtype=object).T
    t, i, value = fields
    ok = (1 <= t) & (t <= t_len) & (1 <= i) & (i <= n) & ((value == 0) | (value == 1))
    stop = ok.size if ok.all() else int(ok.argmin())  # rows before the first bad one
    cell = (t[:stop].astype(np.intp) - 1) * n + i[:stop].astype(np.intp) - 1
    flat = x.reshape(-1)
    repeat = flat[cell] > 1
    if not (cell[1:] > cell[:-1]).all():  # ascending cells, as saved, cannot repeat
        order = np.argsort(cell, kind="stable")
        repeat[order[1:][cell[order[1:]] == cell[order[:-1]]]] = True
    if repeat.any() or stop < ok.size:
        row = int(repeat.argmax()) if repeat.any() else stop
        k = row if kept is None else kept[row]
        line = text.split("\n")[k].strip()
        need = ("repeats the cell (t, i) of an earlier row" if row < stop else
                f"needs t in 1..{t_len}, i in 1..{n} and x in {{0, 1}}")
        raise InputError(f"{path}, line {first + k}: {line!r} {need}")
    flat[cell] = 2 | value
    return len(t) if kept is None else len(lines) - 1


def _canonical_fields(text: str):
    """The fields t, i (int64) and x (uint8) of a block of lines that each
    read exactly ``digits,digits,digit`` then a line end, with at most 18
    digits a field, or None when any line differs."""
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digit = data - ord("0")  # wraps every byte but the ten digits above 9
    sep = np.flatnonzero(digit > 9)
    if sep.size % 3:
        return None
    sep = sep.reshape(-1, 3)  # per line: the two commas and the line end
    start = np.concatenate(([0], sep[:-1, 2] + 1))
    t_width, i_width = sep[:, 0] - start, sep[:, 1] - sep[:, 0] - 1
    # Every third non-digit is a line end, and the block holds two commas a
    # line, so the other non-digits are all commas.
    if not ((data[sep[:, 2]] == ord("\n")).all()
            and np.count_nonzero(data == ord(",")) == 2 * len(sep)
            and (sep[:, 2] - sep[:, 1] == 2).all()
            and 1 <= min(t_width.min(), i_width.min())
            and max(t_width.max(), i_width.max()) <= 18):
        return None
    return (_decimal_values(digit, start, t_width),
            _decimal_values(digit, sep[:, 0] + 1, i_width),
            digit[sep[:, 2] - 1])


def _decimal_values(digit: np.ndarray, start: np.ndarray,
                    width: np.ndarray) -> np.ndarray:
    """int64 values of the decimal fields of `width` digits from `start`, by
    Horner steps, each masked to the fields still that long."""
    value = np.zeros(start.size, dtype=np.int64)
    at, shortest = start.copy(), width.min()
    for place in range(int(width.max())):
        step = digit.take(at, mode="clip")  # past the block end only if masked
        at += 1
        if place < shortest:
            value *= 10
            value += step
        else:
            np.copyto(value, value * 10 + step, where=place < width)
    return value


def _int_row(row: str) -> tuple[int, int, int]:
    """A row's three integer fields, or (0, 0, 0), which no range admits."""
    if "_" in row:  # `int` would read "1_0" as 10
        return 0, 0, 0
    try:
        t, i, value = map(int, row.split(","))
    except ValueError:
        return 0, 0, 0
    return t, i, value


def load_environment(path) -> Environment:
    """Read an environment written by :func:`save_environment`: a header, then
    n rows of n 0/1 characters, each with any surrounding whitespace; only
    blank lines may follow the last row."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            n, size_plus, p, seed = fh.readline().split()  # else a ValueError
            if not (n + size_plus).isdigit() or "_" in p + seed:
                raise ValueError  # `int` would read "+2" as 2 and "1_0" as 10
            n, size_plus, p, seed = int(n), int(size_plus), float(p), int(seed)
            partition = Partition(n, size_plus)
        except ValueError:
            raise InputError(f"bad environment header in {path}") from None
        lines = fh.read().split("\n", n)  # the n rows, then the rest of the file
    rows = [line.strip() for line in lines[:n]]
    sized = next((i for i, row in enumerate(rows) if len(row) != n), len(rows))
    theta = np.frombuffer("".join(rows[:sized]).encode("ascii"),
                          dtype=np.uint8).reshape(sized, n) - ord("0")
    bad = np.flatnonzero((theta > 1).any(axis=1))  # other characters wrap above 1
    if bad.size or sized < n:
        raise InputError(f"bad environment row {bad[0] if bad.size else sized} in {path}")
    for k, line in enumerate(lines[n].split("\n") if len(lines) > n else []):
        if line.strip():
            raise InputError(f"{path}, line {n + 2 + k}: {line.strip()!r} follows "
                             f"environment row {n - 1}")
    return _adopt(Environment, theta=theta, partition=partition, p=p, seed=seed)
