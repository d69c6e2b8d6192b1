"""Independent brute-force reference implementations used as test oracles.

Everything here is written directly from the defining formulas with plain
Python loops, deliberately sharing no code with the package beyond the keyed
scalar primitives of `densigraph.rng` (`mix64`, `absorb`, `derive_key`),
which fix what the draws are, and the forward moment map, whose images the
inversion checks invert.  The scalar `word` and `uniform01` below are the
references that the rng's array draws are checked against.  The site draws
compare each site's uniform with lam and mu as floats, so they check
the integer cuts that `SiteField` compares in their place.  The coalescence
probe is the exception: it hashes one row key per trial and walk and decodes
their words through `SiteField._split`, the decoding `SiteField.draws` runs
on the field's own row keys, so its match with the closed form of
`oracles.coalescence_probability` checks that the site field implements the
shared-field coupling.
"""

import math

import numpy as np

from densigraph.inversion import KAPPA_DEGENERATE_TOL, forward_map_values
from densigraph.model import InputError
from densigraph.perfect import DepthExceededError, SiteField, default_max_depth
from densigraph.rng import (MASK64, Stream, absorb, absorb_array, derive_key,
                            mix64, word_array)

# splitmix64 increment, 2^64 / golden ratio: the counter step of a key's words.
PHI = 0x9E3779B97F4A7C15


def word(key, counter):
    """Counter-indexed 64-bit output word of a key, the scalar reference of
    `rng.word_array`; negative counters wrap."""
    return mix64((key + PHI * (counter + 1)) & MASK64)


def uniform01(w):
    """Uniform float in [0, 1) from the top 53 bits of a 64-bit word, the
    scalar reference of `Stream.uniforms` and of the site field's uniforms."""
    return (w >> 11) * 2.0 ** -53


def transition_probability_loops(theta, size_plus, mu, lam, x, i):
    """Firing probability of site i via an explicit double loop."""
    n = len(x)
    plus_sum = 0
    minus_sum = 0
    for j in range(n):
        if j < size_plus:
            plus_sum += theta[i][j] * x[j]
        else:
            minus_sum += theta[i][j] * (1 - x[j])
    return mu + (1 - lam) * (plus_sum / n + minus_sum / n)


def sample_environment_reference(params, seed):
    """theta from one draw of all n*n uniforms of the environment stream,
    compared with p at once, row-major."""
    n = params.n
    u = Stream(derive_key(seed, "environment")).uniforms(n * n)
    return (u < params.p).astype(np.uint8).reshape(n, n)


def field_key(seed):
    """Key of the site field that both samplers read under `seed`."""
    return derive_key(seed, "site-field")


def site_draw_reference(key, params, i, t):
    """(j, xi) at site (i, t) of the field keyed `key`, from the site's one
    uniform u: where u < lam the site regenerates, j = 0 and xi = [u < mu];
    elsewhere j = 1 + floor((u - lam) n / (1 - lam)), at most n, is the
    1-based label of the site it copies, and xi = 0."""
    u = uniform01(word(absorb(key, i), t))
    if u < params.lam:
        return 0, int(u < params.mu)
    return min(params.n, 1 + int((u - params.lam) * (params.n / (1.0 - params.lam)))), 0


def backward_walk_reference(seed, params, z, max_depth=None):
    """Follow the labels j backward from site z = (i, t) until a site
    regenerates: returns the visited sites, z first and the regeneration site
    last, and the value bit xi drawn there.  Raises `DepthExceededError` with
    `perfect_sample`'s message when no site within `max_depth` draws does."""
    if max_depth is None:
        max_depth = default_max_depth(params.lam)
    key = field_key(seed)
    (i, t), path = z, []
    for _ in range(max_depth):
        path.append((i, t))
        j, xi = site_draw_reference(key, params, i, t)
        if j == 0:
            return tuple(path), xi
        i, t = j - 1, t - 1
    raise DepthExceededError(f"no regeneration within {max_depth} steps from "
                             f"{z}; check lam")


def fixing_walk_reference(seed, env, params, z, max_depth=None):
    """Follow the labels j backward from site z = (i, t) until the walk's
    value is fixed: at a site that regenerates, with value xi, or one that
    copies across an absent edge theta[i, j-1] = 0, with value 0.  Returns
    the visited sites, z first and the fixing site last, and z's value, that
    value flipped once for each inhibitory source the walk followed.  Raises
    `DepthExceededError` with `perfect_sample`'s message when no site within
    `max_depth` draws fixes the value."""
    if max_depth is None:
        max_depth = default_max_depth(params.lam)
    key, sp = field_key(seed), env.partition.size_plus
    (i, t), path = z, []
    for _ in range(max_depth):
        path.append((i, t))
        j, xi = site_draw_reference(key, params, i, t)
        if j == 0 or not env.theta[i, j - 1]:
            flips = sum(src >= sp for src, _ in path[1:])
            return tuple(path), (xi if j == 0 else 0) ^ (flips % 2)
        i, t = j - 1, t - 1
    raise DepthExceededError(f"no regeneration within {max_depth} steps from "
                             f"{z}; check lam")


def _step_reference(env, params, key, x, t):
    """The column at time t from the column x at t - 1, one site at a time:
    a site takes xi if it regenerates (j == 0), else the value of site j-1
    through the edge theta[i, j-1], flipped if j-1 is inhibitory."""
    nxt = []
    for i in range(env.n):
        j, xi = site_draw_reference(key, params, i, t)
        if j == 0:
            nxt.append(xi)
        elif env.theta[i, j - 1]:
            nxt.append(x[j - 1] ^ (j - 1 >= env.partition.size_plus))
        else:
            nxt.append(0)
    return nxt


def simulate_reference(env, params, x0, t_len, burnin, seed):
    """The forward chain: ``x0`` is the state at field time -burnin, and each
    later column is one `_step_reference`.  Records times 1..t_len."""
    key = field_key(seed)
    x = [int(v) for v in x0]
    out = np.empty((env.n, t_len), dtype=np.uint8)
    for t in range(1 - burnin, t_len + 1):
        x = _step_reference(env, params, key, x, t)
        if t >= 1:
            out[:, t - 1] = x
    return out


def perfect_sample_reference(env, params, t_len, seed):
    """The exact stationary window: column 1 folds the copy rule forward along
    each site's `backward_walk_reference`; each later column is one
    `_step_reference`."""
    n, sp = env.n, env.partition.size_plus
    key = field_key(seed)
    x = np.empty((n, t_len), dtype=np.uint8)
    for i in range(n):
        path, value = backward_walk_reference(seed, params, (i, 1))
        for (dst, _), (src, _) in zip(path[-2::-1], path[:0:-1]):
            value = value ^ (src >= sp) if env.theta[dst, src] else 0
        x[i, 0] = value
    column = x[:, 0].tolist()
    for t in range(2, t_len + 1):
        column = _step_reference(env, params, key, column, t)
        x[:, t - 1] = column
    return x



def transition_matrix_reference(fire):
    """One-step transition matrix from fire[k, i], site i's firing
    probability at state k: one full-size factor a site, multiplied in site
    order into a matrix of ones."""
    size, n = fire.shape
    bits = (np.arange(size)[:, None] >> np.arange(n)) & 1
    matrix = np.ones((size, size))
    for i in range(n):
        matrix *= np.where(bits[None, :, i] == 1, fire[:, i][:, None],
                           1.0 - fire[:, i][:, None])
    return matrix


def column_indices(matrix):
    """Each column of a binary (n, t) matrix as its configuration index, the
    little-endian k whose bit i is the column's site-i value."""
    weights = np.int64(1) << np.arange(matrix.shape[0], dtype=np.int64)
    return weights @ matrix.astype(np.int64)


def empirical_distribution(indices, n_sites):
    """Normalized histogram of configuration indices over all 2^n_sites."""
    counts = np.bincount(np.asarray(indices), minlength=2**n_sites)
    return counts / counts.sum()


def tv_distance(p, q):
    """Total-variation distance between two probability vectors on one space."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())

# How far, in binomial standard deviations sqrt(P (1 - P) / trials) of the
# closed form P, the probe may stray from it: in 340 runs (20 seeds at each
# of seven settings with n from 1 to 10, lam from 0.2 to 0.5 and lags 0 to 4,
# and 200 seeds at n=10, lam=0.5, lag 1) it strayed at most 3.28.
COALESCENCE_Z = 4.0


def trial_draws(field, rows, s):
    """`SiteField.draws` at time s of the sites whose row keys are ``rows``."""
    return field._split(word_array(rows, s) >> 11)


def coalescence_probability_mc(params, z1, z2, trials, seed, max_depth=None):
    """Fraction of shared-field backward-walk pairs that ever meet.

    Both walks of a trial read one site field (per-trial key), exactly the
    coupling under which coalescence is defined: walks occupying the same
    site at the same time follow identical draws afterwards.  Returns the
    estimate and its binomial standard error.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if z1 == z2:
        raise InputError("coalescence probe needs two distinct sites")
    if not (0 <= z1[0] < params.n and 0 <= z2[0] < params.n):
        raise InputError(f"site indices {z1[0]}, {z2[0]} must lie in 0..{params.n - 1}")
    if max_depth is None:
        max_depth = default_max_depth(params.lam)
    elif max_depth < 1:
        raise InputError(f"max_depth must be >= 1, got {max_depth}")
    # The field's cuts and spread only: each trial hashes its own row keys.
    field = SiteField(0, params)
    keys = absorb_array(derive_key(seed, "coalescence"),
                        np.arange(trials, dtype=np.int64))

    (i1, t1), (i2, t2) = z1, z2
    if t1 < t2:
        (i1, t1), (i2, t2) = (i2, t2), (i1, t1)
    a = np.full(trials, i1, dtype=np.int64)
    alive = np.ones(trials, dtype=bool)
    # Walk the later-born walk down to the common time.
    for s in range(t1, t2, -1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        src, copy, _ = trial_draws(field, absorb_array(keys[idx], a[idx]), s)
        alive[idx[~copy]] = False
        a[idx[copy]] = src[copy]
    b = np.full(trials, i2, dtype=np.int64)
    coalesced = np.zeros(trials, dtype=bool)
    s = t2
    for _ in range(max_depth):
        meet = alive & (a == b)
        coalesced |= meet
        alive &= ~meet
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        # Row 0 steps walk a, row 1 walk b; a trial ends when either regenerates.
        rows = absorb_array(keys[idx], np.stack((a[idx], b[idx])))
        src, copy, _ = trial_draws(field, rows, s)
        alive[idx[~copy.all(axis=0)]] = False
        a[idx], b[idx] = src
        s -= 1
    est = float(coalesced.mean())
    std_err = (est * (1.0 - est) / trials) ** 0.5
    return est, std_err


def trajectory_csv_reference(x):
    """Sparse trajectory text: a dimension line, a column header, then one
    1-based ``t,i,1`` row per firing cell in (t, i) order."""
    n, t_len = x.shape
    lines = [f"# n={n} t_len={t_len}\n", "t,i,x\n"]
    for t in range(t_len):
        for i in range(n):
            if x[i, t]:
                lines.append(f"{t + 1},{i + 1},1\n")
    return "".join(lines)


def trajectory_from_csv_reference(text):
    """The matrix of a sparse trajectory text: the ``# n=.. t_len=..`` line
    sizes it, the column header is skipped, and every other non-blank line
    sets x[i - 1, t - 1] from `int` of each of its fields t, i, x."""
    lines = text.split("\n")
    dims = dict(kv.split("=") for kv in lines[0][2:].split())
    x = np.zeros((int(dims["n"]), int(dims["t_len"])), dtype=np.uint8)
    for line in lines[2:]:
        if line.strip():
            t, i, value = (int(field) for field in line.split(","))
            x[i - 1, t - 1] = value
    return x


def environment_text_reference(env):
    """Environment text: a ``n size_plus p seed`` header, then one row of
    0/1 characters per site, written cell by cell."""
    lines = [f"{env.n} {env.partition.size_plus} {env.p!r} {env.seed}\n"]
    for row in env.theta:
        lines.append("".join("1" if v else "0" for v in row) + "\n")
    return "".join(lines)


def cumulative_counts(x):
    """Z[i][t] = number of signals of site i in observation times 1..t+1."""
    n, t_len = x.shape
    z = np.zeros((n, t_len), dtype=np.int64)
    for i in range(n):
        acc = 0
        for t in range(t_len):
            acc += int(x[i, t])
            z[i, t] = acc
    return z


def mean_reference(x):
    n, t_len = x.shape
    total = 0
    for i in range(n):
        for t in range(t_len):
            total += int(x[i, t])
    return total / (n * t_len)


def spatial_variance_reference(x):
    n, t_len = x.shape
    z = cumulative_counts(x)
    sum_sq = sum(int(z[i, -1]) ** 2 for i in range(n))
    zbar = sum(int(z[i, -1]) for i in range(n)) / n
    inner = sum_sq / n - (t_len / (t_len + 1)) * (zbar + zbar**2)
    return ((t_len + 1) * n / t_len**3) * inner


def block_variance_reference(x, delta):
    """W_delta directly from the definition, with Zbar[0] = 0."""
    n, t_len = x.shape
    z = cumulative_counts(x)
    zbar = [0.0] + [sum(int(z[i, t]) for i in range(n)) / n for t in range(t_len)]
    m_hat = zbar[t_len] / t_len
    total = 0.0
    for k in range(1, t_len // delta + 1):
        inc = zbar[k * delta] - zbar[(k - 1) * delta]
        total += (inc - delta * m_hat) ** 2
    return (n / t_len) * total


def temporal_variance_reference(x, delta):
    return 2 * block_variance_reference(x, 2 * delta) - block_variance_reference(x, delta)


def stationary_means_reference(theta, size_plus, mu, lam):
    """Per-site stationary means by dense elimination on the defining system."""
    n = theta.shape[0]
    a = np.zeros((n, n))
    b = np.full(n, float(mu))
    for i in range(n):
        for j in range(n):
            if theta[i][j]:
                if j < size_plus:
                    a[i, j] = (1 - lam) / n
                else:
                    a[i, j] = -(1 - lam) / n
                    b[i] += (1 - lam) / n
    return np.linalg.solve(np.eye(n) - a, b)


def _signed_system(theta, sign, lam):
    """I - (1 - lam)/n * theta * sign, with theta scaled column by column by
    the population sign vector (+1 excitatory, -1 inhibitory)."""
    n = len(sign)
    return np.eye(n) - (1 - lam) / n * (np.asarray(theta, dtype=float) * sign)


def solve_m_dense(theta, sign, mu, lam):
    """Per-site stationary means by LU on m = mu + (1 - lam)/n (A m + D 1),
    where A is the signed graph and D counts each row's inhibitory edges."""
    n = len(sign)
    inhibitory = np.asarray(theta, dtype=float) @ (sign < 0)
    return np.linalg.solve(_signed_system(theta, sign, lam),
                           mu + (1 - lam) / n * inhibitory)


def solve_c_dense(theta, sign, lam):
    """Resolvent column sums by LU on c = 1 + (1 - lam)/n A^T c."""
    return np.linalg.solve(_signed_system(theta, sign, lam).T, np.ones(len(sign)))


def binomial_sigma(p, count):
    return math.sqrt(p * (1 - p) / count)


def sample_admissible(stream, r_plus):
    """One uniformly random admissible (mu, lam, p) and its moment triple,
    restricted to where the inverse problem is float64-well-posed.

    Two thin layers are rejected: (a) triples whose exact moment image lands
    in the degenerate-kappa guard window, where the collapsed double root
    makes an exact round trip unattainable by construction (reachable only
    for r_plus far from 1/2); (b) the boundary layer (1-lam)*p < 1e-3, where
    phi1 = ((1-lam)p)^2 < 1e-6 falls below what a 1-ulp perturbation of w can
    resolve, so no float64 evaluation of the inverse can reach a 1e-10 round
    trip (the interaction signal itself vanishes at that boundary)."""
    c = 4 * r_plus * (1 - r_plus)
    while True:
        u = stream.uniforms(3)
        lam, p = float(u[0]), float(u[2])
        mu = float(u[1]) * lam
        if not (0 < mu < lam < 1 and 0 < p < 1):
            continue
        if (1 - lam) * p < 1e-3:
            continue
        m, v, w = forward_map_values(mu, lam, p, r_plus)
        kappa = (2.0 * r_plus - 1.0) ** 2 * w / (m * (1.0 - m))
        if abs(kappa - c) < 10 * KAPPA_DEGENERATE_TOL:
            continue
        return (mu, lam, p), (m, v, w)


def inverse_reference(m, v, w, r_plus, branch):
    """(mu, lam, p) of the moment triple (m, v, w) on one root D of
    (c - kappa) D^2 - 2 c D + 1 = 0, with c = 4 r_plus r_minus and
    kappa = (r_plus - r_minus)^2 w / (m (1-m)), and no guard or clip:
    `branch` +1 or -1 picks D = (c + branch sqrt(c^2 - c + kappa)) / (c - kappa).
    At r_plus = 1/2 the quadratic has the double root D = 1, and
    q = (1-lam) p comes from w = m (1-m) (1 + q^2) instead of from
    D = 1 - q (r_plus - r_minus)."""
    r_minus = 1 - r_plus
    if r_plus == 0.5:
        d, q = 1.0, math.sqrt(w / (m * (1 - m)) - 1)
    else:
        c = 4 * r_plus * r_minus
        kappa = (r_plus - r_minus) ** 2 * w / (m * (1 - m))
        d = (c + branch * math.sqrt(c * c - c + kappa)) / (c - kappa)
        q = (1 - d) / (r_plus - r_minus)
    # v = q^2 (1-p)/p [(m - r_minus)^2 + r_plus r_minus] and m D = mu + q r_minus
    inv_p = 1 + v / (q * q * ((m - r_minus) ** 2 + r_plus * r_minus))
    return m * d - q * r_minus, 1 - q * inv_p, 1 / inv_p
