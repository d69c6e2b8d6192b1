"""Independent brute-force reference implementations used as test oracles.

Everything here is written directly from the defining formulas with plain
Python loops, deliberately sharing no code with the package beyond the keyed
scalar primitives of `densigraph.rng`, which fix what the draws are.  The
site draws compare each site's uniform with lam and mu as floats, so they
check the integer cuts that `SiteField` compares in their place.
"""

import math

import numpy as np

from densigraph.perfect import DepthExceededError, default_max_depth
from densigraph.rng import Stream, absorb, derive_key, uniform01, word


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
                             f"{z}; increase max_depth or check lam")


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
