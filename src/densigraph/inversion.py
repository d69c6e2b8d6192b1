"""The moment map and its explicit inverses.

For parameters (mu, lam, p) and a known excitatory fraction r_plus, the
trajectory statistics converge to a triple (m, v, w), which
`forward_map_values` evaluates:

    D = 1 - (1-lam) p (r_plus - r_minus)
    m = (mu + (1-lam) p r_minus) / D
    v = (1-lam)^2 p (1-p) [ (m - r_minus)^2 + r_plus r_minus ]
    w = m (1-m) [ 1 + 4 (1-lam)^2 p^2 r_plus r_minus ] / D^2

Inverting: D is a root of the quadratic

    [4 r_plus r_minus - kappa] u^2 - 8 r_plus r_minus u + 1 = 0,
    kappa = (r_plus - r_minus)^2 w / (m (1-m)),

with two explicit candidate roots (branches "plus" / "minus").  From the
selected root one recovers ((1-lam) p)^2 (`phi1`), then 1/p and (mu, lam, p)
(`inverse_map`).  The "minus" branch is provably correct when r_plus >= 1/2
or kappa >= 4 r_plus r_minus; otherwise both branches are candidates.

Numerical guards (thresholds below): near-degenerate kappa collapses the
quadratic to its double root; a nearly symmetric partition switches phi1 to
the closed form w/(m(1-m)) - 1; negative phi1 intermediates are replaced by
their absolute value; a phi1 that vanishes within `PHI1_ZERO_TOL` makes the
triple non-invertible; final coordinates are clipped back into the cube
0 <= mu <= lam <= 1, 0 <= p <= 1.  Every guard and clip is recorded as a flag
on the result.  Nothing checks that parameters lie in the open set
0 < mu < lam < 1, 0 < p < 1 where the map is invertible: the forward map
evaluates any values, and `invert_triple` flags a triple it cannot invert.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, isnan, nan, sqrt

from .estimators import MomentEstimates
from .model import InputError

# Guard thresholds; module-level so experiments can probe them.
KAPPA_DEGENERATE_TOL = 1e-4
SYMMETRIC_R_TOL = 1e-3
# phi1 = ((1-lam) p)^2 at or below this carries no parameter information.  On
# the no-information triple w = m(1-m) rounding alone leaves phi1 near 1e-16
# on the symmetric branch and far smaller on the quadratic one, whatever r_plus.
PHI1_ZERO_TOL = 1e-12

_BRANCH_SIGN = {"plus": 1.0, "minus": -1.0}


class NonInvertibleError(ValueError):
    """The moment triple carries no information about (mu, lam, p)."""


@dataclass(frozen=True)
class InversionResult:
    """Recovered parameters plus branch, guard and clipping metadata."""

    mu: float
    lam: float
    p: float
    branch: str
    guards: frozenset[str]
    clipped: frozenset[str]

    @property
    def ok(self) -> bool:
        return "non_invertible" not in self.guards


def denominator(lam: float, p: float, r_plus: float) -> float:
    """D(lam, p) = 1 - (1-lam) p (r_plus - r_minus); positive for lam and p
    in [0, 1] and r_plus in (0, 1)."""
    return 1.0 - (1.0 - lam) * p * (2.0 * r_plus - 1.0)


def forward_map_values(mu: float, lam: float, p: float,
                       r_plus: float) -> tuple[float, float, float]:
    """Limit triple (m, v, w) of the parameter values; no range check."""
    r_minus = 1.0 - r_plus
    d = denominator(lam, p, r_plus)
    m = (mu + (1.0 - lam) * p * r_minus) / d
    v = (1.0 - lam) ** 2 * p * (1.0 - p) * ((m - r_minus) ** 2 + r_plus * r_minus)
    w = m * (1.0 - m) * (1.0 + 4.0 * (1.0 - lam) ** 2 * p * p * r_plus * r_minus) / d**2
    return m, v, w


def kappa(m: float, w: float, r_plus: float) -> float:
    """Auxiliary ratio (r_plus - r_minus)^2 w / (m (1-m))."""
    if not 0.0 < m < 1.0:
        raise ValueError(f"kappa needs 0 < m < 1, got m={m}")
    return (2.0 * r_plus - 1.0) ** 2 * w / (m * (1.0 - m))


def root_d(a: str, m: float, w: float, r_plus: float) -> tuple[float, frozenset[str]]:
    """Branch-`a` root of the quadratic for the denominator D.

    Within `KAPPA_DEGENERATE_TOL` of the degenerate point
    kappa = 4 r_plus r_minus the quadratic collapses and both branches return
    the double root 1 / (8 r_plus r_minus).  A negative discriminant (possible
    on noisy input) is clamped to zero.  Total by design; flags report which
    guard fired.
    """
    sign = _BRANCH_SIGN[a]
    c = 4.0 * r_plus * (1.0 - r_plus)
    k = kappa(m, w, r_plus)
    if abs(k - c) < KAPPA_DEGENERATE_TOL:
        return 1.0 / (2.0 * c), frozenset({"degenerate_kappa"})
    disc = c * c - c + k
    flags = frozenset()
    if disc < 0.0:
        disc = 0.0
        flags = frozenset({"clamped_discriminant"})
    return (c + sign * sqrt(disc)) / (c - k), flags


def phi1(a: str, m: float, w: float, r_plus: float) -> tuple[float, frozenset[str]]:
    """Candidate for ((1-lam) p)^2; nonnegative, with guard flags."""
    diff = 2.0 * r_plus - 1.0
    if abs(diff) < SYMMETRIC_R_TOL:
        if not 0.0 < m < 1.0:
            raise ValueError(f"phi1 needs 0 < m < 1, got m={m}")
        val = w / (m * (1.0 - m)) - 1.0
        # The flag records the guard rerouting a non-symmetric partition; at
        # exactly r_plus = 1/2 this closed form is the definition, not a guard.
        flags = frozenset({"symmetric_r"}) if diff != 0.0 else frozenset()
    else:
        d, flags = root_d(a, m, w, r_plus)
        val = (1.0 - d) ** 2 / diff**2
    if val < 0.0:
        val = -val
        flags = flags | {"abs_phi1"}
    return val, flags


def inverse_map(a: str, m: float, v: float, w: float,
                r_plus: float) -> InversionResult:
    """Branch-`a` inverse of the moment map, unclipped coordinates."""
    p1, flags = phi1(a, m, w, r_plus)
    if p1 <= PHI1_ZERO_TOL:
        raise NonInvertibleError("phi1 vanishes: moment triple is not invertible")
    r_minus = 1.0 - r_plus
    inv_p = 1.0 + v / (((m - r_minus) ** 2 + r_plus * r_minus) * p1)
    root = sqrt(p1)
    mu = m * (1.0 - (2.0 * r_plus - 1.0) * root) - r_minus * root
    lam = 1.0 - inv_p * root
    p = inf if inv_p == 0.0 else 1.0 / inv_p
    return InversionResult(mu=mu, lam=lam, p=p, branch=a,
                           guards=flags, clipped=frozenset())


def select_branch(m: float, v: float, w: float, r_plus: float) -> str:
    """Pick the inverse branch: "minus" when provably correct, else "either".

    "either" covers both the degenerate-kappa case (the branches coincide)
    and the genuinely ambiguous region, where callers resolve it
    deterministically to "minus".
    """
    c = 4.0 * r_plus * (1.0 - r_plus)
    k = kappa(m, w, r_plus)
    if abs(k - c) < KAPPA_DEGENERATE_TOL:
        return "either"
    if r_plus >= 0.5 or k >= c:
        return "minus"
    d_plus, _ = root_d("plus", m, w, r_plus)
    if d_plus > 2.0 * (1.0 - r_plus):
        return "minus"
    return "either"


def invert_triple(m: float, v: float, w: float, r_plus: float) -> InversionResult:
    """Total inversion pipeline: branch choice, inverse map, then clipping.

    Raises ValueError for r_plus outside (0, 1).  Otherwise total: moment
    triples that are not finite or carry no parameter information come back
    as NaN coordinates with the `non_invertible` flag and no clip flags.
    """
    if not 0.0 < r_plus < 1.0:
        raise InputError(f"r_plus must lie in (0, 1), got {r_plus}")
    guards: set[str] = set()
    try:
        if not (0.0 < m < 1.0 and isfinite(v) and isfinite(w)):
            raise NonInvertibleError(f"moment triple ({m}, {v}, {w}) is not "
                                     "finite with m in (0, 1)")
        branch = select_branch(m, v, w, r_plus)
        a = "minus" if branch == "either" else branch
        raw = inverse_map(a, m, v, w, r_plus)
        if isnan(raw.mu) or isnan(raw.lam) or isnan(raw.p):
            raise NonInvertibleError("inverse map produced NaN")
        guards |= raw.guards
        if branch == "either" and "degenerate_kappa" not in raw.guards:
            guards.add("arbitrary_branch")
    except (NonInvertibleError, OverflowError):
        return InversionResult(mu=nan, lam=nan, p=nan, branch="minus",
                               guards=frozenset({"non_invertible"}),
                               clipped=frozenset())

    # Coordinate-wise clipping, in the order lambda, p, mu; mu is clipped to
    # [0, lambda] so the output always satisfies the ordering constraint.
    clipped: set[str] = set()
    lam = min(max(raw.lam, 0.0), 1.0)
    if lam != raw.lam:
        clipped.add("lambda")
    p = min(max(raw.p, 0.0), 1.0)
    if p != raw.p:
        clipped.add("p")
    mu = min(max(raw.mu, 0.0), lam)
    if mu != raw.mu:
        clipped.add("mu")
    return InversionResult(mu=mu, lam=lam, p=p, branch=a,
                           guards=frozenset(guards), clipped=frozenset(clipped))


def invert(moments: MomentEstimates, r_plus: float) -> InversionResult:
    """Recover (mu, lam, p) from estimated moments."""
    return invert_triple(moments.m_hat, moments.v_hat, moments.w_hat, r_plus)
