"""The moment map and its explicit inverse.

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

whose two explicit roots are the "plus" and "minus" branches.
`invert_triple` takes the "minus" root, then phi1 = ((1-lam) p)^2 =
((1 - D) / (r_plus - r_minus))^2, 1/p = 1 + v / ([(m - r_minus)^2 +
r_plus r_minus] phi1), lam = 1 - sqrt(phi1) / p and
mu = m (1 - (r_plus - r_minus) sqrt(phi1)) - r_minus sqrt(phi1).  The "minus"
root is provably D when r_plus >= 1/2, when kappa >= 4 r_plus r_minus, or
when the "plus" root exceeds 2 r_minus (D never does); elsewhere either root
may be D and the result carries the `arbitrary_branch` flag.

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
from math import inf, isfinite, isinf, isnan, nan, sqrt

from .estimators import MomentEstimates
from .model import InputError

# Guard thresholds; module-level so experiments can probe them.
KAPPA_DEGENERATE_TOL = 1e-4
SYMMETRIC_R_TOL = 1e-3
# phi1 = ((1-lam) p)^2 at or below this carries no parameter information.  On
# the no-information triple w = m(1-m) rounding alone leaves phi1 near 1e-16
# on the symmetric branch and far smaller on the quadratic one, whatever r_plus.
PHI1_ZERO_TOL = 1e-12


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


_NON_INVERTIBLE = InversionResult(mu=nan, lam=nan, p=nan, branch="minus",
                                  guards=frozenset({"non_invertible"}),
                                  clipped=frozenset())


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


def invert_triple(m: float, v: float, w: float, r_plus: float) -> InversionResult:
    """Inverse of the moment map on the "minus" root, then clipping.

    Raises InputError for r_plus outside (0, 1).  Otherwise total: moment
    triples that are not finite or carry no parameter information come back
    as NaN coordinates with the `non_invertible` flag and no clip flags.
    """
    if not 0.0 < r_plus < 1.0:
        raise InputError(f"r_plus must lie in (0, 1), got {r_plus}")
    if not (0.0 < m < 1.0 and isfinite(v) and isfinite(w)):
        return _NON_INVERTIBLE
    r_minus = 1.0 - r_plus
    diff = 2.0 * r_plus - 1.0
    c = 4.0 * r_plus * r_minus
    kappa = diff**2 * w / (m * (1.0 - m))
    degenerate = abs(kappa - c) < KAPPA_DEGENERATE_TOL
    disc = c * c - c + kappa
    clamped = disc < 0.0
    if clamped:
        disc = 0.0
    # The "minus" root is provably D when r_plus >= 1/2, kappa >= c or the
    # "plus" root exceeds 2 r_minus; elsewhere, or where the roots coincide,
    # either root may be D.
    either = degenerate or (r_plus < 0.5 and kappa < c and
                            not (c + sqrt(disc)) / (c - kappa) > 2.0 * r_minus)

    guards: set[str] = set()
    if abs(diff) < SYMMETRIC_R_TOL:
        phi1 = w / (m * (1.0 - m)) - 1.0
        # The flag records the guard rerouting a non-symmetric partition; at
        # exactly r_plus = 1/2 this closed form is the definition, not a guard.
        if diff != 0.0:
            guards.add("symmetric_r")
    else:
        if degenerate:
            d = 1.0 / (2.0 * c)
            guards.add("degenerate_kappa")
        else:
            d = (c - sqrt(disc)) / (c - kappa)
            if clamped:
                guards.add("clamped_discriminant")
        # `** 2` is libm's pow, whose last bit can differ from the product's;
        # it raises OverflowError where the square leaves the float range.
        if isinf((1.0 - d) * (1.0 - d)):
            return _NON_INVERTIBLE
        phi1 = (1.0 - d) ** 2 / diff**2
    if either and "degenerate_kappa" not in guards:
        guards.add("arbitrary_branch")
    if phi1 < 0.0:
        phi1 = -phi1
        guards.add("abs_phi1")
    if phi1 <= PHI1_ZERO_TOL:
        return _NON_INVERTIBLE

    inv_p = 1.0 + v / (((m - r_minus) ** 2 + r_plus * r_minus) * phi1)
    root = sqrt(phi1)
    raw_mu = m * (1.0 - diff * root) - r_minus * root
    raw_lam = 1.0 - inv_p * root
    raw_p = inf if inv_p == 0.0 else 1.0 / inv_p
    if isnan(raw_mu) or isnan(raw_lam) or isnan(raw_p):
        return _NON_INVERTIBLE

    # Coordinate-wise clipping, in the order lambda, p, mu; mu is clipped to
    # [0, lambda] so the output always satisfies the ordering constraint.
    clipped: set[str] = set()
    lam = min(max(raw_lam, 0.0), 1.0)
    if lam != raw_lam:
        clipped.add("lambda")
    p = min(max(raw_p, 0.0), 1.0)
    if p != raw_p:
        clipped.add("p")
    mu = min(max(raw_mu, 0.0), lam)
    if mu != raw_mu:
        clipped.add("mu")
    return InversionResult(mu=mu, lam=lam, p=p, branch="minus",
                           guards=frozenset(guards), clipped=frozenset(clipped))


def invert(moments: MomentEstimates, r_plus: float) -> InversionResult:
    """Recover (mu, lam, p) from estimated moments."""
    return invert_triple(moments.m_hat, moments.v_hat, moments.w_hat, r_plus)
