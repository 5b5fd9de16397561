"""Semi-infinite double quadrature tuned to exponentially damped integrands.

The integrands handled here live on u in [0, inf) times t in [0, 1], decay
like exp(-u * decay_scale) in u, and are smooth in t except for a possible
spike at t = 0 whose width shrinks like 1/u. The engine integrates the
u axis adaptively with a Gauss-Kronrod 7-15 pair on panels of [0, u_max],
u_max = 60 / decay_scale (`_TAIL_BUDGET`). At every u node it needs only
the t integral of the integrand and of its magnitude, so the integral runs
on the u axis alone.

The integrand supplies those rows when called with t = `T_INTEGRAL`. Every
integrand of `integrand.integrand_function` does: the Drude ones in closed
form, the others on a fixed rule exact to roundoff. A plain callable of
(u, t) answers that call with an empty grid, and the engine lifts it once,
at its entry, onto one fixed t rule (`_lifted`): 32-point Gauss-Legendre on
each panel of a geometrically graded t mesh, so the t spike stays resolved
at every scale without 2-D adaptivity. Either way ``evaluations`` counts u
rows, and the t part of the error estimate is a fixed roundoff allowance,
16 ulps of the t integral of the magnitude. The lift's rule is not adapted
to the integrand, so the engine checks it once (`_lift_gap`): at the seed
rows it takes the t integrals again on the same rule with every panel
halved, and their largest gap relative to the magnitude, if above the
allowance, takes its place.

Refinement goes in rounds, one integrand call each (split only at a fixed
node cap). In every round each (field, position) pair above its tolerance
names the fewest of its largest-error panels whose removal would bring its
Kronrod error, with its tail bound and t term, within the tolerance, and
the round halves all of them at once, in the manner of scipy's
``quad_vec``. A round takes at most half of the _MAX_SUBDIVISIONS (2,000)
splits left, the largest-error panels first, so a budget that runs out
still ends on the worst panels halved again.

What does not depend on the integrand is built once and kept read-only:
the lift's graded t rule and its check's, and the seed mesh (edges, Kronrod
nodes with the tail node, half widths) per truncation point and seed depth.
The mesh sits in a small bounded cache, so a run of integrals with one
decay scale builds it once.

In batched form one call integrates constant(u, t) + envelope_j(u) *
position_k(u, t) for every position j and field k. The brackets are
t-integrated once per u node; on each panel one matrix product takes the
position brackets' t integrals, weighted by the Kronrod and Gauss rules, to
the envelope of every position, and the constant's panel sums, the same at
every position, are added. Every (position, field) pair keeps its own
Kronrod error, tail bound, t term and tolerance test on the shared panels.
A family ``(None, f_1, ..., f_K)`` under `unit_envelope` is the same form
with one position: K integrands sharing one decay scale go through one
u mesh, which is how a midgap scan integrates a group of wp*a values per
call (`analysis`).

`integrate_fixed_grid` is a deliberately independent brute-force evaluator
(log-u trapezoid against a log-t Simpson rule) used as an oracle for the
adaptive engine. It evaluates every integrand on its (u, t) grid, where
the package integrands take one bracket arithmetic for every model, so it
also checks their exact t integrals: the Drude maps and kernels and the
fixed t rules of the other models, none of which that arithmetic uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DivergesAtBoundary, DomainError, InvalidDecayScale, NonConvergence, checked_float, is_finite_real, is_integer, real_array

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "integrate_semi_infinite",
    "integrate_fixed_grid",
    "unit_envelope",
    "T_INTEGRAL",
    "T_INTEGRAL_DTYPE",
]

# Passed as t, T_INTEGRAL asks an integrand for its exact integral over t in
# [0, 1] at each u row. It is a t row with no nodes, so an integrand that
# cannot integrate over t itself returns an empty grid, and the engine lifts
# it onto its fixed t rule. One that can returns, for each bracket, an array
# of u's shape and dtype T_INTEGRAL_DTYPE: the integral, and a bound on the
# integral of the bracket's magnitude.
T_INTEGRAL = np.empty((1, 0))
T_INTEGRAL.setflags(write=False)
T_INTEGRAL_DTYPE = np.dtype([("integral", float), ("magnitude", float)])

# Gauss-Kronrod 7-15 pair, positive abscissae from x_max down to 0.
_K15_ABSCISSAE = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_K15_WEIGHTS = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_G7_WEIGHTS = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

_XK15 = np.concatenate((-_K15_ABSCISSAE[:-1], _K15_ABSCISSAE[::-1]))
# Rows for a panel's Kronrod sum of the t integrals, its Kronrod - Gauss
# difference and its Kronrod sum of their magnitudes: the Kronrod-15 weights,
# the same less the Gauss-7 weights on every second node, the Kronrod-15 weights.
_KGK_WEIGHTS = np.tile(np.concatenate((_K15_WEIGHTS[:-1], _K15_WEIGHTS[::-1])), (3, 1))
_KGK_WEIGHTS[1, 1::2] -= np.concatenate((_G7_WEIGHTS[:-1], _G7_WEIGHTS[::-1]))

# Number of geometric seed splits of [0, u_max]; pre-resolves the decades
# below the truncation point, down to u_max / 2^8, before adaptive refinement
# starts. 16 splits left the midgap values within 1e-15 relative of these on
# nearly twice the seed nodes; 4 saved nodes but brought back panel splits,
# one integrand call each, and ran slower (2-vCPU x86 host, numpy 2.4). The
# seed also halves [u_max / 4, u_max / 2], 15 decay lengths: whole, that
# panel failed its Kronrod-Gauss test in 3 of the 5 engine calls of a
# 40-value midgap scan and the critical root, a refinement round each.
_SEED_SPLITS = 8

# The lift's fixed t rule (`_lifted`): _T_RULE_ORDER-point Gauss-Legendre on
# each panel of a graded mesh, [8^-k-1, 8^-k] for k < 16 above the bottom
# panel [0, 8^-16], 544 nodes in all. Against mpmath it stays within 4.5
# ulps of the magnitude on the t integral s atan(1/s) of e^-u / (1 + (t/s)^2),
# s = w/u or w u for w from 1 to 1e-3 and u from 1e-4 to 60, and within 5.2
# on e^-u (cos(a t) - sin(a)/a) for a = 9, 5 pi and 40 (tests/test_quadrature.py,
# TestLiftedRule); 16-point panels are off by up to 5.5e5 ulps on the first
# and 5e9 on the second.
_T_RULE_ORDER = 32
_T_RULE_HI = 8.0 ** -np.arange(17.0)
_T_RULE_LO = np.append(_T_RULE_HI[1:], 0.0)


def _gauss_panels(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes (1, m) and weights (m,) of _T_RULE_ORDER-point Gauss-Legendre on each panel [lo, hi], read-only."""
    x, w = np.polynomial.legendre.leggauss(_T_RULE_ORDER)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    rule = ((mid[:, None] + half[:, None] * x).reshape(1, -1), (half[:, None] * w).ravel())
    for array in rule:
        array.setflags(write=False)
    return rule


_T_RULE = _gauss_panels(_T_RULE_LO, _T_RULE_HI)
# The lift's check (`_lift_gap`): the same rule on the halved panels, 1,088
# nodes, which a plain callable meets at the seed rows wherever the lift
# resolves its t dependence.
_T_RULE_MID = 0.5 * (_T_RULE_LO + _T_RULE_HI)
_T_CHECK_RULE = _gauss_panels(np.append(_T_RULE_LO, _T_RULE_MID), np.append(_T_RULE_MID, _T_RULE_HI))

# Relative roundoff allowed for the t integrals, times the t integral of the
# magnitude: the t part of every error estimate. Against mpmath on the same
# float64 coefficients the Drude rows stay within 6 ulps of the magnitude
# (tests/test_integrand.py, TestExactTIntegrals; 4 ulps at most on the rows
# tested), so 16 ulps leaves a margin of 2.7. The constant-eps,
# perfect-conductor and vacuum rows stay within 12 ulps of mpmath's
# (TestUndispersedTIntegrals; 8 at most, at eps = 1e8), and the lift's rows
# within 5.2 on the integrands above.
_T_INTEGRAL_ROUNDOFF = 16 * np.finfo(float).eps

# Largest (u, t) grid of one integrand call. Panel evaluation calls f on
# whole panels whose u rows stay within it, and a fixed t rule (`_rule_rows`)
# on whole u rows whose nodes stay within it; the Kronrod sums form no grid
# of their own. It bounds the temporaries of a seed mesh evaluated at once,
# which peaked at about 43 B per node in the cavity bracket form
# (tracemalloc); the CLI's scan and profiles also ran fastest at this cap
# among 8,192 to 65,536 (2-vCPU x86 host, numpy 2.4).
_NODE_CAP = 16_384
# Largest (u, t) grid of one integrand call in `integrate_fixed_grid`: 63 of
# its 2,049-node log-t rows. A call's temporaries then stay within 1 MiB each,
# and a Drude cavity's oracle ran 2x faster than at 2**21 nodes, peaking at
# 11 MiB rather than 128 (tracemalloc; 2-vCPU x86 host, numpy 2.4).
_ORACLE_NODE_CAP = 2**17
# Smallest decay scale the engine accepts, in the caller's length unit: the
# field integrands genuinely diverge as the field point reaches a wall, so
# smaller scales raise DivergesAtBoundary rather than being attempted.
_DECAY_SCALE_FLOOR = 1e-6
# The u axis ends at u_max = _TAIL_BUDGET / decay scale, where the envelope
# has fallen to e^-60 of its value at the origin. Over the CLI's recorded
# commands and the benchmark's library calls the tail bound stayed within
# 2.1e-11 of the tolerance (midgap scan; profiles 6.6e-14).
_TAIL_BUDGET = 60.0
# Panel splits allowed beyond the seed mesh. In those runs no integral split
# more than 3 panels (the limit checks), and the others split none.
_MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the (u, t) double integral.

    Attributes
    ----------
    rel_tol, abs_tol : float
        The integration stops once the error estimate drops below
        max(rel_tol * |value|, abs_tol).

    Each is a CLI flag. The truncation point, the split budget and the
    decay-scale floor (1e-6) are the engine's constants.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14

    def __post_init__(self):
        object.__setattr__(self, "rel_tol", checked_float(self.rel_tol, "rel_tol"))
        if not (is_finite_real(self.abs_tol) and self.abs_tol >= 0):
            raise DomainError(f"abs_tol must be a nonnegative finite number, got {self.abs_tol!r}")
        object.__setattr__(self, "abs_tol", float(self.abs_tol))


@dataclass(frozen=True)
class IntegralResult:
    """Value, error estimate, work count and truncation point of one integral.

    A batched call returns one result whose value and error_estimate are
    arrays of shape (fields, positions). ``evaluations`` counts the u rows
    at which the engine took t integrals, a lifted callable's check rows
    twice each; `integrate_fixed_grid` counts its (u, t) nodes.
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    truncation_u: float


@functools.lru_cache(maxsize=16)
def _seed_mesh(u_max: float, levels: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seed mesh of [0, u_max]: edges, Kronrod nodes and half widths.

    The edges are 0, u_max 2^-j for j = levels .. 2, 3 u_max / 8, u_max / 2
    and u_max, so no panel below u_max / 2 is wider than u_max / 8: 15
    (levels + 2) Kronrod nodes, panel by panel, then the tail node u_max.
    """
    edges = np.array([0.0] + [u_max * 2.0**-j for j in range(levels, 1, -1)] + [0.375 * u_max, 0.5 * u_max, u_max])
    nodes, half = _kronrod_nodes(edges[:-1], edges[1:])
    mesh = (edges, np.append(nodes, u_max), half)
    for array in mesh:
        array.setflags(write=False)
    return mesh


def _kronrod_nodes(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 15 Kronrod nodes of each panel [lo, hi], panel by panel, and the panels' half widths."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * _XK15).ravel(), half


def _log_simpson_rule(intervals: int):
    """Uniform composite Simpson rule in log(t) on [1e-16, 1]; the oracle's t rule.

    In the log variable the spike near t = 0 and its power-law tail both
    have order-one width at every u, so a uniform mesh resolves them; the
    neglected piece below 1e-16 contributes at most max|f| * 1e-16.
    """
    s = np.linspace(math.log(1e-16), 0.0, intervals + 1)
    h = s[1] - s[0]
    coeff = np.ones(intervals + 1)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    nodes = np.exp(s)
    return nodes, coeff * (h / 3.0) * nodes  # dt = t ds


def _checked_scales(values, floor) -> np.ndarray:
    """The decay scales as a float array, after checking that each is a positive finite number at least ``floor``.

    An array is flattened. A float array is taken as it is; otherwise one
    pass over the elements refuses anything but real numbers (bool
    included). Array checks then find the first scale that fails:
    InvalidDecayScale names it if it is not positive and finite (NaN
    included), DivergesAtBoundary if it is below the floor.
    """
    values = values.ravel() if isinstance(values, np.ndarray) else values
    scales = real_array(values)
    valid = np.isfinite(scales) & (scales > 0)
    failing = ~valid | (scales < floor)
    if failing.any():
        first = int(np.argmax(failing))
        bad = values[first]
        if not valid[first]:
            raise InvalidDecayScale(f"decay scale must be a positive finite number, got {bad!r}")
        raise DivergesAtBoundary(
            f"decay scale {bad!r} is below the floor {floor!r}; "
            "the field point is too close to a wall for the integral to be meaningful"
        )
    return scales


def integrate_semi_infinite(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple],
    decay_scale,
    cfg: QuadratureConfig | None = None,
    envelope: Callable[[np.ndarray], np.ndarray] | None = None,
) -> IntegralResult:
    """Integrate f(u, t) du dt over [0, inf) x [0, 1] to the configured tolerance.

    Parameters
    ----------
    f : callable
        Vectorized integrand, called with u of shape (n, 1) at interior
        nodes only, so endpoint singularities at u = 0, t = 0 or t = 1 are
        never touched. Must be finite on (0, u_max] x (0, 1). Called with
        t = `T_INTEGRAL`, it returns at each u the t integral and a bound on
        that of the magnitude, as arrays of dtype `T_INTEGRAL_DTYPE`; in
        batched form, a tuple of such brackets ``(constant, position_1,
        ..., position_K)``, where ``constant`` may be None for zero. A plain
        callable, which returns its values on a (u, t) grid instead, is
        lifted once onto the engine's fixed t rule, graded toward t = 0,
        and checked at the seed rows against the same rule on halved t
        panels. It is first called with the empty t row `T_INTEGRAL`, so
        it must be elementwise in t (``t.max()`` fails on that row).
    decay_scale : float or sequence of float
        The exponential scale of the integrand, exp(-u * decay_scale);
        for the field integrands this is 2z (single interface) or
        2 min(z, a - z) (cavity). Supplied by the caller, which knows
        the geometry. In batched form, one scale per position.
    cfg : QuadratureConfig, optional
        Tolerances; defaults are suitable for all tests.
    envelope : callable, optional
        Selects the batched form: maps u of shape (n,) to the nonnegative
        weights of the position brackets, shape (positions, n). Field k at
        position j integrates ``constant + envelope(u)[j] * position_k``.

    Returns
    -------
    IntegralResult
        The error estimate is the sum of the Kronrod panel estimates, a
        bound on the truncated tail beyond u_max and a roundoff allowance
        for the t integrals, 16 ulps of the integral of the magnitude, or
        for a lifted callable its check's largest relative gap if that is
        more; ``evaluations`` counts u rows, the check's twice each. In
        batched form value and
        error_estimate have shape (K, positions) and every position is
        integrated up to the u_max of the slowest decay.

    Raises
    ------
    InvalidDecayScale
        If a decay scale is not a positive finite number.
    DivergesAtBoundary
        If a decay scale is below 1e-6, the floor of the field integrands.
    NonConvergence
        If the 2,000 panel splits are spent first; at once if a value or
        error estimate is not finite, or if the tail bound and the t term
        together exceed the tolerance, since splitting panels reduces
        neither. The best estimate rides on the exception as ``result``.

    Notes
    -----
    The seed panels form one ratio-2 geometric mesh from u_max / 4 down to
    2**-8 of the smallest truncation point of any position, so each
    position gets at least the seeding it would get alone, then
    [u_max / 4, u_max / 2] in two halves and [u_max / 2, u_max]. Refinement
    then goes in rounds until every (field, position) pair meets its
    tolerance. Each round takes, for every pair above it, the fewest of
    that pair's largest-error panels whose removal would bring it within
    the tolerance, and halves the union of them with one integrand call;
    the halves take their parents' place in order of u. The split budget,
    _MAX_SUBDIVISIONS, counts halved panels: a round takes at most half of
    those left, its largest-error panels first, and NonConvergence is raised
    once none are.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    batched = envelope is not None
    scales = _checked_scales(decay_scale if batched else (decay_scale,), _DECAY_SCALE_FLOOR)
    if scales.size == 0:
        raise DomainError("a batched integral needs at least one decay scale")
    envelope = envelope if batched else unit_envelope
    u_max = _TAIL_BUDGET / float(scales.min())
    levels = _SEED_SPLITS + max(0, math.ceil(math.log2(scales.max() / scales.min())))
    edges, seed_u, seed_half = _seed_mesh(u_max, levels)
    seed = f(seed_u[:, None], T_INTEGRAL)
    evaluations = seed_u.size
    t_rate = _T_INTEGRAL_ROUNDOFF
    if not all(getattr(getattr(bracket, "dtype", None), "names", None) == T_INTEGRAL_DTYPE.names for bracket in _bracket_list(seed)):
        plain, f = f, _lifted(f)  # an empty grid: a plain callable
        seed = f(seed_u[:, None], T_INTEGRAL)
        t_rate = max(t_rate, _lift_gap(plain, seed_u, seed))
        evaluations *= 3  # the check's rule is twice the lift's, so each of its rows counts as two
    panels_per_call = max(1, _NODE_CAP // 15)

    def eval_panels(out, u: np.ndarray, half: np.ndarray):
        """Kronrod value, |Kronrod - Gauss| and Kronrod sum of the t integral of |C| + e|P| on each panel.

        out holds one f call's rows at u: the 15 Kronrod nodes of each panel,
        panel by panel, then for the seed the tail node u_max; half holds the
        panels' half widths. The first result is (panels, 3, fields,
        positions), C-contiguous: one matrix product per panel takes the
        weighted t integrals (3 x fields, 15) to the envelope (15, positions),
        and the constant's sums are added to every position. The second is the
        t-integrated magnitude at the last u node, (fields, positions), which
        for the seed is the tail node.
        """
        has_constant = isinstance(out, tuple) and out[0] is not None
        # rows (n, 1) of integral and magnitude, viewed as (brackets, n, 2)
        reduced = np.stack([bracket.view(float) for bracket in _bracket_list(out)])
        weights = envelope(u)  # (positions, n)
        p, n = half.size, 15 * half.size
        # (p, 3, brackets, 15): each bracket's t integrals weighted by K15 and K15 - G7, its magnitudes by K15
        left = reduced[:, :n].reshape(-1, p, 15, 2).transpose(1, 3, 0, 2)[:, [0, 0, 1]]
        left *= _KGK_WEIGHTS[:, None]
        panel = left[:, :, has_constant:].reshape(p, -1, 15) @ weights[:, :n].reshape(-1, p, 15).transpose(1, 2, 0)
        panel = panel.reshape(p, 3, -1, weights.shape[0])
        if has_constant:  # the same for every position
            panel += left[:, :, 0].sum(axis=-1)[..., None, None]
        panel *= half[:, None, None, None]
        np.abs(panel[:, 1], out=panel[:, 1])
        magnitude = reduced[:, -1, 1]
        return panel, (magnitude[0] if has_constant else 0.0) + weights[:, -1] * magnitude[has_constant:, None]

    # panel: (panels, 3, fields, positions), panels sorted by lo; along its second
    # axis the Kronrod value, its error |Kronrod - Gauss| and the magnitude sum
    panel, g_tail = eval_panels(seed, seed_u, seed_half)

    # Tail bound: the t-integrated magnitude at the truncation point, carried
    # forward under |g(u)| <= C u^3 exp(-u s) with a factor-2 safety margin:
    # 2 g (1 + 3/b + 6/b^2 + 6/b^3) / s, b = u_max s. |constant + e * position|
    # <= |constant| + e |position| bounds it per position.
    budget = u_max * scales
    tail = 2.0 * g_tail * (1.0 + 3.0 / budget + 6.0 / budget**2 + 6.0 / budget**3) / scales

    splits = 0
    while True:
        total, kronrod_err, magnitude = panel.sum(axis=0)
        # The t term is 16 ulps of the t integral of |C| + e|P|, so an integrand
        # that changes sign in t is covered too; a lifted callable's is its
        # check's largest relative gap if that is more.
        t_err = t_rate * magnitude
        err_total = kronrod_err + tail + t_err
        if not (np.isfinite(total).all() and np.isfinite(err_total).all()):
            raise NonConvergence(
                "the integrand is not finite: a value or error estimate is NaN or infinite",
                result=_result(batched, total, err_total, evaluations, u_max),
            )
        tol = np.maximum(cfg.rel_tol * np.abs(total), cfg.abs_tol)
        failing = err_total > tol
        if not failing.any():
            break
        unreducible = tail + t_err  # splitting panels reduces neither
        if (unreducible > tol).any():
            pair = np.unravel_index(np.argmax(unreducible - tol), tol.shape)
            hint = "the fixed t rule does not resolve f in t" if t_rate > _T_INTEGRAL_ROUNDOFF else "loosen rel_tol or abs_tol"
            raise NonConvergence(
                f"tail bound {float(tail[pair]):.3e} and t term {float(t_err[pair]):.3e} exceed the tolerance "
                f"{float(tol[pair]):.3e}, and no panel split reduces them; {hint}",
                result=_result(batched, total, err_total, evaluations, u_max),
            )
        if splits >= _MAX_SUBDIVISIONS:
            total_max = float(np.max(np.abs(total)))
            raise NonConvergence(
                f"error estimate {float(np.max(err_total)):.3e} still above tolerance after "
                f"{splits} subdivisions (largest value {total_max:.6e})",
                result=_result(batched, total, err_total, evaluations, u_max),
            )
        # a round takes at most half the splits left, so a budget that runs out
        # ends on the worst panels split again, not on one wide round
        most = -(-(_MAX_SUBDIVISIONS - splits) // 2)
        split = _panels_to_split(panel[:, 1, failing], (tol - tail - t_err)[failing], most)
        lo, hi = edges[split], edges[split + 1]
        mid = 0.5 * (lo + hi)
        halves_lo = np.stack((lo, mid), axis=1).ravel()
        u, half = _kronrod_nodes(halves_lo, np.stack((mid, hi), axis=1).ravel())
        blocks = []
        for start in range(0, half.size, panels_per_call):  # whole panels, one f call each up to the node cap
            rows = slice(15 * start, 15 * (start + panels_per_call))
            blocks.append(eval_panels(f(u[rows, None], T_INTEGRAL), u[rows], half[start : start + panels_per_call])[0])
        evaluations += u.size
        halves = np.concatenate(blocks)
        # the halves take their parents' place, in order of u
        kept = np.ones(panel.shape[0], dtype=bool)
        kept[split] = False
        panel_lo = np.concatenate((edges[:-1][kept], halves_lo))
        by_lo = np.argsort(panel_lo, kind="stable")
        edges = np.append(panel_lo[by_lo], u_max)
        panel = np.concatenate((panel[kept], halves))[by_lo]
        splits += split.size

    return _result(batched, total, err_total, evaluations, u_max)


def _panels_to_split(errors: np.ndarray, allowance: np.ndarray, most: int) -> np.ndarray:
    """Ascending indices of the panels to split in one refinement round, at most ``most`` of them.

    errors holds the Kronrod error of every panel for each (field, position)
    pair above its tolerance, (panels, pairs), and allowance what each pair
    may keep of it: its tolerance less its tail bound and t term. Each pair
    takes the fewest of its largest-error panels whose removal leaves the
    rest of its Kronrod error within the allowance, and at least one; every
    panel if no number does. If the union holds more than ``most`` panels,
    those with the largest error over the pairs are kept, ties by position.
    """
    ranked = np.sort(errors, axis=0)
    # sums of the smallest errors never fall as a panel is added, so those that may stay come first
    stay = np.minimum(np.count_nonzero(np.cumsum(ranked, axis=0) <= allowance, axis=0), errors.shape[0] - 1)
    panels = np.flatnonzero((errors >= ranked[stay, np.arange(errors.shape[1])]).any(axis=1))
    if panels.size > most:
        panels = np.sort(panels[np.argsort(-errors[panels].max(axis=1), kind="stable")[:most]])
    return panels


def _lifted(f):
    """A plain callable f(u, t) as an integrand that answers t = `T_INTEGRAL`: its brackets' t integrals on the fixed graded rule."""
    return lambda u, _: _rule_rows(f, u, *_T_RULE)


def _lift_gap(f, u: np.ndarray, rows) -> float:
    """Largest gap between a plain callable's lifted rows at u and the same rule on halved t panels, relative to the row's magnitude.

    Where the lift resolves f in t the two agree to roundoff, within the
    16-ulp allowance; a gap above it is the lift's error, such as that of a
    spike inside (0, 1) narrower than the rule's panels.
    """
    check = _rule_rows(f, u[:, None], *_T_CHECK_RULE)
    gaps = [
        np.abs(lifted["integral"] - halved["integral"]) / np.maximum(halved["magnitude"], np.finfo(float).tiny)
        for lifted, halved in zip(_bracket_list(rows), _bracket_list(check))
    ]
    return float(max(gap.max() for gap in gaps))


def _rule_rows(f, u: np.ndarray, t: np.ndarray, weights: np.ndarray):
    """f's t integrals on a fixed rule, nodes t (1, m) and weights (m,), at the u rows (n, 1), in the form of f's output: `T_INTEGRAL` rows.

    f is called on blocks of whole u rows within _NODE_CAP nodes and
    returns one bracket or a tuple of brackets, whose constant may be None.
    `_t_rows` reduces each row alike whatever its block, so no row depends
    on the node cap.
    """
    step = max(1, _NODE_CAP // t.size)
    rows = None
    for start in range(0, max(1, u.shape[0]), step):  # one call on no rows too, to learn f's brackets
        out = f(u[start : start + step], t)
        brackets = out if isinstance(out, tuple) else (out,)
        if rows is None:
            rows = [None if bracket is None else np.empty((u.shape[0], 2)) for bracket in brackets]
        for row, bracket in zip(rows, brackets):
            if row is not None:
                row[start : start + step] = _t_rows(bracket, weights)
    rows = [row if row is None else row.view(T_INTEGRAL_DTYPE) for row in rows]
    return tuple(rows) if isinstance(out, tuple) else rows[0]


def _t_rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(n, 2) integrals of the rows of values (n, m) on a rule's nodes, and of their absolute values.

    A sum along the last axis rounds each row alike whatever the number of
    rows, so a row's integral does not depend on the call it came from.
    """
    rows = np.empty(values.shape[:-1] + (2,))
    np.add.reduce(values * weights, axis=-1, out=rows[..., 0])
    np.add.reduce(np.abs(values) * weights, axis=-1, out=rows[..., 1])
    return rows


def _bracket_list(out) -> list:
    """Every bracket of one integrand call, without a None constant; a plain array is one bracket."""
    if not isinstance(out, tuple):
        return [out]
    return list(out[1:]) if out[0] is None else list(out)


def unit_envelope(u: np.ndarray) -> np.ndarray:
    """Envelope of a plain integrand, and of a family ``(None, f_1, ..., f_K)``: one position, weight 1."""
    return np.ones((1, u.size))


def _result(batched: bool, total, err_total, evaluations: int, u_max: float) -> IntegralResult:
    if batched:
        return IntegralResult(total, err_total, evaluations, u_max)
    return IntegralResult(float(total[0, 0]), float(err_total[0, 0]), evaluations, u_max)


def integrate_fixed_grid(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple],
    decay_scale: float,
    n_u: int = 768,
    envelope: Callable[[np.ndarray], np.ndarray] | None = None,
) -> IntegralResult:
    """Brute-force fixed-grid evaluation of the same double integral.

    Trapezoid rule in log(u) on [1e-8, 60] / decay_scale, crossed with a
    uniform composite Simpson rule in log(t) on [1e-16, 1]. The integral
    is evaluated on n_u log-u points against 1,024 log-t intervals, and on
    2 n_u points against 2,048 intervals; the finer value is returned and
    the difference, which refines both axes, is the reported error gauge.
    Node placement, weights and refinement are all disjoint from the
    adaptive engine, which this function cross-checks. f is called on
    whole log-u rows, at most _ORACLE_NODE_CAP nodes at a time. n_u must
    be an integer of at least 16; DomainError otherwise.

    With ``envelope`` f is in the batched form of `integrate_semi_infinite`
    and field k at position j integrates ``constant + envelope(u)[j] *
    position_k``; value and error_estimate are then (fields, positions)
    arrays, every position on the u range of the one decay_scale.
    """
    decay_scale = float(_checked_scales((decay_scale,), 0.0)[0])
    if not (is_integer(n_u) and n_u >= 16):
        raise DomainError(f"n_u must be an integer of at least 16, got {n_u!r}")
    batched = envelope is not None
    envelope = envelope if batched else unit_envelope
    u_lo, u_hi = 1e-8 / decay_scale, 60.0 / decay_scale
    evaluations = 0

    def once(n: int, t_intervals: int) -> np.ndarray:
        """(fields, positions) integrals on n log-u points against t_intervals log-t intervals."""
        nonlocal evaluations
        t_nodes, t_weights = _log_simpson_rule(t_intervals)
        x = np.linspace(math.log(u_lo), math.log(u_hi), n)
        u = np.exp(x)
        rows = max(1, _ORACLE_NODE_CAP // t_nodes.size)
        g = []
        for start in range(0, n, rows):
            block = u[start : start + rows]
            out = f(block[:, None], t_nodes[None, :])
            reduced = [bracket @ t_weights for bracket in _bracket_list(out)]
            constant = reduced.pop(0) if isinstance(out, tuple) and out[0] is not None else 0.0
            g.append(constant + envelope(block)[None, :, :] * np.array(reduced)[:, None, :])
        evaluations += n * t_nodes.size
        return np.trapezoid(u * np.concatenate(g, axis=-1), x)  # du = u dx

    coarse = once(n_u, 1024)
    fine = once(2 * n_u, 2048)
    if batched:
        return IntegralResult(fine, np.abs(fine - coarse), evaluations, u_hi)
    return IntegralResult(float(fine[0, 0]), abs(float(fine[0, 0]) - float(coarse[0, 0])), evaluations, u_hi)
