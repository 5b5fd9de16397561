"""Semi-infinite double quadrature tuned to exponentially damped integrands.

The integrands handled here live on u in [0, inf) times t in [0, 1], decay
like exp(-u * decay_scale) in u, and are smooth in t except for a possible
spike at t = 0 whose width shrinks like 1/u. At every u row the engine needs
only the t integral of the integrand and of its magnitude, so the integral
runs on the u axis alone: a trapezoid rule in x = log u from u_max = 60 /
decay_scale (`_TAIL_BUDGET`) down to 1e-5 / decay_scale (`_HEAD`), at step
0.1 and, on every other row, at 0.2, from one integrand call. Their gap,
with bounds on the head and the tail and roundoff allowances, is the error
estimate; a pair above its tolerance halves the step, one call on the
midpoints.

The integrand supplies those rows when called with t = `T_INTEGRAL`. Every
integrand of `integrand.integrand_function` does: the Drude ones in closed
form, the others on a fixed rule exact to roundoff. A plain callable of
(u, t) answers that call with an empty grid, and the engine lifts it once,
at its entry, onto one fixed t rule (`_lifted`): 32-point Gauss-Legendre on
each panel of a geometrically graded t mesh, so the t spike stays resolved
at every scale without 2-D adaptivity. Either way ``evaluations`` counts u
rows, and the t part of the error estimate is a fixed roundoff allowance,
16 ulps of the t integral of the magnitude. The lift's rule is not adapted
to the integrand, so the engine checks it once (`_lift_gap`): at the first
call's rows it takes the t integrals again on the same rule with every
panel halved, and their largest gap relative to the magnitude, if above
the allowance, takes its place.

In batched form one call integrates constant(u, t) + envelope_j(u) *
position_k(u, t) for every position j and field k. The brackets are
t-integrated once per u row; one matrix product per field takes its
position bracket's t integrals, weighted at both steps, to the envelope
of every position, and the constant's sums, the same at every position,
are added. Every (position, field) pair keeps its own error estimate and
tolerance test on the shared rows. A family ``(None, f_1, ..., f_K)`` under
`unit_envelope` is the same form with one position: K integrands sharing
one decay scale go through one set of rows, which is how a midgap scan
integrates a group of wp*a values per call (`analysis`).

`integrate_fixed_grid` is a brute-force evaluator used as an oracle for the
engine: a log-u trapezoid like the engine's, on its own range, against its
own log-t Simpson rule. It evaluates every integrand on its (u, t) grid,
where the package integrands take one bracket arithmetic for every model,
so it also checks their exact t integrals: the Drude maps and kernels and
the fixed t rules of the other models, none of which that arithmetic uses.
"""

from __future__ import annotations

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
# nodes, which a plain callable meets at the first call's rows wherever the
# lift resolves its t dependence.
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

# Largest (u, t) grid of one call of a fixed t rule (`_rule_rows`), which
# takes whole u rows whose nodes stay within it. It bounds the temporaries of
# a lifted call, and of the constant-eps and perfect-conductor cavity rows,
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
# The u rule: the trapezoid rule in x = log u, at step _STEP and at twice
# that step on every other row, both from one integrand call. The rows run
# down from u_max by an even number of steps to at most _HEAD / s_max, u s of
# 1e-5 at the fastest decay. The head bound, u |g(u)| at the lowest row, holds
# where |g| does not rise below it (p >= 0 for |g| ~ u^p; unchecked, p is 1 to
# 2 at the battery's weak Drude mirrors), and stayed within 7.1e-11 of the
# value there (1.8e-16 on the other profiles); from 1e-8 a midgap call took
# 44% more rows (227 against 159). Step 0.1 meets the default tolerances on
# the CLI's and the benchmark's integrals, which all stop at the first call.
_STEP = 0.1
_HEAD = 1e-5
# Where the head bound alone fails the tolerance, as for an integrand with
# g(0) != 0, the lowest row moves down by _HEAD_DROP in one more call;
# otherwise a failing pair halves the step, one call on the new midpoints.
# At most _MAX_REFINEMENTS calls follow the first.
_HEAD_DROP = 1e3
_MAX_REFINEMENTS = 8
# Relative roundoff allowed for the u sums, times the u integral of the
# magnitude. Against long double sums of the same rows, weights and envelope
# the sums stayed within 1.5 ulps of it (the battery's profiles and midgap
# families, tests/test_err_battery.py), so 4 leaves a margin of 2.7.
_U_SUM_ROUNDOFF = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the (u, t) double integral.

    Attributes
    ----------
    rel_tol, abs_tol : float
        The integration stops once the error estimate drops below
        max(rel_tol * |value|, abs_tol).

    Each is a CLI flag. The u rule, its truncation points and the
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
    at which the engine took t integrals over all its integrand calls, a
    lifted callable's check rows twice each; `integrate_fixed_grid` counts
    its (u, t) nodes.
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    truncation_u: float


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
        Vectorized integrand, called with u of shape (n, 1), ascending, at
        interior nodes only, so endpoint singularities at u = 0, t = 0 or
        t = 1 are never touched. Must be finite on (0, u_max] x (0, 1).
        Called with t = `T_INTEGRAL`, it returns at each u the t integral
        and a bound on that of the magnitude, as arrays of dtype
        `T_INTEGRAL_DTYPE`; in batched form, a tuple of such brackets
        ``(constant, position_1, ..., position_K)``, where ``constant`` may
        be None for zero. A plain callable, which returns its values on a
        (u, t) grid instead, is lifted once onto the engine's fixed t rule,
        graded toward t = 0, and checked at the first call's rows against
        the same rule on halved t panels. It is first called with the empty
        t row `T_INTEGRAL`, so it must be elementwise in t (``t.max()``
        fails on that row).
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
        The value is the trapezoid sum at the last step; the error estimate
        adds its gap to the sum at twice the step, bounds on the tail beyond
        u_max and on the head below the lowest row (u |g| there, if |g| does
        not rise below it), and roundoff allowances of the magnitude's
        integral: 16 ulps for the t integrals (a lifted callable's check gap
        if more) and 4 for the u sums. In batched form value and
        error_estimate have shape (K, positions), every position on the rows
        of the slowest and the fastest decay.

    Raises
    ------
    InvalidDecayScale
        If a decay scale is not a positive finite number.
    DivergesAtBoundary
        If a decay scale is below 1e-6, the floor of the field integrands.
    NonConvergence
        If 8 refinements leave a pair above its tolerance; at once if a value
        or error estimate is not finite, or if the tail bound and roundoff
        allowances alone exceed the tolerance. The best estimate rides on
        the exception as ``result``.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    batched = envelope is not None
    scales = _checked_scales(decay_scale if batched else (decay_scale,), _DECAY_SCALE_FLOOR)
    if scales.size == 0:
        raise DomainError("a batched integral needs at least one decay scale")
    envelope = envelope if batched else unit_envelope
    u_max = _TAIL_BUDGET / float(scales.min())
    step = _STEP

    def rows_at(k: np.ndarray) -> np.ndarray:
        """The rows u_max e^{-k step} of the current step."""
        return u_max * np.exp(-step * k)

    # k = steps .. 0: an even number of steps down to at most _HEAD / s_max
    steps = 2 * math.ceil(math.log(u_max * float(scales.max()) / _HEAD) / (2 * step))
    u = rows_at(np.arange(steps, -1, -1.0))
    out = f(u[:, None], T_INTEGRAL)
    evaluations = u.size
    t_rate = _T_INTEGRAL_ROUNDOFF
    if not all(getattr(getattr(bracket, "dtype", None), "names", None) == T_INTEGRAL_DTYPE.names for bracket in _bracket_list(out)):
        plain, f = f, _lifted(f)  # an empty grid: a plain callable
        out = f(u[:, None], T_INTEGRAL)
        t_rate = max(t_rate, _lift_gap(plain, u, out))
        evaluations *= 3  # the check's rule is twice the lift's, so each of its rows counts as two
    has_constant = isinstance(out, tuple) and out[0] is not None
    rows = _stacked(out)

    # Tail bound: the t-integrated magnitude at the truncation point, carried
    # forward under |g(u)| <= C u^3 exp(-u s) with a factor-2 safety margin:
    # 2 g (1 + 3/b + 6/b^2 + 6/b^3) / s, b = u_max s. |constant + e * position|
    # <= |constant| + e |position| bounds it per position.
    budget = u_max * scales
    tail_factor = 2.0 * (1.0 + 3.0 / budget + 6.0 / budget**2 + 6.0 / budget**3) / scales

    refinements = 0
    while True:
        # rows of weights: the sums at step and at twice it on the t integrals, then on
        # their magnitudes the sum at step, u at the lowest row (the head bound) and
        # the top row. One product per field takes its weighted bracket (5, n) to the
        # envelope (n, positions), so a family member sums as alone; the constant is added
        weights = np.zeros((5, u.size))
        weights[0] = step * u
        weights[0, [0, -1]] *= 0.5
        weights[1, ::2] = 2.0 * weights[0, ::2]
        weights[2] = weights[0]
        weights[3, 0], weights[4, -1] = u[0], 1.0
        left = rows[:, :, [0, 0, 1, 1, 1]].transpose(0, 2, 1) * weights
        sums = left[has_constant:] @ envelope(u).T
        if has_constant:  # the same for every position
            sums += left[0].sum(axis=-1)[:, None]
        total, coarse, magnitude, head, g_tail = sums.transpose(1, 0, 2)
        tail = tail_factor * g_tail
        # The t term is 16 ulps of the t integral of |C| + e|P|, so an integrand
        # that changes sign in t is covered too; a lifted callable's is its
        # check's largest relative gap if that is more.
        t_err, u_err = t_rate * magnitude, _U_SUM_ROUNDOFF * magnitude
        err_total = np.abs(total - coarse) + head + tail + t_err + u_err
        if not (np.isfinite(total).all() and np.isfinite(err_total).all()):
            raise NonConvergence(
                "the integrand is not finite: a value or error estimate is NaN or infinite",
                result=_result(batched, total, err_total, evaluations, u_max),
            )
        tol = np.maximum(cfg.rel_tol * np.abs(total), cfg.abs_tol)
        if not (err_total > tol).any():
            break
        unreducible = tail + t_err + u_err  # no finer step reduces them
        if (unreducible > tol).any():
            pair = np.unravel_index(np.argmax(unreducible - tol), tol.shape)
            hint = "the fixed t rule does not resolve f in t" if t_rate > _T_INTEGRAL_ROUNDOFF else "loosen rel_tol or abs_tol"
            raise NonConvergence(
                f"tail bound {float(tail[pair]):.3e}, t term {float(t_err[pair]):.3e} and u-sum roundoff "
                f"{float(u_err[pair]):.3e} exceed the tolerance {float(tol[pair]):.3e}, which no finer step reduces; {hint}",
                result=_result(batched, total, err_total, evaluations, u_max),
            )
        if refinements == _MAX_REFINEMENTS:
            raise NonConvergence(
                f"error estimate {float(np.max(err_total)):.3e} still above tolerance after {refinements} "
                f"refinements of the u rule (step {step:.3e}, largest value {float(np.max(np.abs(total))):.6e})",
                result=_result(batched, total, err_total, evaluations, u_max),
            )
        refinements += 1
        if (unreducible + head > tol).any():  # the lowest row moves down by _HEAD_DROP
            drop = 2 * math.ceil(math.log(_HEAD_DROP) / (2 * step))
            new = rows_at(np.arange(steps + drop, steps, -1.0))
            rows = np.concatenate((_stacked(f(new[:, None], T_INTEGRAL)), rows), axis=1)
            steps += drop
        else:  # the step halves: the old rows are the even ones of the new
            step, steps = 0.5 * step, 2 * steps
            new = rows_at(np.arange(steps - 1, 0, -2.0))
            halved = np.empty((rows.shape[0], steps + 1, 2))
            halved[:, ::2], halved[:, 1::2] = rows, _stacked(f(new[:, None], T_INTEGRAL))
            rows = halved
        evaluations += new.size
        u = rows_at(np.arange(steps, -1, -1.0))

    return _result(batched, total, err_total, evaluations, u_max)


def _stacked(out) -> np.ndarray:
    """One integrand call's `T_INTEGRAL` rows, integral and magnitude, as one (brackets, n, 2) array; a None constant is left out."""
    return np.stack([bracket.view(float).reshape(-1, 2) for bracket in _bracket_list(out)])


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
    Only the t rule and the u range are the oracle's own: its u rule, like
    the engine's, is a log-u trapezoid gauged by two levels, so aliasing in
    log u or a head truncation would fool both. f is called on whole log-u
    rows, at most _ORACLE_NODE_CAP nodes at a time. n_u must be an integer
    of at least 16; DomainError otherwise.

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
    return _result(batched, fine, np.abs(fine - coarse), evaluations, u_hi)
