"""Semi-infinite double quadrature tuned to exponentially damped integrands.

The integrands handled here live on u in [0, inf) times t in [0, 1], decay
like exp(-u * decay_scale) in u, and are smooth in t except for a possible
spike at t = 0 whose width shrinks like 1/u. The engine integrates the
u axis adaptively with a Gauss-Kronrod 7-15 pair on panels of [0, u_max],
u_max = tail_exponent_budget / decay_scale, and applies a fixed composite
Gauss-Legendre rule on a geometrically graded t mesh at every u node, so
the t spike stays resolved at every scale without 2-D adaptivity.

The order of that t rule is measured, not assumed. One probe at the seed
panel centres compares the order-n and order-2n rules on every bracket;
their largest relative difference rho picks the order (it doubles from
``inner_rule_order`` while rho exceeds a tenth of ``rel_tol``), and rho
times the panels' Kronrod sum of the t integrals of the bracket magnitudes
is the t-rule part of the error estimate, beside the u-panel Kronrod part
and the tail bound.

In batched form one call integrates a family constant(u, t) +
envelope_j(u) * position_k(u, t) for every position j and field k: the
brackets are evaluated and t-reduced once per u node, and each position
is a weighted sum of the reduced values. Every (position, field) pair
keeps its own Kronrod error, tail bound and tolerance test on the shared
panels.

`integrate_fixed_grid` is a deliberately independent brute-force evaluator
(log-u trapezoid against a log-t Simpson rule) used as an oracle for the
adaptive engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DivergesAtBoundary, DomainError, InvalidDecayScale, NonConvergence, is_finite_real

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "integrate_semi_infinite",
    "integrate_fixed_grid",
]

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
# Columns: the Kronrod-15 weights, and the Gauss-7 weights on the same nodes
# (zero on the seven nodes the Gauss rule does not use).
_KG_WEIGHTS = np.zeros((15, 2))
_KG_WEIGHTS[:, 0] = np.concatenate((_K15_WEIGHTS[:-1], _K15_WEIGHTS[::-1]))
_KG_WEIGHTS[1::2, 1] = np.concatenate((_G7_WEIGHTS[:-1], _G7_WEIGHTS[::-1]))

# Number of geometric seed splits of [0, u_max]; pre-resolves the decades
# below the truncation point before adaptive refinement starts.
_SEED_SPLITS = 16

_T_RULE_RATIO = 8.0
_T_RULE_LEVELS = 16
# The t rule's order doubles while the probe's relative t error exceeds
# _T_ERROR_FRACTION * rel_tol, at most _T_ORDER_DOUBLINGS times, so the
# t-rule part takes a small share of the error budget.
_T_ERROR_FRACTION = 0.1
_T_ORDER_DOUBLINGS = 3

_t_rule_cache: dict[int, Tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation policy for the (u, t) double integral.

    Attributes
    ----------
    rel_tol, abs_tol : float
        The integration stops once the error estimate drops below
        max(rel_tol * |value|, abs_tol).
    tail_exponent_budget : float
        The u axis is truncated at u_max = budget / decay_scale, so the
        neglected envelope is exp(-budget) of its value at the origin.
    max_subdivisions : int
        Adaptive panel splits allowed beyond the initial seeding.
    inner_rule_order : int
        Starting Gauss-Legendre order on each panel of the graded t mesh.
        A probe at the seed panel centres compares this order with its
        double; while their relative difference exceeds rel_tol / 10 the
        order doubles, at most three times. The difference measured for
        the order finally used enters the error estimate.
    decay_scale_floor : float
        Smallest decay scale accepted, in the caller's length unit; the
        integrands genuinely diverge as the field point reaches a wall,
        so arbitrarily small scales are refused rather than attempted.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    tail_exponent_budget: float = 60.0
    max_subdivisions: int = 2000
    inner_rule_order: int = 16
    decay_scale_floor: float = 1e-6

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if not self.abs_tol >= 0:
            raise DomainError(f"abs_tol must be nonnegative, got {self.abs_tol!r}")
        if not self.tail_exponent_budget >= 30:
            raise DomainError(f"tail_exponent_budget must be at least 30, got {self.tail_exponent_budget!r}")
        if not self.max_subdivisions >= 10:
            raise DomainError(f"max_subdivisions must be at least 10, got {self.max_subdivisions!r}")
        if not self.inner_rule_order >= 2:
            raise DomainError(f"inner_rule_order must be at least 2, got {self.inner_rule_order!r}")
        if not self.decay_scale_floor > 0:
            raise DomainError(f"decay_scale_floor must be positive, got {self.decay_scale_floor!r}")


@dataclass(frozen=True)
class IntegralResult:
    """Value, error estimate, work count and truncation point of one integral.

    A batched call returns one result whose value and error_estimate are
    arrays of shape (fields, positions).
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    truncation_u: float


def _graded_t_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1], geometrically graded toward 0."""
    cached = _t_rule_cache.get(order)
    if cached is not None:
        return cached
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.concatenate(([0.0], _T_RULE_RATIO ** -np.arange(_T_RULE_LEVELS, -1.0, -1.0)))
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    rule = (np.concatenate(nodes), np.concatenate(weights))
    _t_rule_cache[order] = rule
    return rule


def _log_simpson_rule(intervals: int, t_floor: float = 1e-16):
    """Uniform composite Simpson rule in log(t) on [t_floor, 1]; the oracle's t rule.

    In the log variable the spike near t = 0 and its power-law tail both
    have order-one width at every u, so a uniform mesh resolves them; the
    neglected piece below t_floor contributes at most max|f| * t_floor.
    """
    s = np.linspace(math.log(t_floor), 0.0, intervals + 1)
    h = s[1] - s[0]
    coeff = np.ones(intervals + 1)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    nodes = np.exp(s)
    return nodes, coeff * (h / 3.0) * nodes  # dt = t ds


def _check_decay_scale(decay_scale, floor) -> None:
    if not (is_finite_real(decay_scale) and decay_scale > 0):
        raise InvalidDecayScale(f"decay scale must be a positive finite number, got {decay_scale!r}")
    if decay_scale < floor:
        raise DivergesAtBoundary(
            f"decay scale {decay_scale!r} is below the floor {floor!r}; "
            "the field point is too close to a wall for the integral to be meaningful"
        )


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
        Vectorized integrand; called with broadcastable arrays
        (u of shape (n, 1), t of shape (1, m)) at interior nodes only,
        so endpoint singularities at u = 0, t = 0 or t = 1 are never
        touched. Must be finite on (0, u_max] x (0, 1). Returns the
        integrand on the grid or, in batched form, a tuple of brackets
        ``(constant, position_1, ..., position_K)``; ``constant`` may be
        None for zero.
    decay_scale : float or sequence of float
        The exponential scale of the integrand, exp(-u * decay_scale);
        for the field integrands this is 2z (single interface) or
        2 min(z, a - z) (cavity). Supplied by the caller, which knows
        the geometry. In batched form, one scale per position.
    cfg : QuadratureConfig, optional
        Tolerances and budgets; defaults are suitable for all tests.
    envelope : callable, optional
        Selects the batched form: maps u of shape (n,) to the nonnegative
        weights of the position brackets, shape (positions, n). Field k at
        position j integrates ``constant + envelope(u)[j] * position_k``.

    Returns
    -------
    IntegralResult
        The error estimate is the sum of the Kronrod panel estimates, a
        bound on the truncated tail beyond u_max and the measured t-rule
        term. ``evaluations`` includes the probe's nodes. In batched form value
        and error_estimate have shape (K, positions) and every position
        is integrated up to the u_max of the slowest decay.

    Raises
    ------
    InvalidDecayScale
        If a decay scale is not a positive finite number.
    DivergesAtBoundary
        If a decay scale is below the configured floor.
    NonConvergence
        If the subdivision budget is exhausted first, or at once if the
        t-rule term alone exceeds the tolerance; the best estimate rides
        on the exception as ``result``.

    Notes
    -----
    The seed panels form one ratio-2 geometric mesh from u_max down to
    2**-16 of the smallest truncation point of any position, so each
    position gets at least the seeding it would get alone. Refinement
    then splits the worst panel of the (field, position) pair that is
    furthest above its tolerance until every pair meets it.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    batched = envelope is not None
    for scale in decay_scale if batched else (decay_scale,):
        _check_decay_scale(scale, cfg.decay_scale_floor)
    scales = np.array(decay_scale if batched else [decay_scale], dtype=float)
    if scales.size == 0:
        raise DomainError("a batched integral needs at least one decay scale")
    envelope = envelope if batched else _unit_envelope
    u_max = cfg.tail_exponent_budget / float(scales.min())
    levels = _SEED_SPLITS + max(0, math.ceil(math.log2(scales.max() / scales.min())))
    edges = [0.0] + [u_max * 2.0**-j for j in range(levels, 0, -1)] + [u_max]
    centres = np.array([0.5 * (lo + hi) for lo, hi in zip(edges[:-1], edges[1:])])
    order, rho, evaluations = _probe_t_rule(f, centres, cfg)
    t_nodes, t_weights = _graded_t_rule(order)

    def reduced_brackets(u: np.ndarray):
        """t integrals of the constant and the (K, n) position brackets at the u nodes, then of their magnitudes."""
        nonlocal evaluations
        constant, position = _split_brackets(f(u[:, None], t_nodes[None, :]))
        evaluations += u.size * t_nodes.size
        brackets = np.stack(position if constant is None else [constant, *position])
        signed, magnitude = brackets @ t_weights, np.abs(brackets) @ t_weights
        if constant is None:
            return 0.0, signed, 0.0, magnitude
        return signed[0], signed[1:], magnitude[0], magnitude[1:]

    def eval_panel(lo: float, hi: float):
        """Kronrod value, |Kronrod - Gauss| and Kronrod sum of the t integral of |C| + e|P| per (field, position)."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u = mid + half * _XK15
        constant, position, constant_abs, position_abs = reduced_brackets(u)
        weights = envelope(u)[None, :, :]  # (1, positions, 15)
        kg = half * ((constant + weights * position[:, None, :]) @ _KG_WEIGHTS)
        magnitude = half * ((constant_abs + weights * position_abs[:, None, :]) @ _KG_WEIGHTS[:, 0])
        return kg[..., 0], np.abs(kg[..., 0] - kg[..., 1]), magnitude

    panels = [(lo, hi, *eval_panel(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]  # sorted by lo

    # Tail bound: the t-integrated magnitude at the truncation point, carried
    # forward under |g(u)| <= C u^3 exp(-u s) with a factor-2 safety margin.
    # |constant + e * position| <= |constant| + e |position| bounds it per position.
    u_tail = np.array([u_max])
    _, _, constant, position = reduced_brackets(u_tail)
    g_tail = constant + envelope(u_tail)[:, 0] * position
    budget = u_max * scales
    tail = 2.0 * g_tail * (1.0 + 3.0 / budget + 6.0 / budget**2 + 6.0 / budget**3) / scales

    splits = 0
    while True:
        total = np.sum([p[2] for p in panels], axis=0)
        # The t rule's error at a u node is estimated as rho times the t
        # integral of |C| + e|P|, the quantity rho is measured against; a
        # plain integrand that changes sign in t is covered too. Splitting
        # panels does not reduce it.
        t_err = rho * np.sum([p[4] for p in panels], axis=0)
        err_total = np.sum([p[3] for p in panels], axis=0) + tail + t_err
        tol = np.maximum(cfg.rel_tol * np.abs(total), cfg.abs_tol)
        if np.all(err_total <= tol):
            break
        if np.any(t_err > tol):
            pair = np.unravel_index(np.argmax(t_err - tol), t_err.shape)
            raise NonConvergence(
                f"t-rule error estimate {float(t_err[pair]):.3e} alone exceeds the tolerance "
                f"{float(tol[pair]):.3e} at inner_rule_order {order} (started at "
                f"{cfg.inner_rule_order}); start from a higher inner_rule_order",
                result=_result(batched, total, err_total, evaluations, u_max),
            )
        if splits >= cfg.max_subdivisions:
            total_max = float(np.max(np.abs(total)))
            raise NonConvergence(
                f"error estimate {float(np.max(err_total)):.3e} still above tolerance after "
                f"{splits} subdivisions (largest value {total_max:.6e})",
                result=_result(batched, total, err_total, evaluations, u_max),
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = np.where(err_total <= tol, 0.0, err_total / tol)
        pair = np.unravel_index(np.argmax(excess), excess.shape)
        worst = max(range(len(panels)), key=lambda i: panels[i][3][pair])
        lo, hi, *_ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        panels[worst:worst] = [(lo, mid, *eval_panel(lo, mid)), (mid, hi, *eval_panel(mid, hi))]
        splits += 1

    return _result(batched, total, err_total, evaluations, u_max)


def _probe_t_rule(f, u: np.ndarray, cfg: QuadratureConfig) -> Tuple[int, float, int]:
    """Choose the graded t rule's order from one probe of f at the u nodes.

    One call evaluates every bracket on the concatenated t nodes of the
    order-n and order-2n rules. rho = max |Q_n b - Q_2n b| / Q_2n |b| over
    the nodes and brackets estimates the relative error of the order-n rule.
    While rho exceeds _T_ERROR_FRACTION * rel_tol the order doubles, at most
    _T_ORDER_DOUBLINGS times; each step evaluates only the new order-2n
    rule, since the old one becomes the new order n.

    Returns the order, its rho and the number of nodes evaluated.
    """
    order = cfg.inner_rule_order
    t_lo, w_lo = _graded_t_rule(order)
    t_hi, w_hi = _graded_t_rule(2 * order)
    brackets = _bracket_list(f(u[:, None], np.concatenate((t_lo, t_hi))[None, :]))
    evaluations = u.size * (t_lo.size + t_hi.size)
    q_lo = np.stack([b[:, : t_lo.size] @ w_lo for b in brackets])
    high = [b[:, t_lo.size :] for b in brackets]
    doublings = 0
    while True:
        q_hi = np.stack([b @ w_hi for b in high])
        magnitude = np.stack([np.abs(b) @ w_hi for b in high])
        diff = np.abs(q_lo - q_hi)
        rho = float(np.max(np.divide(diff, magnitude, out=np.zeros_like(diff), where=magnitude > 0)))
        if rho <= _T_ERROR_FRACTION * cfg.rel_tol or doublings == _T_ORDER_DOUBLINGS:
            return order, rho, evaluations
        order, q_lo, doublings = 2 * order, q_hi, doublings + 1
        t_hi, w_hi = _graded_t_rule(2 * order)
        high = _bracket_list(f(u[:, None], t_hi[None, :]))
        evaluations += u.size * t_hi.size


def _split_brackets(out) -> Tuple[np.ndarray | None, list]:
    """(constant or None, position brackets) of one integrand call; a plain array is one position bracket."""
    return (out[0], list(out[1:])) if isinstance(out, tuple) else (None, [out])


def _bracket_list(out) -> list:
    """Every bracket of one integrand call, without a None constant."""
    constant, position = _split_brackets(out)
    return position if constant is None else [constant, *position]


def _unit_envelope(u: np.ndarray) -> np.ndarray:
    """Envelope of a plain integrand: one position, weight 1."""
    return np.ones((1, u.size))


def _result(batched: bool, total, err_total, evaluations: int, u_max: float) -> IntegralResult:
    if batched:
        return IntegralResult(total, err_total, evaluations, u_max)
    return IntegralResult(float(total[0, 0]), float(err_total[0, 0]), evaluations, u_max)


def integrate_fixed_grid(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    decay_scale: float,
    n_u: int = 768,
    budget: float = 60.0,
    u_min_factor: float = 1e-8,
) -> IntegralResult:
    """Brute-force fixed-grid evaluation of the same double integral.

    Trapezoid rule in log(u) on [u_min_factor, budget] / decay_scale,
    crossed with a uniform composite Simpson rule in log(t). The integral
    is evaluated on n_u log-u points against 1,024 log-t intervals, and on
    2 n_u points against 2,048 intervals; the finer value is returned and
    the difference, which refines both axes, is the reported error gauge.
    Node placement, weights and refinement are all disjoint from the
    adaptive engine, which this function cross-checks.
    """
    _check_decay_scale(decay_scale, 0.0)
    if n_u < 16:
        raise DomainError(f"n_u must be at least 16, got {n_u!r}")
    u_lo = u_min_factor / decay_scale
    u_hi = budget / decay_scale
    evaluations = 0

    def once(n: int, t_intervals: int) -> float:
        nonlocal evaluations
        t_nodes, t_weights = _log_simpson_rule(t_intervals)
        x = np.linspace(math.log(u_lo), math.log(u_hi), n)
        u = np.exp(x)
        g = np.empty(n)
        for start in range(0, n, 4096):  # chunk to bound the broadcast size
            block = u[start : start + 4096]
            g[start : start + 4096] = f(block[:, None], t_nodes[None, :]) @ t_weights
        evaluations += n * t_nodes.size
        return float(np.trapezoid(u * g, x))  # du = u dx

    coarse = once(n_u, 1024)
    fine = once(2 * n_u, 2048)
    return IntegralResult(fine, abs(fine - coarse), evaluations, u_hi)
