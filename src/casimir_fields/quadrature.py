"""Semi-infinite double quadrature tuned to exponentially damped integrands.

The integrands handled here live on u in [0, inf) times t in [0, 1], decay
like exp(-u * decay_scale) in u, and are smooth in t except for a possible
spike at t = 0 whose width shrinks like 1/u. The engine integrates the
u axis adaptively with a Gauss-Kronrod 7-15 pair on panels of [0, u_max],
u_max = tail_exponent_budget / decay_scale, and applies a fixed composite
Gauss-Legendre rule on a geometrically graded t mesh at every u node, so
the t spike stays resolved at every scale without 2-D adaptivity.

The order and the depth of that t rule are measured, not assumed. A probe
compares every bracket on the order-n rule with the order-2n rule at full
depth; their largest relative difference rho estimates the order-n rule's
error. Its first stage evaluates the order-n rule at every depth, but only
at u_max and the two highest seed panel centres, where the spike is
narrowest: these rows pick the order (it doubles from ``inner_rule_order``
while rho at full depth exceeds a tenth of ``rel_tol``) and then the depth
(the fewest graded levels whose rho is within that bound). Its second stage
checks the chosen rule at the other seed centres and deepens it if one of
them exceeds the bound. Order and depth follow the largest rho over every
bracket. Each field then keeps its own rho: the chosen rule's over every
probed row and over that field's brackets only. That rho, times the panels'
Kronrod sum of the t integrals of the field's bracket magnitudes, is the
field's t-rule part of the error estimate, beside the u-panel Kronrod part
and the tail bound. The seed panels and the tail node are then evaluated in
one integrand call, and each probe stage in one, each split only where it
would exceed a fixed node cap.

What does not depend on the integrand is built once and kept read-only:
the graded t rules per order and depth; the probe's t grids (the order-n
nodes followed by the order-2n reference nodes) per order and depth; the
seed mesh (edges, probe rows, Kronrod nodes with the tail node, half
widths) per truncation point and seed depth; and the tail bound's factor
per truncation point and scales. The last three sit in small bounded
caches, so a run of integrals with one decay scale builds its mesh once.

In batched form one call integrates constant(u, t) +
envelope_j(u) * position_k(u, t) for every position j and field k: the
brackets are evaluated and t-reduced once per u node, and each position
is a weighted sum of the reduced values. Every (position, field) pair
keeps its own Kronrod error, tail bound, t-rule term and tolerance test on
the shared panels. A family ``(None, f_1, ..., f_K)`` under `unit_envelope`
is the same form with one position: K integrands sharing one decay scale
go through one probe, one t rule and one u mesh, which is how a midgap
scan integrates `family_size` values of wp*a per call. The most demanding
member sets the rule, but each member's t-rule term keeps the rho of its
own bracket, so that member's rho does not raise the others' terms.

`integrate_fixed_grid` is a deliberately independent brute-force evaluator
(log-u trapezoid against a log-t Simpson rule) used as an oracle for the
adaptive engine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DivergesAtBoundary, DomainError, InvalidDecayScale, NonConvergence, is_finite_real, is_integer

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "integrate_semi_infinite",
    "integrate_fixed_grid",
    "family_size",
    "unit_envelope",
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
# below the truncation point, down to u_max / 2^8, before adaptive refinement
# starts. 16 splits left the midgap values within 1e-15 relative of these on
# nearly twice the seed nodes; 4 saved nodes but brought back panel splits,
# one integrand call each, and ran slower (2-vCPU x86 host, numpy 2.4).
_SEED_SPLITS = 8

_T_RULE_RATIO = 8.0
# Maximum depth of the graded t mesh: levels [8^-k-1, 8^-k] for k below the
# depth, above one bottom panel [0, 8^-depth]. The probe picks the shallowest
# depth that meets the t error budget; the narrowest spike an accepted decay
# scale produces needs 9 levels.
_T_RULE_LEVELS = 16
# The t rule's order doubles while the probe's relative t error exceeds
# _T_ERROR_FRACTION * rel_tol, at most _T_ORDER_DOUBLINGS times, so the
# t-rule part takes a small share of the error budget.
_T_ERROR_FRACTION = 0.1
_T_ORDER_DOUBLINGS = 3
# The probe's first stage measures every depth on this many of the largest u
# rows (u_max and the highest seed centres), where the t spike is narrowest.
_PROBE_TOP_ROWS = 3

# Largest (u, t) grid of one integrand call. Each probe stage calls f on
# whole u rows within it; panel evaluation on whole panels whose u nodes
# times the larger of the t nodes and 2 x positions (the envelope step's
# values per u node for two fields) stay within it. It bounds the
# temporaries of a seed mesh evaluated at once, which peak at about 43 B
# per node in the cavity bracket form (tracemalloc); the CLI's scan and
# profiles also ran fastest at this cap among 8,192 to 65,536 (2-vCPU x86
# host, numpy 2.4).
_NODE_CAP = 16_384
# Largest (u, t) grid of one integrand call in `integrate_fixed_grid`: its
# finer grid, 1,536 log-u rows by 2,049 log-t nodes, takes two calls. In the
# bracket form the cavity integrand then peaks at about the memory that one
# call on the whole plain grid took (tracemalloc).
_ORACLE_NODE_CAP = 2**21


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
        A probe at u_max and the highest seed panel centres compares this
        order with its double at full depth; while their relative difference
        exceeds rel_tol / 10 the order doubles, at most three times. The
        probe then takes the fewest graded levels whose difference from the
        double is within that bound, deepens them if the other seed centres
        need it, and the difference of the rule finally used enters the
        error estimate.
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
        if not (is_finite_real(self.rel_tol) and self.rel_tol > 0):
            raise DomainError(f"rel_tol must be a positive finite number, got {self.rel_tol!r}")
        if not (is_finite_real(self.abs_tol) and self.abs_tol >= 0):
            raise DomainError(f"abs_tol must be a nonnegative finite number, got {self.abs_tol!r}")
        if not (is_finite_real(self.tail_exponent_budget) and self.tail_exponent_budget >= 30):
            raise DomainError(f"tail_exponent_budget must be finite and at least 30, got {self.tail_exponent_budget!r}")
        if not (is_integer(self.max_subdivisions) and self.max_subdivisions >= 10):
            raise DomainError(f"max_subdivisions must be an integer of at least 10, got {self.max_subdivisions!r}")
        if not (is_integer(self.inner_rule_order) and self.inner_rule_order >= 2):
            raise DomainError(f"inner_rule_order must be an integer of at least 2, got {self.inner_rule_order!r}")
        if not (is_finite_real(self.decay_scale_floor) and self.decay_scale_floor > 0):
            raise DomainError(f"decay_scale_floor must be a positive finite number, got {self.decay_scale_floor!r}")


@dataclass(frozen=True)
class IntegralResult:
    """Value, error estimate, work count and truncation point of one integral.

    A batched call returns one result whose value and error_estimate are
    arrays of shape (fields, positions). ``t_order`` and ``t_levels`` are the
    order and the depth of the graded t rule the probe chose; they are None
    for `integrate_fixed_grid`, whose t rule is fixed.
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    truncation_u: float
    t_order: int | None = None
    t_levels: int | None = None


@functools.cache
def _leggauss(order: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


@functools.cache
def _graded_t_rule(order: int, levels: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1]: panels [8^-k-1, 8^-k] for k < levels, then [0, 8^-levels].

    The nodes run from the top panel down, so a shallower rule shares its
    graded levels' nodes with every deeper one.
    """
    x, w = _leggauss(order)
    hi = _T_RULE_RATIO ** -np.arange(levels + 1.0)
    lo = np.append(hi[1:], 0.0)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    rule = ((mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel())
    for array in rule:
        array.setflags(write=False)
    return rule


@functools.cache
def _depth_rules(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """The order-n graded rule at every depth, as shared nodes and one weight column per depth.

    The nodes are those of the full-depth rule followed by the bottom panels
    [0, 8^-L] of the shallower rules, L = 1 .. _T_RULE_LEVELS - 1; column
    L - 1 of the weights is the depth-L rule on them, so one product with
    the weights gives the t integral at every depth.
    """
    full_nodes, full_weights = _graded_t_rule(order, _T_RULE_LEVELS)
    nodes = [full_nodes]
    weights = np.zeros((full_nodes.size + (_T_RULE_LEVELS - 1) * order, _T_RULE_LEVELS))
    weights[: full_nodes.size, -1] = full_weights
    for levels in range(1, _T_RULE_LEVELS):
        t, w = _graded_t_rule(order, levels)
        nodes.append(t[-order:])
        bottom = full_nodes.size + (levels - 1) * order
        weights[: levels * order, levels - 1] = w[:-order]
        weights[bottom : bottom + order, levels - 1] = w[-order:]
    rule = (np.concatenate(nodes), weights)
    for array in rule:
        array.setflags(write=False)
    return rule


@functools.lru_cache(maxsize=32)
def _probe_grid(order: int, levels: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t row (1, m) of one probe call, the order-n weight columns and the order-2n weights.

    The row holds the order-n rule's nodes, then those of the order-2n rule
    at full depth. levels 0 selects the order-n rule at every depth
    (`_depth_rules`), one weight column per depth; otherwise the one column
    of the rule with that many levels.
    """
    t_rule, w_rule = _depth_rules(order) if levels == 0 else _graded_t_rule(order, levels)
    t_hi, w_hi = _graded_t_rule(2 * order, _T_RULE_LEVELS)
    t = np.concatenate((t_rule, t_hi))[None, :]
    t.setflags(write=False)
    return t, w_rule.reshape(w_rule.shape[0], -1), w_hi


@functools.lru_cache(maxsize=16)
def _seed_mesh(u_max: float, levels: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The seed mesh of [0, u_max]: edges, probe rows, Kronrod nodes and half widths.

    The edges are 0 and u_max 2^-j for j = levels .. 0. The probe rows are
    the panel centres, then u_max; the Kronrod nodes are the panels' 15
    nodes, panel by panel, then the tail node u_max.
    """
    edges = np.array([0.0] + [u_max * 2.0**-j for j in range(levels, 0, -1)] + [u_max])
    nodes, half = _kronrod_nodes(edges[:-1], edges[1:])
    mesh = (edges, np.append(0.5 * (edges[:-1] + edges[1:]), u_max), np.append(nodes, u_max), half)
    for array in mesh:
        array.setflags(write=False)
    return mesh


@functools.lru_cache(maxsize=16)
def _tail_factor(u_max: float, scales: tuple) -> np.ndarray:
    """1 + 3/b + 6/b^2 + 6/b^3 of the tail bound per position, b = u_max * scale."""
    budget = u_max * np.array(scales)
    factor = 1.0 + 3.0 / budget + 6.0 / budget**2 + 6.0 / budget**3
    factor.setflags(write=False)
    return factor


def _kronrod_nodes(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 15 Kronrod nodes of each panel [lo, hi], panel by panel, and the panels' half widths."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * _XK15).ravel(), half


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
        term, whose rho is each field's own (over the constant and that
        field's position bracket). ``evaluations`` includes the probe's
        nodes, and ``t_order`` and ``t_levels`` record the t rule the probe
        chose. In batched form value and error_estimate have shape
        (K, positions) and every position is integrated up to the u_max of
        the slowest decay.

    Raises
    ------
    InvalidDecayScale
        If a decay scale is not a positive finite number.
    DivergesAtBoundary
        If a decay scale is below the configured floor.
    NonConvergence
        If the subdivision budget is exhausted first, or at once if the
        t-rule term or the tail bound alone exceeds the tolerance, since
        splitting panels reduces neither; the best estimate rides on the
        exception as ``result``.

    Notes
    -----
    The seed panels form one ratio-2 geometric mesh from u_max down to
    2**-8 of the smallest truncation point of any position, so each
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
    envelope = envelope if batched else unit_envelope
    u_max = cfg.tail_exponent_budget / float(scales.min())
    levels = _SEED_SPLITS + max(0, math.ceil(math.log2(scales.max() / scales.min())))
    edges, probe_u, seed_u, seed_half = _seed_mesh(u_max, levels)
    order, t_levels, rho, evaluations = _probe_t_rule(f, probe_u, cfg)
    t_nodes, t_weights = _graded_t_rule(order, t_levels)
    t_row = t_nodes[None, :]
    panels_per_call = max(1, _NODE_CAP // max(t_nodes.size, 2 * scales.size) // 15)

    def reduced_brackets(u: np.ndarray):
        """t integrals of the constant and the (K, n) position brackets at the u nodes, then of their magnitudes."""
        nonlocal evaluations
        out = f(u[:, None], t_row)
        evaluations += u.size * t_nodes.size
        if isinstance(out, tuple):
            constant, brackets = out[0], np.stack(_bracket_list(out))
        else:
            constant, brackets = None, out[None]
        signed, magnitude = brackets @ t_weights, np.abs(brackets) @ t_weights
        if constant is None:
            return 0.0, signed, 0.0, magnitude
        return signed[0], signed[1:], magnitude[0], magnitude[1:]

    def eval_panels(u: np.ndarray, half: np.ndarray, with_tail: bool = False):
        """Kronrod value, |Kronrod - Gauss| and Kronrod sum of the t integral of |C| + e|P| on each panel.

        u holds the 15 Kronrod nodes of each panel, panel by panel, then the
        node u_max if ``with_tail``; half holds the panels' half widths. Each
        result is (panels, fields, positions). Whole panels share one f call
        up to the node cap, and the last call takes the tail node; with
        ``with_tail`` the t-integrated magnitude there, (fields, positions),
        is returned fourth.
        """
        panels = half.size
        kg = magnitude = None
        for start in range(0, panels, panels_per_call):
            stop = min(start + panels_per_call, panels)
            chunk = u[15 * start : 15 * stop + (with_tail and stop == panels)]
            constant, position, constant_abs, position_abs = reduced_brackets(chunk)
            weights = envelope(chunk)[None, :, :]  # (1, positions, n)
            values = constant + weights * position[:, None, :]
            magnitudes = constant_abs + weights * position_abs[:, None, :]
            if kg is None:
                kg, magnitude = np.empty(values.shape[:2] + (panels, 2)), np.empty(values.shape[:2] + (panels,))
            shape, n = values.shape[:2] + (stop - start, 15), (stop - start) * 15
            np.multiply(values[..., :n].reshape(shape) @ _KG_WEIGHTS, half[start:stop, None], out=kg[:, :, start:stop])
            np.multiply(magnitudes[..., :n].reshape(shape) @ _KG_WEIGHTS[:, 0], half[start:stop], out=magnitude[:, :, start:stop])
        kg = kg.transpose(2, 0, 1, 3)
        return kg[..., 0], np.abs(kg[..., 0] - kg[..., 1]), magnitude.transpose(2, 0, 1), magnitudes[..., -1] if with_tail else None

    # panel_value, panel_err, panel_magnitude: (panels, fields, positions), panels sorted by lo
    panel_value, panel_err, panel_magnitude, g_tail = eval_panels(seed_u, seed_half, with_tail=True)

    # Tail bound: the t-integrated magnitude at the truncation point, carried
    # forward under |g(u)| <= C u^3 exp(-u s) with a factor-2 safety margin.
    # |constant + e * position| <= |constant| + e |position| bounds it per position.
    tail = 2.0 * g_tail * _tail_factor(u_max, tuple(scales.tolist())) / scales

    def unreducible(part, what: str, hint: str) -> NonConvergence:
        # splitting panels reduces neither the t-rule term nor the tail bound
        pair = np.unravel_index(np.argmax(part - tol), part.shape)
        return NonConvergence(
            f"{what} {float(part[pair]):.3e} alone exceeds the tolerance {float(tol[pair]):.3e} {hint}",
            result=_result(batched, total, err_total, evaluations, u_max, order, t_levels),
        )

    splits = 0
    while True:
        total = panel_value.sum(axis=0)
        # The t rule's error at a u node is estimated as the field's rho times
        # the t integral of |C| + e|P|, the quantity rho is measured against;
        # a plain integrand that changes sign in t is covered too.
        t_err = rho[:, None] * panel_magnitude.sum(axis=0)
        err_total = panel_err.sum(axis=0) + tail + t_err
        tol = np.maximum(cfg.rel_tol * np.abs(total), cfg.abs_tol)
        if (err_total <= tol).all():
            break
        if (t_err > tol).any():
            raise unreducible(
                t_err,
                "t-rule error estimate",
                f"at inner_rule_order {order} with {t_levels} levels (started at {cfg.inner_rule_order}); "
                "start from a higher inner_rule_order",
            )
        if (tail > tol).any():
            raise unreducible(
                tail,
                "tail bound",
                f"at tail_exponent_budget {cfg.tail_exponent_budget!r}; use a larger tail_exponent_budget",
            )
        if splits >= cfg.max_subdivisions:
            total_max = float(np.max(np.abs(total)))
            raise NonConvergence(
                f"error estimate {float(np.max(err_total)):.3e} still above tolerance after "
                f"{splits} subdivisions (largest value {total_max:.6e})",
                result=_result(batched, total, err_total, evaluations, u_max, order, t_levels),
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = np.where(err_total <= tol, 0.0, err_total / tol)
        pair = np.unravel_index(np.argmax(excess), excess.shape)
        worst = int(np.argmax(panel_err[(slice(None), *pair)]))
        lo, hi = edges[worst], edges[worst + 1]
        mid = 0.5 * (lo + hi)
        *halves, _ = eval_panels(*_kronrod_nodes(np.array([lo, mid]), np.array([mid, hi])))
        edges = np.insert(edges, worst + 1, mid)
        panel_value, panel_err, panel_magnitude = (
            np.concatenate((old[:worst], new, old[worst + 1 :]))
            for old, new in zip((panel_value, panel_err, panel_magnitude), halves)
        )
        splits += 1

    return _result(batched, total, err_total, evaluations, u_max, order, t_levels)


def _probe_t_rule(f, u: np.ndarray, cfg: QuadratureConfig) -> Tuple[int, int, np.ndarray, int]:
    """Choose the graded t rule's order and depth from a two-stage probe of f at the ascending u nodes.

    rho_L = max |Q_n,L b - Q_2n b| / Q_2n |b| over u rows and brackets
    estimates the relative error of the order-n rule with L graded levels
    against the order-2n rule at full depth. Stage 1 measures rho_L at every
    depth (`_depth_rules`) on the _PROBE_TOP_ROWS largest u only, where the
    t spike is narrowest. While rho at full depth exceeds _T_ERROR_FRACTION
    * rel_tol the order doubles and stage 1 is repeated, at most
    _T_ORDER_DOUBLINGS times; the depth is then the fewest levels whose
    rho_L is within that bound, or full depth if none is. Stage 2 measures
    the other rows at the chosen rule only; if one of them exceeds the
    bound, they are probed again on the order-n rule at every depth, against
    the order-2n sums kept from the first call, and the depth becomes the
    fewest levels within the bound on every row. Order and depth are chosen
    on the largest rho over every bracket, so a family of integrands shares
    the rule its most demanding member needs; the rho returned is one per
    field (`_field_rho`), each the maximum over every row at the chosen
    rule.

    Returns the order, the depth, its rho per field and the number of nodes
    evaluated.
    """
    threshold = _T_ERROR_FRACTION * cfg.rel_tol
    column = u[:, None]
    top, rest = column[-_PROBE_TOP_ROWS:], column[:-_PROBE_TOP_ROWS]
    evaluations = 0
    for doublings in range(_T_ORDER_DOUBLINGS + 1):
        order = cfg.inner_rule_order * 2**doublings
        t, w_depths, w_hi = _probe_grid(order, 0)
        rho, _, nodes = _rule_errors(f, _row_chunks(top, t.size), t, w_depths, w_hi)
        evaluations += nodes
        if rho[:, -1].max() <= threshold:
            break
    levels = _fewest_levels(rho, threshold)
    t, w_rule, w_hi = _probe_grid(order, levels)
    rows = _row_chunks(rest, t.size)
    rho_rest, sums, nodes = _rule_errors(f, rows, t, w_rule, w_hi)
    evaluations += nodes
    if rho_rest.max() <= threshold:
        return order, levels, np.maximum(rho[:, levels - 1], rho_rest[:, 0]), evaluations
    t_depths, w_depths = _depth_rules(order)
    rho_rest, _, nodes = _rule_errors(f, rows, t_depths[None, :], w_depths, sums=sums)
    evaluations += nodes
    rho = np.maximum(rho, rho_rest)
    levels = _fewest_levels(rho, threshold)
    return order, levels, rho[:, levels - 1], evaluations


def _fewest_levels(rho: np.ndarray, threshold: float) -> int:
    """The fewest graded levels whose rho (fields, depths) is within threshold on every field, or full depth if none is."""
    qualified = rho.max(axis=0) <= threshold
    return int(qualified.argmax()) + 1 if qualified.any() else _T_RULE_LEVELS


def _row_chunks(u: np.ndarray, width: int):
    """The u rows (n, 1) in as few equal calls of whole rows as keep each within _NODE_CAP nodes of width t nodes."""
    calls = min(u.shape[0], -(-u.shape[0] * width // _NODE_CAP))
    return (u,) if calls == 1 else np.array_split(u, calls)


def _rule_errors(f, rows, t: np.ndarray, w_rule: np.ndarray, w_hi: np.ndarray | None = None, sums: list | None = None):
    """rho (fields, columns) of every weight column of the order-n rule over the u rows, the order-2n sums, and the nodes evaluated.

    f is called once per chunk of rows on the t row (1, m): the rule's
    nodes, then those of the order-2n rule at full depth, whose weights are
    w_hi. Given the ``sums`` an earlier call on the same chunks returned, t
    holds the rule's nodes alone and those sums are the reference. The sums
    are (Q_2n b, Q_2n |b|) per chunk, for every bracket at once.
    """
    rule_nodes = w_rule.shape[0]
    reference = iter(sums) if sums is not None else None
    rho, kept = None, []
    for chunk in rows:
        out = f(chunk, t)
        brackets = np.stack(_bracket_list(out))
        pair = next(reference) if reference is not None else _reference_sums(brackets[..., rule_nodes:], w_hi)
        kept.append(pair)
        errors = _field_rho(out, _depth_errors(brackets, w_rule, sums=pair))
        rho = errors if rho is None else np.maximum(rho, errors)
    return rho, kept, sum(chunk.shape[0] for chunk in rows) * t.size


def _field_rho(out, rho: np.ndarray) -> np.ndarray:
    """rho per field from rho per bracket of one integrand call: field k's brackets are the constant, if any, and its own."""
    if isinstance(out, tuple) and out[0] is not None:
        return np.maximum(rho[0], rho[1:])
    return rho


def _reference_sums(high: np.ndarray, w_hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(Q_2n b, Q_2n |b|) per u row, as columns, of brackets (..., n, m) on the order-2n rule's nodes."""
    return (high @ w_hi)[..., None], (np.abs(high) @ w_hi)[..., None]


def _depth_errors(brackets: np.ndarray, w_rule: np.ndarray, w_hi: np.ndarray | None = None, sums=None) -> np.ndarray:
    """max over u of |Q b - Q_2n b| / Q_2n |b| for every weight column Q of w_rule: (..., columns) of brackets (..., n, m).

    A bracket holds the rule's nodes, then the order-2n ones, unless the
    order-2n ``sums`` of `_reference_sums` are given.
    """
    rule_nodes = w_rule.shape[0]
    q_hi, magnitude = _reference_sums(brackets[..., rule_nodes:], w_hi) if sums is None else sums
    diff = np.abs(brackets[..., :rule_nodes] @ w_rule - q_hi)
    return np.divide(diff, magnitude, out=np.zeros(diff.shape), where=magnitude > 0).max(axis=-2)


def _bracket_list(out) -> list:
    """Every bracket of one integrand call, without a None constant; a plain array is one bracket."""
    if not isinstance(out, tuple):
        return [out]
    return list(out[1:]) if out[0] is None else list(out)


def unit_envelope(u: np.ndarray) -> np.ndarray:
    """Envelope of a plain integrand, and of a family ``(None, f_1, ..., f_K)``: one position, weight 1."""
    return np.ones((1, u.size))


def family_size(cfg: QuadratureConfig | None = None) -> int:
    """Members per family call: as many as keep the probe's first-stage call within _NODE_CAP nodes.

    That call evaluates _PROBE_TOP_ROWS u rows on the order-n rule at every
    depth and the order-2n reference, at ``cfg.inner_rule_order`` (3 rows x
    1,056 t nodes at order 16, so 5 members), and each member multiplies
    the integrand's temporaries.
    """
    cfg = cfg or QuadratureConfig()
    return max(1, _NODE_CAP // (_PROBE_TOP_ROWS * _probe_grid(cfg.inner_rule_order, 0)[0].size))


def _result(batched: bool, total, err_total, evaluations: int, u_max: float, order: int, levels: int) -> IntegralResult:
    if batched:
        return IntegralResult(total, err_total, evaluations, u_max, order, levels)
    return IntegralResult(float(total[0, 0]), float(err_total[0, 0]), evaluations, u_max, order, levels)


def integrate_fixed_grid(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple],
    decay_scale: float,
    n_u: int = 768,
    budget: float = 60.0,
    u_min_factor: float = 1e-8,
    envelope: Callable[[np.ndarray], np.ndarray] | None = None,
) -> IntegralResult:
    """Brute-force fixed-grid evaluation of the same double integral.

    Trapezoid rule in log(u) on [u_min_factor, budget] / decay_scale,
    crossed with a uniform composite Simpson rule in log(t). The integral
    is evaluated on n_u log-u points against 1,024 log-t intervals, and on
    2 n_u points against 2,048 intervals; the finer value is returned and
    the difference, which refines both axes, is the reported error gauge.
    Node placement, weights and refinement are all disjoint from the
    adaptive engine, which this function cross-checks. f is called on
    whole log-u rows, at most _ORACLE_NODE_CAP nodes at a time.

    With ``envelope`` f is in the batched form of `integrate_semi_infinite`
    and field k at position j integrates ``constant + envelope(u)[j] *
    position_k``; value and error_estimate are then (fields, positions)
    arrays, every position on the u range of the one decay_scale.
    """
    _check_decay_scale(decay_scale, 0.0)
    if n_u < 16:
        raise DomainError(f"n_u must be at least 16, got {n_u!r}")
    batched = envelope is not None
    envelope = envelope if batched else unit_envelope
    u_lo = u_min_factor / decay_scale
    u_hi = budget / decay_scale
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
