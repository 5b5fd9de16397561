from types import SimpleNamespace

import numpy as np
import pytest

from casimir_fields import QuadratureConfig, analysis, quadrature


@pytest.fixture
def cfg():
    return QuadratureConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts of the engine calls the analysis drivers make and of the integrand calls within them.

    Wraps `analysis.integrate_semi_infinite` and every integrand passed to
    it: ``engine`` counts engine calls, ``integrand`` integrand calls,
    ``rows`` lists the u rows of each integrand call in order and
    ``evaluations`` sums the evaluations the engine's results report.
    """
    counts = SimpleNamespace(engine=0, integrand=0, rows=[], evaluations=0)
    integrate = analysis.integrate_semi_infinite

    def counted_integrate(f, *args, **kwargs):
        counts.engine += 1

        def counted_f(u, t):
            counts.integrand += 1
            counts.rows.append(np.shape(u)[0])
            return f(u, t)

        result = integrate(counted_f, *args, **kwargs)
        counts.evaluations += result.evaluations
        return result

    monkeypatch.setattr(analysis, "integrate_semi_infinite", counted_integrate)
    return counts


def first_rows(scales):
    """The u rows of the engine's first integrand call at these decay scales, (n,)."""
    seen = []

    def zero(u, t):
        seen.append(u[:, 0])
        return np.zeros(u.shape, quadrature.T_INTEGRAL_DTYPE)

    quadrature.integrate_semi_infinite(zero, scales, envelope=lambda u: np.ones((len(scales), u.size)))
    return seen[0]
