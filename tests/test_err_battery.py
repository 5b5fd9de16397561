"""The engine's ``err`` against the truth, at default tolerances.

Every case runs as the package runs it, one engine call for all its
positions or family members, and at a few of them ``err`` must cover the
true error. The truth comes from a closed form where one exists. Otherwise
it is the value of the engine at commit 14d20a2 (Gauss-Kronrod 7-15 panels),
at rel_tol 1e-13 and abs_tol 0, written in below. The two midgap families
ask for an err that roundoff cannot meet there: at abs_tol 0 that engine
stopped on its seed mesh, so their truth is its value at abs_tol 1e-16, the
``NonConvergence.result`` after its 2,000 panel splits.

That engine's Kronrod weights carry 15 digits, so its truths sit up to
about 3.5e-15 relative from the exact value (on the perfect-conductor
cavity against mpmath); most of the gap between the engine and these
literals is theirs. The worst true error over the battery is 0.75 err.
Where err is roundoff, about 20 ulps of the magnitude (4.4e-15 relative),
these cases show coverage only to the truths' precision: they measure
agreement with that engine, and a reordered sum could take a ratio past 1
with no real fault. Truths from a sharper oracle are still to come.

The U case at a weak Drude cavity takes its truth from mpmath's tanh-sinh
rule over log u on the package's own t-integral rows, so it checks the u
rule and its head bound alone.
"""

import numpy as np
import pytest

from casimir_fields import (
    Cavity,
    ConstantEpsilon,
    Drude,
    FieldKind,
    PerfectConductor,
    SingleInterface,
    decay_scale_for,
    integrand_function,
    integrate_semi_infinite,
    pc_cavity_b2,
    pc_cavity_e2,
    pc_single_b2,
    pc_single_e2,
)
from casimir_fields.integrand import position_envelope
from casimir_fields.quadrature import unit_envelope

CAVITY_25 = np.linspace(0.02, 0.98, 25)
WALL_16 = np.geomspace(1e-3, 5.0, 16)


def _profile(geometry, model, zs):
    """<E^2> and <B^2> at every z of zs from one batched call: value and err, each (2, len(zs))."""
    f = integrand_function(None, geometry, model)
    res = integrate_semi_infinite(f, [decay_scale_for(geometry, z) for z in zs], envelope=position_envelope(geometry, zs))
    return res.value, res.error_estimate


def _midgap(wps):
    """U at the midpoint of a unit Drude cavity for every wp*a of wps from one family call: value and err, each (1, len(wps))."""
    f = integrand_function(FieldKind.ENERGY_DENSITY, Cavity(1.0), [Drude(wp) for wp in wps], 0.5)
    res = integrate_semi_infinite(f, [1.0], envelope=unit_envelope)
    return res.value.T, res.error_estimate.T


# name: (value and err of the whole case, the columns checked, the truth there)
PINNED = {
    "drude200-cavity": (
        lambda: _profile(Cavity(1.0), Drude(200.0), np.linspace(0.02, 0.98, 101)),
        (0, 25, 50, 100),
        [
            [86185.29169715745, 4.094094735798208, 0.5938811080632475, 86185.2916971572],
            [-53662.00345892185, -3.9580584012661153, -0.6076496879255651, -53662.00345892169],
        ],
    ),
    "drude1-wall": (
        lambda: _profile(SingleInterface(), Drude(1.0), np.geomspace(1e-3, 5.0, 64)),
        (0, 21, 42, 63),
        [
            [14055843.268192893, 2774.39242422394, 0.45492123078001495, 2.3293126968919894e-05],
            [-5270.1315051313295, -17.650299680576325, -0.04468663427452227, -1.5765786167592264e-05],
        ],
    ),
    "drude1e-3-wall": (
        lambda: _profile(SingleInterface(), Drude(1e-3), WALL_16),
        (0, 5, 10, 15),
        [
            [14067.43083024633, 2.813448783927619, 0.000562561945583125, 1.120772544014619e-07],
            [-0.0052771379476853715, -1.8047170664886034e-05, -6.169782999787006e-08, -2.0969583931513663e-10],
        ],
    ),
    # at the midpoint alone the Kronrod engine's true error was 56 err on <B^2>
    "drude1e-3-midpoint": (
        lambda: _profile(Cavity(1.0), Drude(1e-3), [0.5]),
        (0,),
        [[0.00022889470277354934], [-4.219829627787286e-08]],
    ),
    "drude1e-3-cavity": (
        lambda: _profile(Cavity(1.0), Drude(1e-3), CAVITY_25),
        (0, 6, 12, 24),
        [
            [1.758422792473185, 0.0008393548997406433, 0.00022889470277354934, 1.7584227924731803],
            [-1.3198007747915117e-05, -8.767388319133324e-08, -4.2198296277872864e-08, -1.3198007747915095e-05],
        ],
    ),
    "drude1e-6-cavity": (
        lambda: _profile(Cavity(1.0), Drude(1e-6), CAVITY_25),
        (0, 6, 12, 24),
        [
            [0.0017584517993076193, 8.395476171049419e-07, 2.2898746789197658e-07, 0.0017584517993076147],
            [-1.319835684063737e-11, -8.7701108539376e-14, -4.221714109414457e-14, -1.3198356840637348e-11],
        ],
    ),
    # U at wp*a = 1e-6 (`scan --lmin`), where the head bound carries most of err
    "drude1e-6-midpoint-U": (lambda: _midgap([1e-6]), (0,), [[1.1449371283741811e-07]]),
    # decay scale 1e-6, the engine's floor
    "drude1-wall-5e-7": (lambda: _profile(SingleInterface(), Drude(1.0), [5e-7]), (0,), [[1.1253949308078322e17], [-21108565858.08085]]),
    "drude1e8-cavity": (
        lambda: _profile(Cavity(1.0), Drude(1e8), CAVITY_25),
        (0, 6, 12, 24),
        [
            [118735.69466274104, 4.218051640620352, 0.603142472315771, 118735.69466274063],
            [-118735.59542700675, -4.245466863184311, -0.6305580120230347, -118735.59542700635],
        ],
    ),
    "eps-1+1e-9-cavity": (
        lambda: _profile(Cavity(1.0), ConstantEpsilon(1.0 + 1e-9), CAVITY_25),
        (0, 6, 12, 24),
        [
            [4.551538710179652e-05, 1.6179056794698722e-09, 2.330387415358048e-10, 4.551538710179636e-05],
            [-1.3852509119413051e-05, -4.924060764140944e-10, -7.092483438928271e-11, -1.3852509119413004e-05],
        ],
    ),
    "eps-1e12-cavity": (
        lambda: _profile(Cavity(1.0), ConstantEpsilon(1e12), CAVITY_25),
        (0, 6, 12, 24),
        [
            [118735.64123169277, 4.218046642084548, 0.6031417604155113, 118735.64123169237],
            [-118732.63882662199, -4.24535349168466, -0.6305409570315943, -118732.63882662164],
        ],
    ),
    "eps4-wall": (
        lambda: _profile(SingleInterface(), ConstantEpsilon(4.0), WALL_16),
        (0, 5, 10, 15),
        [
            [8778899920.578005, 102678.63635906238, 1.2009366161976271, 1.4046239872924811e-05],
            [-3336212200.5682573, -39020.574611615055, -0.4563874092784838, -5.337939520909212e-06],
        ],
    ),
    "midgap-10-1000": (
        lambda: _midgap(np.geomspace(10.0, 1000.0, 20)),
        (0, 6, 13, 19),
        [[0.06863786667569718, 0.015055512941560456, -0.007841373399691626, -0.012311995031289089]],
    ),
    # members 10 and 11 hold the sign change, where abs_tol governs
    "midgap-95-98": (
        lambda: _midgap(np.linspace(95.0, 98.0, 20)),
        (0, 6, 10, 11, 19),
        [[0.00021813182140714894, 8.867533514685554e-05, 3.697657276050101e-06, -1.738372606530349e-05, -0.00018373326753375705]],
    ),
}


def _ratio(value, err, truth) -> float:
    """The largest true error over err."""
    return float(np.max(np.abs(value - truth) / err))


@pytest.mark.parametrize("name", PINNED)
def test_err_covers_the_pinned_truth(name):
    run, columns, truth = PINNED[name]
    value, err = run()
    columns = list(columns)
    assert _ratio(value[:, columns], err[:, columns], np.array(truth)) <= 1.0


@pytest.mark.parametrize("geometry, zs", [(Cavity(1.0), CAVITY_25), (SingleInterface(), WALL_16)], ids=("cavity", "wall"))
def test_err_covers_the_perfect_conductor_closed_forms(geometry, zs):
    value, err = _profile(geometry, PerfectConductor(), zs)
    if isinstance(geometry, Cavity):
        exact = [[pc_cavity_e2(z, 1.0) for z in zs], [pc_cavity_b2(z, 1.0) for z in zs]]
    else:
        exact = [[pc_single_e2(z) for z in zs], [pc_single_b2(z) for z in zs]]
    assert _ratio(value, err, np.array(exact)) <= 1.0


def test_err_covers_an_oscillating_integrand():
    # cos^2(5u) e^{-u}, constant in t: (1/2)(1 + 1/101). The Kronrod panels once
    # returned an error of 5.3e-8 with err 4.7e-9; on the log-u trapezoid it takes
    # the head down twice (g(0) = 1) and halves the step until the levels agree
    res = integrate_semi_infinite(lambda u, t: np.cos(5.0 * u) ** 2 * np.exp(-u) * np.ones_like(t), 1.0)
    assert abs(res.value - 0.5 * (1.0 + 1.0 / 101.0)) <= res.error_estimate
