"""The shipped differential-algebra carriers for the law harness, plus the
deliberately broken ones used as negative controls.

Carrier elements are drawn with the harness-wide bounds: polynomials with
at most 4 variables, degree at most 4, coefficients with |numerator| <= 9
and denominator <= 4; series with random rational entries up to the
truncation order.  Series carriers install window-restricted equality and
window-truncating multiplication, because each derivation application
costs one order of precision.
"""

from __future__ import annotations

from dataclasses import replace

from . import hurwitz as hz
from . import rota_baxter as rb
from .diff_laws import (COEFF_DEN, DiffCarrier, pick, random_fraction, random_numerator,
                        sample_poly)
from .free_diff import DVar, d_shift
from .polynomial import LinearMap, Poly, sharp, sum_products
from .rng import SplitMix64

POLY_POOL = ("w", "x", "y", "z")


def random_poly(rng: SplitMix64, size: int = 4, pool=POLY_POOL, max_degree: int = 4) -> Poly:
    """Random polynomial: up to ``size`` terms of degree <= max_degree."""
    return sample_poly(rng, pick(pool), size, max_degree)


def random_diffpoly(rng: SplitMix64, size: int = 4, bases=("x", "y"),
                    max_order: int = 2, max_degree: int = 4) -> Poly:
    """Random differential polynomial over derivative variables of bounded
    order."""
    return sample_poly(rng, lambda r: DVar(r.choice(bases), r.randint(0, max_order)),
                       size, max_degree)


def random_series(rng: SplitMix64, order: int, flavor: hz.Flavor) -> hz.Series:
    return hz.Series._reduced([random_numerator(rng) for _ in range(order + 1)], COEFF_DEN, flavor)


def _poly_carrier(name: str, d, sample) -> DiffCarrier:
    return DiffCarrier(
        name=name,
        zero=Poly.zero(),
        one=Poly.one(),
        d=d,
        sample=sample,
        sample_kernel=lambda rng, size: Poly.const(random_fraction(rng)),
        sum_products=sum_products,
        sum_hurwitz=lambda pairs, order: hz._convolution(pairs, order, hz.Flavor.HURWITZ),
    )


def poly_sharp_carrier() -> DiffCarrier:
    """Plain polynomials with the derivation induced by the cyclic linear
    variable map w -> x -> y -> z -> w."""
    cycle = LinearMap({
        "w": Poly.variable("x"),
        "x": Poly.variable("y"),
        "y": Poly.variable("z"),
        "z": Poly.variable("w"),
    })
    return _poly_carrier("poly_sharp", lambda p: sharp(cycle, p), random_poly)


def diffpoly_carrier() -> DiffCarrier:
    """Differential polynomials with the shift derivation."""
    return _poly_carrier("diffpoly", d_shift, random_diffpoly)


def _series_carrier(name: str, flavor: hz.Flavor, order: int) -> DiffCarrier:
    def kernel(rng, size):
        return hz.Series._reduced([random_numerator(rng)] + [0] * order, COEFF_DEN, flavor)

    return DiffCarrier(
        name=name,
        zero=0 * hz.sunit(order, flavor),
        one=hz.sunit(order, flavor),
        mul=hz.smul_trunc,
        d=hz.sderive,
        sample=lambda rng, size: random_series(rng, order, flavor),
        eq=lambda a, b: a.window_eq(b),
        sample_kernel=kernel,
        sum_products=hz.sum_smul,
    )


def hurwitz_carrier(order: int = 8) -> DiffCarrier:
    """Truncated Hurwitz series over the rationals, derivation = shift."""
    return _series_carrier("hurwitz", hz.Flavor.HURWITZ, order)


def power_carrier(order: int = 8) -> DiffCarrier:
    """Truncated power series over the rationals, derivation = scaled
    shift."""
    return _series_carrier("power", hz.Flavor.POWER, order)


def rota_baxter_carrier() -> DiffCarrier:
    """The shuffle-algebra carrier with the tail derivation."""

    def kernel(rng, size):
        elem = rb.random_rbelem(rng)
        return rb.rb_P(elem)  # images of P have constant tail, so D kills them

    return DiffCarrier(
        name="rota_baxter",
        zero=rb.RBElem.zero(),
        one=rb.RBElem.one(),
        d=rb.rb_D,
        sample=lambda rng, size: rb.random_rbelem(rng),
        sample_kernel=kernel,
    )


# -- negative controls ------------------------------------------------------


def broken_identity_carrier() -> DiffCarrier:
    """D = identity: violates the constant rule (D(1) = 1)."""
    return replace(poly_sharp_carrier(), name="broken_identity", d=lambda p: p,
                   sample_kernel=None)


def broken_squaring_carrier() -> DiffCarrier:
    """D(p) = p·p: violates the Leibniz rule."""
    return replace(poly_sharp_carrier(), name="broken_squaring", d=lambda p: p * p,
                   sample_kernel=None)


def broken_unscaled_shift_carrier(order: int = 8) -> DiffCarrier:
    """Power-flavored series with the plain (Hurwitz-style) shift: the
    shift is a derivation for the binomial product but not for the Cauchy
    product, so Leibniz fails."""
    return replace(power_carrier(order), name="broken_unscaled_shift",
                   d=lambda s: hz.Series(s.coeffs[1:], s.flavor), sample_kernel=None)


def shipped_carriers(order: int = 8) -> tuple[DiffCarrier, ...]:
    return (
        poly_sharp_carrier(),
        diffpoly_carrier(),
        hurwitz_carrier(order),
        power_carrier(order),
        rota_baxter_carrier(),
    )


def broken_carriers() -> tuple[DiffCarrier, ...]:
    return (
        broken_identity_carrier(),
        broken_squaring_carrier(),
        broken_unscaled_shift_carrier(),
    )
