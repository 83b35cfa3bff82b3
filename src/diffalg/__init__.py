"""Exact-arithmetic differential algebra.

Sparse rational polynomials with the total-derivative tensor, differential
polynomials with the shift derivation, truncated Hurwitz and power series,
the shuffle-algebra Rota-Baxter instance, and a seeded harness that checks
every derivation law the package relies on.

The namespace loads on first use: ``import diffalg`` imports no submodule,
and a public name or a submodule is imported when it is first looked up.
"""

__version__ = "0.1.0"

# Each submodule and the public names it defines, in the order of __all__.
_EXPORTS = {
    "diff_laws": "DiffCarrier LawReport",
    "free_diff": "DVar alpha beta d_shift d_shift_via_sharp dvar extend natural_map",
    "hurwitz": "Flavor Series SeriesOfSeries colift comul delta_eval diamond omega_eval psi "
               "psi_inv ring_eval sderive smul sunit",
    "polynomial": "LinearMap Poly Tensor coderive derive eta euler flat map_linear partial "
                  "sharp substitute unit_poly",
    "rota_baxter": "RBElem check_rota_baxter rb_D rb_D_raw rb_P rb_mul shuffle",
    "scalars": "Rational binom factorial",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "carriers", "cli", "errors", "expr", "lincomb", "rng", "suites"}

__all__ = list(_HOME)


def __getattr__(name):
    """A public name or a submodule, imported on first use and kept."""
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's machinery binds the submodule here, and
    # -X importtime reports it (importlib.import_module would not).
    __import__(f"{__name__}.{module}")
    value = globals()[module] if module == name else getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
