import importlib

import pytest

import diffalg
from cli_runner import run_child

PUBLIC_API = [
    "DiffCarrier", "LawReport", "DVar", "alpha", "beta", "d_shift",
    "d_shift_via_sharp", "dvar", "extend", "natural_map", "Flavor", "Series",
    "SeriesOfSeries", "colift", "comul", "delta_eval", "diamond", "omega_eval",
    "psi", "psi_inv", "ring_eval", "sderive", "smul", "sunit", "LinearMap",
    "Poly", "Tensor", "coderive", "derive", "eta", "euler", "flat",
    "map_linear", "partial", "sharp", "substitute", "unit_poly", "RBElem",
    "check_rota_baxter", "rb_D", "rb_D_raw", "rb_P", "rb_mul", "shuffle",
    "Rational", "binom", "factorial",
]


def test_all_is_frozen():
    assert diffalg.__all__ == PUBLIC_API


def test_every_name_resolves():
    assert [name for name in PUBLIC_API if not hasattr(diffalg, name)] == []


# Where each public name is defined; the package resolves it from there on
# first use.
HOMES = {
    "diff_laws": ["DiffCarrier", "LawReport"],
    "free_diff": ["DVar", "alpha", "beta", "d_shift", "d_shift_via_sharp", "dvar", "extend",
                  "natural_map"],
    "hurwitz": ["Flavor", "Series", "SeriesOfSeries", "colift", "comul", "delta_eval",
                "diamond", "omega_eval", "psi", "psi_inv", "ring_eval", "sderive", "smul",
                "sunit"],
    "polynomial": ["LinearMap", "Poly", "Tensor", "coderive", "derive", "eta", "euler", "flat",
                   "map_linear", "partial", "sharp", "substitute", "unit_poly"],
    "rota_baxter": ["RBElem", "check_rota_baxter", "rb_D", "rb_D_raw", "rb_P", "rb_mul",
                    "shuffle"],
    "scalars": ["Rational", "binom", "factorial"],
}


def in_child(code: str) -> str:
    """The stdout of code run in a fresh interpreter."""
    r = run_child("-c", code)
    assert r.returncode == 0, r.stderr
    return r.stdout


class TestLazyNamespace:
    def test_homes_cover_the_api(self):
        assert sorted(n for names in HOMES.values() for n in names) == sorted(PUBLIC_API)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from diffalg import *", namespace)
        assert [name for name in PUBLIC_API if name not in namespace] == []

    @pytest.mark.parametrize("module", sorted(HOMES))
    def test_names_are_the_submodule_objects(self, module):
        sub = importlib.import_module(f"diffalg.{module}")
        for name in HOMES[module]:
            assert getattr(diffalg, name) is getattr(sub, name), name
            assert vars(diffalg)[name] is getattr(sub, name), name  # resolved once, then kept

    def test_import_loads_no_submodule(self):
        code = ("import sys, diffalg; "
                "print(sorted(m for m in sys.modules if m.startswith('diffalg.')))")
        assert in_child(code) == "[]\n"

    def test_first_use_loads_only_the_home(self):
        code = ("import sys, diffalg; diffalg.shuffle; "
                "print('diffalg.rota_baxter' in sys.modules, 'diffalg.hurwitz' in sys.modules, "
                "'diffalg.diff_laws' in sys.modules)")
        assert in_child(code) == "True False False\n"

    def test_submodules_resolve_as_attributes(self):
        """As when the package imported them eagerly, a submodule is an
        attribute of the package; it is imported when first looked up."""
        code = ("import sys, diffalg; print('diffalg.hurwitz' in sys.modules, "
                "diffalg.hurwitz.smul_trunc.__module__, 'diffalg.hurwitz' in sys.modules)")
        assert in_child(code) == "False diffalg.hurwitz True\n"
        for module in ("errors", "lincomb", "literals", "rng", "expr", "carriers", "suites",
                       *HOMES):
            assert getattr(diffalg, module) is importlib.import_module(f"diffalg.{module}")

    def test_dir_covers_all_before_first_use(self):
        code = "import diffalg; print(set(diffalg.__all__) <= set(dir(diffalg)))"
        assert in_child(code) == "True\n"
        assert set(PUBLIC_API) <= set(dir(diffalg))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="module 'diffalg' has no attribute 'nope'"):
            diffalg.nope
        assert not hasattr(diffalg, "nope") and "nope" not in dir(diffalg)
        with pytest.raises(ImportError):
            exec("from diffalg import nope", {})
