import diffalg

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
