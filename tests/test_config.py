import json
import math

import pytest

import polaron as pl
from polaron.config import config_from_dict


class TestConfigFromDict:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.grid_n == 3000
        assert cfg.momentum_pmax == 10.0
        assert cfg.cutoff_eps_list == [0.5, 0.2, 0.1, 0.05]

    def test_partial_override(self):
        cfg = config_from_dict({"grid.n": 500, "solver.mixing": 0.3})
        assert cfg.grid_n == 500
        assert cfg.solver_mixing == 0.3
        assert cfg.grid_rmax == 30.0

    @pytest.mark.parametrize("doc,field", [
        ({"grid.n": 1}, "grid.n"),
        ({"grid.n": 2.5}, "grid.n"),
        ({"grid.rmax": -1.0}, "grid.rmax"),
        ({"solver.mixing": 1.5}, "solver.mixing"),
        ({"solver.tol_energy": 0.0}, "solver.tol_energy"),
        ({"cutoff.shape": "box"}, "cutoff.shape"),
        ({"cutoff.eps_list": []}, "eps_list"),
        ({"cutoff.eps_list": [0.1, 0.1]}, "eps_list"),
        ({"cutoff.eps_list": [0.1, -0.2]}, "eps_list"),
        ({"output.dir": ""}, "output.dir"),
        # json accepts NaN and ±Infinity; bool is an int subclass
        ({"cutoff.eps_list": [math.nan]}, "eps_list"),
        ({"cutoff.eps_list": [0.5, math.nan]}, "eps_list"),
        ({"cutoff.eps_list": [math.inf, 0.5]}, "eps_list"),
        ({"cutoff.eps_list": [True]}, "eps_list"),
        ({"grid.rmax": math.inf}, "grid.rmax"),
        ({"grid.rmax": True}, "grid.rmax"),
        ({"momentum.pmax": math.nan}, "momentum.pmax"),
        ({"solver.tol_energy": math.inf}, "solver.tol_energy"),
        ({"solver.tol_psi": math.nan}, "solver.tol_psi"),
        ({"solver.mixing": True}, "solver.mixing"),
        ({"solver.mixing": math.nan}, "solver.mixing"),
        ({"grid.n": True}, "grid.n"),
        ({"momentum.n": math.inf}, "momentum.n"),
        ({"solver.max_iter": math.nan}, "solver.max_iter"),
        # scales whose floats leave the normal range (radial step outside
        # [1e-50, 300], momentum step below 1e-50, pmax above 1e40)
        ({"grid.rmax": 1e-300}, "grid.rmax"),
        ({"grid.n": 10, "grid.rmax": 1e-50}, "grid.rmax"),
        ({"grid.n": 2, "grid.rmax": 601.0}, "grid.rmax"),
        ({"momentum.pmax": 1e300}, "momentum.pmax"),
        ({"momentum.pmax": 1e41}, "momentum.pmax"),
        ({"momentum.n": 10, "momentum.pmax": 1e-50}, "momentum.pmax"),
    ])
    def test_invalid_values_name_the_field(self, doc, field):
        with pytest.raises(pl.ConfigError) as exc_info:
            config_from_dict(doc)
        assert field in str(exc_info.value)

    @pytest.mark.parametrize("doc", [
        {"grid.n": 2, "grid.rmax": 600.0}, {"grid.n": 2, "grid.rmax": 2e-50},
        {"momentum.pmax": 1e40}, {"momentum.n": 2, "momentum.pmax": 2e-50},
    ] + [  # the README's f(ε) sweep configurations
        {"cutoff.shape": shape, "output.dir": f"sweep_{shape}",
         "cutoff.eps_list": [1.0, 0.7616, 0.58, 0.4417, 0.3364, 0.2562,
                             0.1951, 0.1486, 0.1132, 0.0862, 0.06565, 0.05]}
        for shape in ("bump", "gaussian")
    ])
    def test_scale_bounds_are_inclusive_and_keep_readme_configs(self, doc):
        config_from_dict(doc)

    def test_unknown_key(self):
        with pytest.raises(pl.ConfigError):
            config_from_dict({"grid.size": 100})

    def test_non_object_document(self):
        with pytest.raises(pl.ConfigError):
            config_from_dict([1, 2, 3])


class TestHashAndRoundTrip:
    def test_hash_stable_and_sensitive(self):
        a = config_from_dict({})
        b = config_from_dict({})
        c = config_from_dict({"grid.n": 2999})
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_flat_dict_round_trips(self):
        cfg = config_from_dict({"grid.n": 1234, "cutoff.shape": "gaussian"})
        again = config_from_dict(json.loads(json.dumps(cfg.to_flat_dict())))
        assert again == cfg
