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
    ])
    def test_invalid_values_name_the_field(self, doc, field):
        with pytest.raises(pl.ConfigError) as exc_info:
            config_from_dict(doc)
        assert field in str(exc_info.value)

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
