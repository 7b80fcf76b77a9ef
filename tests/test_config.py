import json
import math

import pytest

import polaron as pl
from polaron.cli import _artifact_header
from polaron.config import config_from_dict


class TestConfigFromDict:
    def test_defaults(self):
        assert config_from_dict({}) == {
            "grid.n": 3000, "grid.rmax": 30.0, "momentum.n": 4000, "momentum.pmax": 10.0,
            "solver.tol_psi": 1e-8, "cutoff.shape": "bump",
            "cutoff.eps_list": [0.5, 0.2, 0.1, 0.05]}

    def test_defaults_are_not_shared(self):
        # each call builds its own defaults: changing one configuration's list
        # changes no later one
        config_from_dict({})["cutoff.eps_list"].append(0.01)
        assert config_from_dict({})["cutoff.eps_list"] == [0.5, 0.2, 0.1, 0.05]

    def test_partial_override(self):
        cfg = config_from_dict({"grid.n": 500, "solver.tol_psi": 1e-9})
        assert cfg == {**config_from_dict({}), "grid.n": 500, "solver.tol_psi": 1e-9}

    @pytest.mark.parametrize("doc,field", [
        ({"grid.n": 1}, "grid.n"),
        ({"grid.n": 2.5}, "grid.n"),
        ({"grid.rmax": -1.0}, "grid.rmax"),
        # not config keys (the SCF's damping is fixed and it stops on
        # solver.tol_psi alone): refused at any value
        ({"solver.mixing": 0.5}, "solver.mixing"),
        ({"solver.tol_energy": 1e-10}, "solver.tol_energy"),
        ({"cutoff.shape": "box"}, "cutoff.shape"),
        ({"cutoff.eps_list": []}, "eps_list"),
        ({"cutoff.eps_list": [0.1, 0.1]}, "eps_list"),
        ({"cutoff.eps_list": [0.1, -0.2]}, "eps_list"),
        # not a key either: --out alone places the artifacts
        ({"output.dir": "out"}, "output.dir"),
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
        # not a key: a fixed bound on the SCF's steps decides only whether a run fails
        ({"solver.max_iter": math.nan}, "solver.max_iter"),
        # scales whose floats leave the normal range (radial step outside
        # [1e-50, 300], momentum step below 1e-50, pmax above 1e40)
        ({"grid.rmax": 1e-300}, "grid.rmax"),
        ({"grid.n": 10, "grid.rmax": 1e-50}, "grid.rmax"),
        ({"grid.n": 2, "grid.rmax": 601.0}, "grid.rmax"),
        ({"momentum.pmax": 1e300}, "momentum.pmax"),
        ({"momentum.pmax": 1e41}, "momentum.pmax"),
        ({"momentum.n": 10, "momentum.pmax": 1e-50}, "momentum.pmax"),
        # ε·pmax above 1e150, where εp or the gaussian cutoff's (εp)² overflows
        ({"cutoff.shape": "gaussian", "cutoff.eps_list": [1e200]}, "cutoff.eps_list"),
        ({"cutoff.shape": "bump", "cutoff.eps_list": [1e308, 0.5]}, "cutoff.eps_list"),
        # χ ≡ 1 is the endpoint row massbound always appends, not a shape
        ({"cutoff.shape": "one"}, "cutoff.shape"),
        ({"momentum.pmax": 1e40, "cutoff.eps_list": [1e111]}, "cutoff.eps_list"),
        # integers past the largest float: no float holds them
        ({"grid.rmax": 10**400}, "grid.rmax"),
        ({"momentum.pmax": -10**400}, "momentum.pmax"),
        ({"solver.tol_psi": 10**400}, "solver.tol_psi"),
        ({"cutoff.eps_list": [10**400]}, "cutoff.eps_list"),
        ({"cutoff.eps_list": [0.5, 10**309]}, "cutoff.eps_list"),
    ])
    def test_invalid_values_name_the_field(self, doc, field):
        with pytest.raises(pl.ConfigError) as exc_info:
            config_from_dict(doc)
        assert field in str(exc_info.value)

    @pytest.mark.parametrize("doc", [
        {"grid.n": 2, "grid.rmax": 600.0}, {"grid.n": 2, "grid.rmax": 2e-50},
        {"momentum.pmax": 1e40}, {"momentum.n": 2, "momentum.pmax": 2e-50},
    ] + [  # the README's f(ε) sweep configurations
        {"cutoff.shape": shape,
         "cutoff.eps_list": [1.0, 0.7616, 0.58, 0.4417, 0.3364, 0.2562,
                             0.1951, 0.1486, 0.1132, 0.0862, 0.06565, 0.05]}
        for shape in ("bump", "gaussian")
    ] + [  # ε·pmax at its bound, 1e150
        {"momentum.pmax": 1.0, "cutoff.eps_list": [1e150], "cutoff.shape": "gaussian"},
    ])
    def test_scale_bounds_are_inclusive_and_keep_readme_configs(self, doc):
        config_from_dict(doc)

    @pytest.mark.parametrize("key,top", [
        ("grid.n", 10**7), ("momentum.n", 10**7),
    ])
    def test_sizes_are_bounded_above(self, key, top):
        # validation only: no solve runs at these sizes
        assert config_from_dict({key: top})[key] == top
        with pytest.raises(pl.ConfigError) as exc_info:
            config_from_dict({key: top + 1})
        assert key in str(exc_info.value)

    def test_unknown_key(self):
        with pytest.raises(pl.ConfigError):
            config_from_dict({"grid.size": 100})

    def test_non_object_document(self):
        with pytest.raises(pl.ConfigError):
            config_from_dict([1, 2, 3])


class TestHeaderAndRoundTrip:
    def test_header_stable_and_sensitive(self):
        # the embedded configuration is a run's identity: equal for equal documents,
        # different when any key differs
        a = _artifact_header(config_from_dict({}))
        b = _artifact_header(config_from_dict({}))
        c = _artifact_header(config_from_dict({"grid.n": 2999}))
        assert a == b
        assert a != c

    def test_flat_dict_round_trips(self):
        cfg = config_from_dict({"grid.n": 1234, "cutoff.shape": "gaussian"})
        again = config_from_dict(json.loads(json.dumps(cfg)))
        assert again == cfg
