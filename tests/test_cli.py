import json
import os
import subprocess
import sys

import pytest

from polaron.cli import main

# fast, well-behaved configuration for CLI plumbing tests
SMALL_CONFIG = {
    "grid.n": 1000, "grid.rmax": 25.0,
    "momentum.n": 800, "momentum.pmax": 6.0,
    "cutoff.eps_list": [0.5, 0.2],
}


def write_config(path, overrides=None):
    doc = dict(SMALL_CONFIG)
    if overrides:
        doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolveCommand:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"output.dir": str(tmp_path / "out")})
        assert main(["solve", "--config", cfg]) == 0
        state_doc = json.loads((tmp_path / "out" / "pekar_state.json").read_text())
        assert set(state_doc) == {"config", "config_hash", "state"}
        st = state_doc["state"]
        for key in ("T", "D", "eP", "mu", "iterations", "residual", "grid"):
            assert key in st
        assert st["eP"] == st["T"] - st["D"]
        assert st["eP"] < 0

    def test_profiles_csv_two_tables(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"output.dir": str(tmp_path / "out")})
        main(["solve", "--config", cfg])
        text = (tmp_path / "out" / "profiles.csv").read_text()
        assert text.startswith("# config_hash=")
        assert "r,psi,rho,Phi" in text
        assert "p,psi_hat,dpsi_hat,phi" in text
        blocks = text.split("\n\n")
        assert len(blocks) == 2
        n_rows = len(blocks[0].strip().splitlines()) - 3  # hash, config, header
        assert n_rows == SMALL_CONFIG["grid.n"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
        for name in ("pekar_state.json", "profiles.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_out_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"output.dir": str(tmp_path / "ignored")})
        main(["solve", "--config", cfg, "--out", str(tmp_path / "used")])
        assert (tmp_path / "used" / "pekar_state.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_convergence_failure_exit3_with_history(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"solver.max_iter": 2,
                                                 "output.dir": str(tmp_path / "out")})
        assert main(["solve", "--config", cfg]) == 3
        history = json.loads((tmp_path / "out" / "residual_history.json").read_text())
        assert len(history["history"]) == 2


class TestConfigValidation:
    def test_invalid_field_named_in_message(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid.n": 0}))
        assert main(["solve", "--config", str(path)]) == 2
        assert "grid.n" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid.npts": 100}))
        assert main(["solve", "--config", str(path)]) == 2
        assert "grid.npts" in capsys.readouterr().err

    def test_eps_list_must_decrease(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"cutoff.eps_list": [0.1, 0.2]})
        assert main(["solve", "--config", cfg]) == 2
        assert "eps_list" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["quad.reduced_n", "quad.angular_nodes"])
    def test_removed_quadrature_keys_rejected(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "c.json", {key: 400})
        assert main(["verify", "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    def test_non_finite_number_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"cutoff.eps_list": [NaN]}')  # json accepts NaN
        assert main(["massbound", "--config", str(path)]) == 2
        assert "eps_list" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 2


class TestVerifyCommand:
    def test_default_config_all_rows_pass(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"output.dir": str(tmp_path / "out")}))
        assert main(["verify", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "verify.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[3:]]
        assert rows and all(row[-1] == "true" for row in rows)

    def test_coarse_grid_fails_with_table(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"grid.n": 100,
                                                 "output.dir": str(tmp_path / "out")})
        assert main(["verify", "--config", cfg]) == 1
        lines = (tmp_path / "out" / "verify.csv").read_text().splitlines()
        header = lines[2]
        assert header == "check_name,computed,expected,tolerance,pass"
        rows = [ln.split(",") for ln in lines[3:]]
        assert any(row[-1] == "false" for row in rows)
        names = [row[0] for row in rows]
        assert "Q1-Q2=3" in names
        q_row = rows[names.index("Q1-Q2=3")]
        assert float(q_row[2]) == 3.0


@pytest.mark.parametrize("command", ["verify", "massbound"])
def test_two_node_momentum_grid_exits_cleanly(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.json", {"momentum.n": 2,
                                             "output.dir": str(tmp_path / "out")})
    assert main([command, "--config", cfg]) in (0, 1, 3)
    assert "Traceback" not in capsys.readouterr().err


class TestMassboundCommand:
    def test_sweep_structure(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"output.dir": str(tmp_path / "out")})
        assert main(["massbound", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "massbound.csv").read_text().splitlines()
        assert lines[2] == "eps,R,Q1,Q2,f,m_lower"
        rows = [ln.split(",") for ln in lines[3:]]
        assert len(rows) == len(SMALL_CONFIG["cutoff.eps_list"]) + 1
        assert [float(r[0]) for r in rows] == SMALL_CONFIG["cutoff.eps_list"] + [0.0]


def test_thread_cap_env_var_stable(tmp_path):
    """POLARON_THREADS caps BLAS pools without changing artifact bytes."""
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(SMALL_CONFIG)))
    outputs = []
    for threads, out in (("1", "t1"), ("2", "t2")):
        env = dict(os.environ, POLARON_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "polaron", "solve", "--config", str(cfg_path),
             "--out", str(tmp_path / out)],
            check=True, env=env, capture_output=True,
        )
        outputs.append((tmp_path / out / "profiles.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_import_leaves_interpolate_and_signal_unloaded():
    """`import polaron` pulls in neither scipy.interpolate nor scipy.signal,
    which would each add most of a second to every interpreter start."""
    code = ("import sys, polaron; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.signal') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True)
    assert done.stdout.strip() == "[]"
