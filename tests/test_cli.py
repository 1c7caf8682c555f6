import json
import subprocess
import sys

import numpy as np
import pytest

from uniprobe.families import UnitaryEnsemble, v_family


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "uniprobe", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def write_pair_file(tmp_path, u1, u2, name="pair.json"):
    ens = UnitaryEnsemble(unitaries=[u1, u2], priors=np.array([0.5, 0.5]), dim=u1.shape[0])
    path = tmp_path / name
    path.write_text(json.dumps(ens.to_json()))
    return str(path)


class TestPairwise:
    def test_swapped_builtin(self):
        r = run_cli("pairwise", "--builtin", "swapped:3")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["dMaxEnt"] == pytest.approx(0.9714, abs=1e-3)
        assert payload["dProduct"] == pytest.approx(1.0, abs=1e-9)
        assert payload["nmeAdvantage"] is True

    def test_identical_pair_file(self, tmp_path):
        path = write_pair_file(tmp_path, np.eye(3, dtype=complex), np.eye(3, dtype=complex))
        r = run_cli("pairwise", "--input", path)
        payload = json.loads(r.stdout)
        assert payload["dProduct"] == pytest.approx(0.5)
        assert payload["dMaxEnt"] == pytest.approx(0.5)

    def test_ttrio_first_pair(self):
        r = run_cli("pairwise", "--builtin", "ttrio")
        payload = json.loads(r.stdout)
        assert payload["dProduct"] == pytest.approx(1.0, abs=1e-9)
        assert payload["r2"] == pytest.approx(0.0, abs=1e-9)

    def test_wrong_size_exits_2(self):
        r = run_cli("pairwise", "--builtin", "v:3")
        assert r.returncode == 2
        assert "exactly 2" in r.stderr

    def test_csv_matches_json_to_printed_precision(self):
        rj = run_cli("pairwise", "--builtin", "swapped:3")
        rc = run_cli("pairwise", "--builtin", "swapped:3", "--format", "csv")
        payload = json.loads(rj.stdout)
        rows = dict(
            line.split(",", 1) for line in rc.stdout.strip().splitlines()[1:]
        )
        for key in ("dProduct", "dMaxEnt", "r1", "r2"):
            assert float(rows[key]) == pytest.approx(payload[key], abs=1e-9)


class TestEnsemble:
    def test_v3_maxent(self):
        r = run_cli("ensemble", "--builtin", "v:3", "--probe-class", "maxent")
        payload = json.loads(r.stdout)
        assert payload["value"] == pytest.approx(0.9605, abs=1e-3)
        assert payload["dual_gap"] <= 1e-6

    def test_w4_product(self):
        r = run_cli(
            "ensemble", "--builtin", "w:4", "--probe-class", "product", "--restarts", "4"
        )
        payload = json.loads(r.stdout)
        assert payload["value"] == pytest.approx(0.5, abs=1e-4)

    def test_v3_arbitrary_reaches_perfect(self):
        r = run_cli(
            "ensemble", "--builtin", "v:3", "--probe-class", "arbitrary", "--restarts", "4"
        )
        payload = json.loads(r.stdout)
        assert payload["value"] >= 0.999

    def test_malformed_file_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "priors": [1.0]}')
        r = run_cli("ensemble", "--input", str(path), "--probe-class", "maxent")
        assert r.returncode == 2
        assert "unitaries" in r.stderr

    def test_requires_exactly_one_source(self):
        r = run_cli("ensemble", "--probe-class", "maxent")
        assert r.returncode == 2

    @pytest.mark.parametrize("flag", ["--tol=0", "--tol=-1e-6", "--restarts=0"])
    def test_bad_solver_flags_exit_2(self, flag):
        r = run_cli("ensemble", "--builtin", "v:3", "--probe-class", "arbitrary", flag)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1


class TestTables:
    def test_single_row_csv(self):
        r = run_cli("tables", "--family", "v", "--d", "3..3", "--restarts", "3")
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "d,dP,dNME,dME"
        assert len(lines) == 2
        d, dp, dnme, dme = lines[1].split(",")
        assert d == "3"
        assert float(dp) == pytest.approx(1.0, abs=1e-4)
        assert float(dnme) == pytest.approx(1.0, abs=1e-4)
        assert float(dme) == pytest.approx(0.9605, abs=1e-3)

    def test_json_carries_gaps(self):
        r = run_cli(
            "tables", "--family", "v", "--d", "3..3", "--restarts", "3", "--format", "json"
        )
        payload = json.loads(r.stdout)
        row = payload["rows"][0]
        assert set(row["gaps"]) == {"dP", "dNME", "dME"}
        assert max(row["gaps"].values()) <= 1e-6

    def test_out_of_range_d(self):
        r = run_cli("tables", "--family", "w", "--d", "3..7")
        assert r.returncode == 2

    def test_bad_range_spec(self):
        r = run_cli("tables", "--family", "v", "--d", "7..3")
        assert r.returncode == 2


class TestArgand:
    def test_ttrio_cube_roots(self):
        r = run_cli("argand", "--builtin", "ttrio", "--format", "json")
        payload = json.loads(r.stdout)
        points = np.array([complex(x, y) for x, y in payload["eigenphases"]])
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        np.testing.assert_allclose(
            np.sort_complex(np.round(points, 6)),
            np.sort_complex(np.round(expected, 6)),
            atol=1e-6,
        )
        assert abs(complex(*payload["r1_witness"])) <= 1e-8
        assert payload["r1"] <= 1e-8

    def test_identical_pair(self, tmp_path):
        path = write_pair_file(tmp_path, np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        r = run_cli("argand", "--input", path, "--format", "json")
        payload = json.loads(r.stdout)
        assert payload["r1"] == pytest.approx(1.0)
        assert payload["r2"] == pytest.approx(1.0)
        for x, y in payload["eigenphases"]:
            assert (x, y) == (pytest.approx(1.0), pytest.approx(0.0))

    def test_swapped_points_and_r2(self):
        r = run_cli("argand", "--builtin", "swapped:3", "--format", "csv")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        phases = [l.split(",") for l in lines[1:] if l.startswith("eigenphase")]
        xs = sorted(float(x) for _, x, _ in phases)
        assert xs == [pytest.approx(-1.0), pytest.approx(1.0), pytest.approx(1.0)]
        r2_line = [l for l in lines if l.startswith("r2_point")][0]
        assert float(r2_line.split(",")[1]) == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestSimulate:
    def test_v3_maxent_within_three_sigma(self):
        r = run_cli(
            "simulate", "--builtin", "v:3", "--probe-class", "maxent",
            "--trials", "100000", "--seed", "3",
        )
        payload = json.loads(r.stdout)
        assert abs(payload["frequency"] - 0.9605) <= 3 * payload["stderr"]
        assert abs(payload["z"]) <= 3.5

    def test_w3_constructed_probe_is_exact(self):
        r = run_cli(
            "simulate", "--builtin", "w:3", "--probe-class", "arbitrary",
            "--trials", "2000", "--seed", "1",
        )
        payload = json.loads(r.stdout)
        assert payload["frequency"] == 1.0

    def test_deterministic_given_seed(self):
        args = (
            "simulate", "--builtin", "v:3", "--probe-class", "maxent",
            "--trials", "5000", "--seed", "11",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestVerify:
    def test_only_qubit(self):
        r = run_cli("verify", "--only", "qubit")
        assert r.returncode == 0
        assert r.stdout.startswith("PASS qubit")

    def test_only_nme(self):
        r = run_cli("verify", "--only", "nme")
        assert r.returncode == 0

    def test_unknown_filter_exits_2(self):
        r = run_cli("verify", "--only", "nosuchcheck")
        assert r.returncode == 2


class TestOutput:
    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("pairwise", "--builtin", "swapped:3", "--out", str(out))
        assert r.returncode == 0 and r.stdout == ""
        payload = json.loads(out.read_text())
        assert payload["nmeAdvantage"] is True

    def test_thread_env_respected(self, tmp_path):
        import os

        env = dict(os.environ, UNIPROBE_THREADS="2")
        r = run_cli("tables", "--family", "v", "--d", "3..4", "--restarts", "3", env=env)
        assert r.returncode == 0
        assert len(r.stdout.strip().splitlines()) == 3
