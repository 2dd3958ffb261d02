"""End-to-end tests for the command-line interface."""

import json
from collections import Counter

import numpy as np
import pytest

from hypgas import bounds, scattering
from hypgas.cli import (
    EXIT_FAILED,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    ParseError,
    load_potential,
    main,
)
from hypgas.scattering import HARDCORE, PIECEWISE


@pytest.fixture
def hardcore_file(tmp_path):
    path = tmp_path / "hc.json"
    path.write_text(json.dumps({"kind": "hardcore", "r0": 0.5, "pieces": []}))
    return str(path)


@pytest.fixture
def piecewise_file(tmp_path):
    path = tmp_path / "pw.json"
    path.write_text(json.dumps({"kind": "piecewise", "r0": 1.0, "pieces": [[1.0, 4.0]]}))
    return str(path)


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"kind": "hardcore", "r0": 0.01, "pieces": []}))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap module functions (hypgas.scattering by default) at the module attribute;
    returns the call counts."""
    counts = Counter()

    def install(*names, module=scattering):
        for name in names:
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    return install


# potential files that Python's json module accepts although their numbers are not finite
NON_FINITE_POTENTIALS = {
    "nan-value": '{"kind":"piecewise","r0":1.0,"pieces":[[0.5,2.0],[1.0,NaN]]}',
    "inf-value": '{"kind":"piecewise","r0":1.0,"pieces":[[1.0,Infinity]]}',
    "inf-hardcore": '{"kind":"hardcore","r0":Infinity,"pieces":[]}',
}
COMMAND_ARGS = {
    "scatter": [],
    "bound": ["--rho", "1e-4"],
    "certify": ["--model", "modular", "--L", "50", "--N", "100"],
}


class TestLoadPotential:
    def test_hardcore(self, hardcore_file):
        V = load_potential(hardcore_file)
        assert V.kind == HARDCORE
        assert V.r0 == 0.5

    def test_piecewise(self, piecewise_file):
        V = load_potential(piecewise_file)
        assert V.kind == PIECEWISE
        assert V.pieces == ((1.0, 4.0),)

    def test_sampled_kind_loads_as_piecewise(self, tmp_path):
        path = tmp_path / "sampled.json"
        path.write_text(json.dumps({"kind": "sampled", "r0": 1.0, "pieces": [[1.0, 4.0]]}))
        V = load_potential(str(path))
        assert V.kind == PIECEWISE
        assert V.pieces == ((1.0, 4.0),)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_potential(str(tmp_path / "nope.json"))

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "gaussian", "r0": 1.0}')
        with pytest.raises(ParseError):
            load_potential(str(path))

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    @pytest.mark.parametrize("name", sorted(NON_FINITE_POTENTIALS))
    def test_non_finite_file_is_parse_error(self, tmp_path, capsys, name, command):
        path = tmp_path / "bad.json"
        path.write_text(NON_FINITE_POTENTIALS[name])
        code, out, err = run([command, "--potential", str(path)] + COMMAND_ARGS[command], capsys)
        assert code == EXIT_PARSE
        assert out == ""
        assert "finite" in err


class TestScatter:
    def test_hardcore_round_trip(self, hardcore_file, capsys):
        code, out, _ = run(["scatter", "--potential", hardcore_file, "--d", "2"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["derived"]["a"] == pytest.approx(0.5, abs=1e-8)
        assert doc["derived"]["c_d"] == 1.0
        assert doc["inputs"]["R"] == pytest.approx(1.5)
        prof = doc["derived"]["profile"]
        assert len(prof["grid"]) == len(prof["values"])
        assert prof["values"][-1] == 1.0

    def test_byte_identical_reruns(self, piecewise_file, capsys):
        argv = ["scatter", "--potential", piecewise_file, "--d", "3"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_out_file(self, hardcore_file, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run(
            ["scatter", "--potential", hardcore_file, "--out", str(dest)], capsys
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(dest.read_text())["derived"]["a"] == pytest.approx(0.5, abs=1e-8)

    def test_format_flag_rejected(self, hardcore_file, capsys):
        code, out, _ = run(["scatter", "--potential", hardcore_file, "--format", "csv"], capsys)
        assert code == EXIT_PARSE
        assert out == ""

    def test_integrates_interior_once(self, piecewise_file, capsys, count_calls):
        counts = count_calls("_integrate_interior", "_build_profile")
        code, out, _ = run(["scatter", "--potential", piecewise_file, "--d", "2"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["derived"]["profile"]["values"][-1] == 1.0
        assert counts == {"_integrate_interior": 1, "_build_profile": 1}

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("r0", [40.0, 60.0])
    def test_large_hardcore(self, tmp_path, capsys, d, r0):
        path = tmp_path / "hc.json"
        path.write_text(json.dumps({"kind": "hardcore", "r0": r0, "pieces": []}))
        code, out, _ = run(["scatter", "--potential", str(path), "--d", str(d)], capsys)
        assert code == EXIT_OK
        derived = json.loads(out)["derived"]
        assert derived["a"] == r0
        grid = np.array(derived["profile"]["grid"])
        values = np.array(derived["profile"]["values"])
        assert values[-1] == 1.0
        assert np.all(values[grid <= r0] == 0.0)
        assert np.all(np.diff(values) >= 0.0) and np.all(values[grid > r0] > 0.0)


class TestBound:
    def test_dilute_report(self, hardcore_file, capsys):
        code, out, _ = run(
            ["bound", "--potential", hardcore_file, "--d", "2", "--rho", "1e-4",
             "--gap", "0.25"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["derived"]["Y"] > 0
        assert doc["derived"]["energy_upper_per_particle"] is not None
        assert 0 < doc["derived"]["fraction_lower"] <= 1
        assert doc["warnings"] == []

    def test_dense_regime_warns_without_failing(self, hardcore_file, capsys):
        code, out, _ = run(
            ["bound", "--potential", hardcore_file, "--d", "2", "--rho", "10"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["derived"]["energy_upper_per_particle"] is None
        assert any("cap" in w for w in doc["warnings"])

    def test_builds_no_profile(self, piecewise_file, capsys, count_calls):
        counts = count_calls("_build_profile")
        count_calls("energy_upper_bound", module=bounds)
        code, out, _ = run(
            ["bound", "--potential", piecewise_file, "--rho", "1e-4", "--gap", "0.25"], capsys
        )
        assert code == EXIT_OK
        assert counts["_build_profile"] == 0
        # the direct bound is printed as provenance, so bound alone evaluates it
        assert counts["energy_upper_bound"] == 1
        doc = json.loads(out)
        assert doc["derived"]["validity"]["direct_proviso"] is True
        assert doc["provenance"]["energy_upper_direct_value"] > 0

    def test_infinite_density_is_parse_error(self, hardcore_file, capsys):
        code, out, err = run(
            ["bound", "--potential", hardcore_file, "--rho", "inf"], capsys
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert "finite" in err


class TestCertify:
    def test_golden_case_certifies(self, golden_file, capsys):
        code, out, _ = run(
            ["certify", "--potential", golden_file, "--model", "modular", "--L", "50",
             "--N", "100", "--eps", "0.1"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["fraction_lower"] >= 0.9

    def test_crowded_case_exits_one(self, golden_file, capsys):
        code, out, _ = run(
            ["certify", "--potential", golden_file, "--model", "modular", "--L", "50",
             "--N", "100000", "--eps", "0.1"],
            capsys,
        )
        assert code == EXIT_FAILED
        assert json.loads(out)["certified"] is False

    def test_missing_model_flag_is_parse_error(self, golden_file, capsys):
        code, _, err = run(
            ["certify", "--potential", golden_file, "--model", "modular", "--N", "10"],
            capsys,
        )
        assert code == EXIT_PARSE
        assert "requires --L" in err

    def test_custom_model(self, golden_file, capsys):
        code, out, _ = run(
            ["certify", "--potential", golden_file, "--model", "custom",
             "--volume", "5000", "--gap", "0.238", "--N", "10"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["gap"] == 0.238

    def test_infinite_volume_is_parse_error(self, golden_file, capsys):
        code, out, err = run(
            ["certify", "--potential", golden_file, "--model", "custom",
             "--volume", "inf", "--gap", "0.238", "--N", "10"],
            capsys,
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert "finite" in err

    def test_builds_no_profile(self, piecewise_file, capsys, count_calls):
        counts = count_calls("_build_profile")
        count_calls("energy_upper_bound", module=bounds)
        code, _, _ = run(
            ["certify", "--potential", piecewise_file, "--model", "modular", "--L", "50",
             "--N", "100"],
            capsys,
        )
        assert code in (EXIT_OK, EXIT_FAILED)
        assert counts["_build_profile"] == 0
        assert counts["energy_upper_bound"] == 0

    @pytest.mark.parametrize(
        "model,d", [(["modular", "--L", "50"], 2), (["congruence3", "--L", "7", "--vol-x1", "2.5"], 3)]
    )
    @pytest.mark.parametrize("r0", [40.0, 60.0])
    def test_large_hardcore_is_no_numeric_failure(self, tmp_path, capsys, model, d, r0):
        path = tmp_path / "hc.json"
        path.write_text(json.dumps({"kind": "hardcore", "r0": r0, "pieces": []}))
        code, out, _ = run(
            ["certify", "--potential", str(path), "--d", str(d), "--model"] + model + ["--N", "10"],
            capsys,
        )
        assert code in (EXIT_OK, EXIT_FAILED)
        assert json.loads(out)["a"] == r0


class TestSweep:
    def test_single_axis_csv_rows(self, hardcore_file, capsys):
        code, out, _ = run(
            ["sweep", "--potential", hardcore_file, "--d", "2", "--gap", "0.25",
             "--axis", "rho:1e-5:1e-3:5:log", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + 5 rows
        assert lines[0].startswith("rho,")
        assert "np." not in out  # cells are repr() of Python floats, not numpy scalars

    def test_two_axes_lexicographic(self, hardcore_file, capsys):
        code, out, _ = run(
            ["sweep", "--potential", hardcore_file, "--gap", "0.25",
             "--axis", "rho:1e-4:1e-3:2:linear", "--axis", "mu:1:2:3:linear"],
            capsys,
        )
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert len(rows) == 6
        rhos = [r["rho"] for r in rows]
        mus = [r["mu"] for r in rows]
        assert rhos == sorted(rhos)  # first axis outermost
        assert mus[:3] == [1.0, 1.5, 2.0]

    def test_one_solve_per_mu(self, piecewise_file, capsys, count_calls):
        counts = count_calls("scattering_length", "_build_profile")
        count_calls("energy_upper_bound", module=bounds)  # never called: expected counts omit it
        code, out, _ = run(
            ["sweep", "--potential", piecewise_file, "--gap", "0.25",
             "--axis", "rho:1e-5:1e-3:3:log", "--axis", "eps:0.05:0.5:2:linear"],
            capsys,
        )
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) == 6
        assert counts == {"scattering_length": 1}

        counts.clear()
        code, out, _ = run(
            ["sweep", "--potential", piecewise_file, "--gap", "0.25",
             "--axis", "rho:1e-5:1e-3:2:log", "--axis", "mu:1:2:3:linear"],
            capsys,
        )
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert len(rows) == 6
        assert counts == {"scattering_length": 3}
        # rows with the same mu share one scattering length
        assert rows[0]["a"] == rows[3]["a"] != rows[1]["a"]

    def test_duplicate_axis_rejected(self, hardcore_file, capsys):
        code, _, err = run(
            ["sweep", "--potential", hardcore_file,
             "--axis", "rho:1:2:2:linear", "--axis", "rho:1:2:2:linear"],
            capsys,
        )
        assert code == EXIT_PARSE
        assert "distinct" in err

    def test_bad_axis_spec(self, hardcore_file, capsys):
        code, _, _ = run(
            ["sweep", "--potential", hardcore_file, "--axis", "rho:1:2:linear"], capsys
        )
        assert code == EXIT_PARSE


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(["verify"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["inequalities"]["n_cases"] == 18
        assert doc["inequalities"]["min_i_slack"] > 0
        assert all(chk["passed"] for chk in doc["energy_oracle"])


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["scatter", "--bogus"]) == EXIT_PARSE
        capsys.readouterr()

    def test_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"kind": "hardcore", "r0": -1.0, "pieces": []}))
        code, _, err = run(["scatter", "--potential", str(path)], capsys)
        assert code == EXIT_PARSE or code == EXIT_NUMERIC
