import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defosc
from defosc.cli import (
    Config,
    canonical_json,
    config_from_dict,
    format_complex,
    main,
    parse_complex,
)
from defosc.errors import ConfigError

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplexParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.5", 0.5 + 0j),
            ("-2", -2 + 0j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("2i", 2j),
            ("-i", -1j),
            ("i", 1j),
            ("1e-3+2.5e-2i", 0.001 + 0.025j),
            ("3j", 3j),
            (" 0.5 + 0.1i ", 0.5 + 0.1j),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1+2k", "1++2i", "nan", "-inf", "1+nani", "inf-2i"])
    def test_rejected_forms(self, text):
        with pytest.raises(ConfigError):
            parse_complex(text)

    def test_format_round_trip(self):
        for value in (0.5 + 0j, 1 - 2j, 0.1j, -3.25 + 0.75j, 2 + 0j):
            assert parse_complex(format_complex(value)) == value


class TestCanonicalJson:
    def test_keys_sorted_and_floats_17_digits(self):
        text = canonical_json({"b": 1 / 3, "a": True, "c": None})
        assert text == '{"a": true, "b": 0.33333333333333331, "c": null}\n'

    def test_whole_floats_stay_numbers(self):
        assert canonical_json({"x": 2.0}) == '{"x": 2}\n'

    def test_infinities_become_strings(self):
        assert canonical_json([math.inf, -math.inf]) == '["inf", "-inf"]\n'

    def test_complex_rendered_as_string(self):
        assert canonical_json({"z": 1 + 2j}) == '{"z": "1+2i"}\n'

    def test_repeated_runs_are_byte_identical(self):
        payload = {"values": [0.1, 0.2, 10 / 3], "flag": False}
        assert canonical_json(payload) == canonical_json(payload)


class TestConfig:
    def test_round_trip_is_lossless(self):
        raw = {
            "name": "two-parameter",
            "F": "q",
            "G": "p^(-n)",
            "params": {"p": "2", "q": "1.5+0.25i"},
        }
        config = config_from_dict(raw)
        again = config_from_dict(config.as_dict())
        assert again == config
        assert again.params["q"] == 1.5 + 0.25j

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"name": "x", "F": "1", "G": "1", "bogus": 2})

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"name": "x", "F": "1", "G": "1", "overrides": {"nope": 1}})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"name": "x", "F": "1"})

    def test_numeric_params_accepted(self):
        config = config_from_dict({"name": "x", "F": "q", "G": "1", "params": {"q": 0.5}})
        assert config.params["q"] == 0.5 + 0j

    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "int-1e400"])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict({"name": "x", "F": "q", "G": "1", "params": {"q": value}})
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict({"name": "x", "F": "1", "G": "1", "overrides": {"tol": value}})

    def test_spec_construction(self):
        config = Config("geometric", "q", "1", {"q": 0.5 + 0j})
        table_spec = config.spec()
        assert table_spec.eval_F(3) == 0.5


class TestExitCodes:
    def test_structure_pass_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["structure", "--builtin", "harmonic", "--n-max", "5"])
        assert code == 0
        assert "pass" in out

    def test_verdict_fail_is_one(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["moments", "--builtin", "harmonic", "--weight", "exp(-2*x)", "--n-max", "2"],
        )
        assert code == 1

    def test_injected_fault_fails_certification(self, capsys):
        code, out, _ = run_cli(
            capsys, ["certify", "--builtin", "harmonic", "--inject-fault", "--format", "json"]
        )
        assert code == 1
        assert '"pass": false' in out

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["coherent", "--builtin", "harmonic", "--z", "300"], 0),
            (["certify", "--builtin", "harmonic", "--dim", "100000"], 0),
            (["certify", "--builtin", "harmonic", "--dim", "100000", "--inject-fault"], 1),
            (["certify", "--builtin", "pq", "--param", "p=2", "--param", "q=1.5", "--dim", "1024"], 0),
        ],
    )
    def test_large_dimension_gives_a_verdict(self, capsys, argv, expected):
        # a dense (D+1)^2 complex matrix is 160 GB at D = 100000; the pq
        # case evaluates p^(-n) down to 2^-1024, past 1/DBL_MAX
        code, _, err = run_cli(capsys, [*argv, "--format", "json"])
        assert (code, err) == (expected, "")

    def test_config_error_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "b", "F": "q^^2", "G": "1"}))
        code, _, err = run_cli(capsys, ["structure", "--config", str(bad)])
        assert code == 2
        assert "byte offset" in err

    def test_missing_algebra_is_two(self, capsys):
        code, _, _ = run_cli(capsys, ["structure"])
        assert code == 2

    def test_unknown_builtin_is_two(self, capsys):
        code, _, _ = run_cli(capsys, ["structure", "--builtin", "nosuch"])
        assert code == 2

    def test_missing_builtin_param_is_two(self, capsys):
        code, _, err = run_cli(capsys, ["structure", "--builtin", "arik-coon"])
        assert code == 2
        assert "q" in err

    def test_evaluation_error_is_three(self, capsys, tmp_path):
        pole = tmp_path / "pole.json"
        pole.write_text(json.dumps({"name": "pole", "F": "1/(n-3)", "G": "1"}))
        code, _, err = run_cli(capsys, ["structure", "--config", str(pole)])
        assert code == 3
        assert "n = 3" in err

    def test_domain_error_is_four(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["coherent", "--builtin", "arik-coon", "--param", "q=0.5", "--z", "1.6"],
        )
        assert code == 4
        assert "R = 2" in err

    @pytest.mark.parametrize(
        "argv,overrides",
        [
            (["structure", "--n-max", "-1"], None),
            (["moments", "--weight", "builtin:harmonic", "--n-max", "-1"], None),
            (["certify", "--dim", "0"], None),
            (["certify", "--tol", "-1"], None),
            (["moments", "--weight", "builtin:harmonic", "--tol", "0"], None),
            (["coherent", "--z", "1", "--scan", "-1"], None),
            (["certify"], {"dim": 0}),
            (["certify"], {"tol": -1}),
            (["coherent", "--z", "0.5"], {"tail_tol": 0}),
            (["coherent", "--z", "0.5"], {"probe_depth": 8}),
            (["coherent", "--z", "1", "--scan", "1" + "0" * 400], None),
        ],
    )
    def test_out_of_range_number_is_two(self, capsys, tmp_path, argv, overrides):
        if overrides is None:
            argv = argv + ["--builtin", "harmonic"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"name": "h", "F": "1", "G": "1", "overrides": overrides}))
            argv = argv + ["--config", str(config)]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "must be" in err

    @pytest.mark.parametrize(
        "source",
        ["(" * 2000 + "n" + ")" * 2000, "-" * 5000 + "n", "2^" * 2000 + "2", "+".join(["n"] * 2000)],
    )
    def test_deeply_nested_expression_is_two(self, capsys, tmp_path, source):
        # in-process, a RecursionError would escape main and fail the test
        config = tmp_path / "deep.json"
        config.write_text(json.dumps({"name": "deep", "F": source, "G": "1"}))
        code, out, err = run_cli(capsys, ["structure", "--config", str(config)])
        assert code == 2
        assert out == ""
        assert "nested deeper than" in err

    def test_non_finite_label_is_two(self, capsys):
        code, _, err = run_cli(capsys, ["coherent", "--builtin", "harmonic", "--z", "nan"])
        assert code == 2
        assert "not finite" in err

    def test_unwritable_out_is_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(capsys, ["structure", "--builtin", "harmonic", "--out", str(target)])
        assert code == 2
        assert str(target) in err


class TestStructureCommand:
    def test_undeformed_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["structure", "--builtin", "harmonic", "--n-max", "5", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["f"] for row in payload["rows"]] == [0, 1, 2, 3, 4, 5]

    def test_geometric_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["structure", "--builtin", "arik-coon", "--param", "q=0.5",
             "--n-max", "3", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["f"] for row in payload["rows"]] == [0, 1, 1.5, 1.75]
        assert payload["max_discrepancy"] <= 1e-10

    def test_closed_form_inapplicable_still_reports(self, capsys, tmp_path):
        config = tmp_path / "zero.json"
        config.write_text(json.dumps({"name": "zero-factor", "F": "1 - n", "G": "1"}))
        code, out, _ = run_cli(
            capsys, ["structure", "--config", str(config), "--n-max", "4", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"] == "inapplicable"
        assert payload["max_discrepancy"] is None

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["structure", "--builtin", "harmonic", "--n-max", "2", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,re_phi,im_phi,f,log_f_factorial,re_phi_closed,im_phi_closed"
        assert len(lines) == 4

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "structure.json"
        code, out, _ = run_cli(
            capsys,
            ["structure", "--builtin", "harmonic", "--n-max", "2",
             "--format", "json", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["algebra"] == "harmonic"


class TestCoherentCommand:
    def test_undeformed_unit_label(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["coherent", "--builtin", "harmonic", "--z", "1", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_n"] == pytest.approx(1.0, abs=1e-8)
        assert payload["mandel_q"] == pytest.approx(0.0, abs=1e-8)
        assert payload["eigen_residual"] <= 1e-6
        assert payload["uncertainty_product"] == pytest.approx(0.5, abs=1e-8)

    def test_vacuum_mandel_q_is_null(self, capsys):
        code, out, _ = run_cli(
            capsys, ["coherent", "--builtin", "harmonic", "--z", "0", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["mandel_q"] is None

    def test_pmf_csv_sums_to_unity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["coherent", "--builtin", "arik-coon", "--param", "q=0.5",
             "--z", "1", "--format", "csv"],
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        total = sum(float(line.split(",")[1]) for line in rows)
        assert abs(total - 1.0) <= 1e-10

    def test_overlap_scan(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["coherent", "--builtin", "harmonic", "--z", "1", "--scan", "4",
             "--format", "json"],
        )
        assert code == 0
        scan = json.loads(out)["overlap_scan"]
        assert len(scan) == 5
        magnitudes = [point["abs"] for point in scan]
        assert magnitudes == sorted(magnitudes)
        assert magnitudes[-1] == pytest.approx(1.0, abs=1e-12)

    def test_requires_z(self, capsys):
        code, _, _ = run_cli(capsys, ["coherent", "--builtin", "harmonic"])
        assert code == 2

    def test_config_overrides_flow_through(self, capsys, tmp_path):
        config = tmp_path / "tuned.json"
        config.write_text(json.dumps({
            "name": "tuned",
            "F": "1",
            "G": "1",
            "overrides": {"tail_tol": 1e-8, "probe_depth": 256},
        }))
        code, out, _ = run_cli(
            capsys, ["coherent", "--config", str(config), "--z", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tail_bound"] <= 1e-8
        # looser tail tolerance cuts the expansion earlier than the default
        assert payload["truncation"] < 17


class TestMomentsCommand:
    def test_builtin_pair_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["moments", "--builtin", "harmonic", "--weight", "builtin:harmonic",
             "--n-max", "8", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["moments"]) == 9

    def test_expression_weight_report_emitted_on_fail(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["moments", "--builtin", "arik-coon", "--param", "q=0.5",
             "--weight", "exp(-x)", "--n-max", "3", "--format", "json"],
        )
        assert code == 1  # wrong weight for this family, but a report ships
        payload = json.loads(out)
        assert len(payload["moments"]) == 4

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["moments", "--builtin", "harmonic", "--weight", "builtin:harmonic",
             "--n-max", "2", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,target_log,integral_log")
        assert len(lines) == 4


class TestGoldenFiles:
    """Byte-compare canonical JSON for the four verbs on catalog fixtures."""

    CASES = {
        "structure_arik_coon.json": [
            "structure", "--builtin", "arik-coon", "--param", "q=0.5",
            "--n-max", "8", "--format", "json",
        ],
        "certify_biedenharn.json": [
            "certify", "--builtin", "biedenharn", "--param", "q=2",
            "--dim", "16", "--format", "json",
        ],
        "coherent_harmonic.json": [
            "coherent", "--builtin", "harmonic", "--z", "1", "--scan", "2",
            "--format", "json",
        ],
        "moments_harmonic.json": [
            "moments", "--builtin", "harmonic", "--weight", "builtin:harmonic",
            "--n-max", "6", "--format", "json",
        ],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_byte_stable_output(self, capsys, name):
        code, out, _ = run_cli(capsys, self.CASES[name])
        assert code == 0
        golden = (GOLDEN_DIR / name).read_bytes()
        assert out.encode("utf-8") == golden

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_runs_are_deterministic(self, capsys, name):
        _, first, _ = run_cli(capsys, self.CASES[name])
        _, second, _ = run_cli(capsys, self.CASES[name])
        assert first == second


class TestModuleEntry:
    def test_python_dash_m(self):
        # the child finds the same package as this process, installed or not
        src = str(Path(defosc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "defosc", "structure", "--builtin", "harmonic",
             "--n-max", "3", "--format", "json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["algebra"] == "harmonic"
