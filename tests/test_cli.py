import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fixedform import (
    DEFAULT_EPSILON,
    binom_total,
    enumerate_exact,
    load_bank,
)
from fixedform.cli import EXIT_BUDGET, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from fixedform.sampling import SWEEP_HEADER


def read_manifest(out_path):
    return json.loads((out_path.parent / (out_path.name + ".manifest.json")).read_text())


class TestGenBank:
    def test_writes_bank_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "bank.csv"
        code = main(["gen-bank", "--m", "12", "--seed", "6", "-o", str(out)])
        assert code == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 13
        manifest = read_manifest(out)
        assert manifest["command"] == "gen-bank"
        assert manifest["parameters"]["m"] == 12
        assert manifest["parameters"]["seed"] == 6
        assert "bank_sha256" in manifest
        assert "tool_version" in manifest
        assert "timestamp" in manifest

    def test_matches_the_library_generator(self, tmp_path, bank12):
        out = tmp_path / "bank.csv"
        main(["gen-bank", "--m", "12", "--seed", "6", "-o", str(out)])
        assert load_bank(out) == bank12

    def test_seed_is_generated_and_printed_when_omitted(self, tmp_path, capsys):
        out = tmp_path / "bank.csv"
        code = main(["gen-bank", "--m", "5", "-o", str(out)])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "generated seed" in err
        seed = int(err.split("generated seed")[1].split()[0])
        assert read_manifest(out)["parameters"]["seed"] == seed

    def test_invalid_guessing_parameter_is_a_usage_error(self, tmp_path, capsys):
        code = main(["gen-bank", "--m", "5", "--seed", "1", "--c", "1.5",
                     "-o", str(tmp_path / "bank.csv")])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_large_bank(self, tmp_path):
        out = tmp_path / "bank.csv"
        code = main(["gen-bank", "--m", "753", "--seed", "1", "-o", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 754


class TestSweepCommand:
    def sweep_argv(self, bank_csv, out, target, **over):
        args = {
            "--bank": str(bank_csv), "--target": target, "--seed": "9",
            "--n-from": "3", "--n-to": "4", "--K": "400", "-o": str(out),
        }
        args.update(over)
        argv = ["sweep"]
        for flag, value in args.items():
            if value is not None:
                argv += [flag, value]
        return argv

    def test_happy_path(self, tmp_path, bank12_csv, scaled_target_arg, capsys):
        out = tmp_path / "sweep.csv"
        code = main(self.sweep_argv(bank12_csv, out, scaled_target_arg))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 3
        manifest = read_manifest(out)
        assert manifest["parameters"]["K"] == 400
        assert len(manifest["target_coefficients_descending"]) == 7

    def test_manifest_rerun_is_byte_identical(self, tmp_path, bank12_csv, scaled_target_arg):
        first = tmp_path / "first.csv"
        main(self.sweep_argv(bank12_csv, first, scaled_target_arg))
        second = tmp_path / "second.csv"
        code = main(["sweep", "--config", str(tmp_path / "first.csv.manifest.json"),
                     "-o", str(second)])
        assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_the_output(self, tmp_path, bank12_csv, scaled_target_arg):
        one = tmp_path / "w1.csv"
        eight = tmp_path / "w8.csv"
        main(self.sweep_argv(bank12_csv, one, scaled_target_arg, **{"--workers": "1"}))
        main(self.sweep_argv(bank12_csv, eight, scaled_target_arg, **{"--workers": "8"}))
        assert one.read_bytes() == eight.read_bytes()

    def test_explicit_flags_beat_config_values(self, tmp_path, bank12_csv, scaled_target_arg):
        base = tmp_path / "base.csv"
        main(self.sweep_argv(bank12_csv, base, scaled_target_arg))
        override = tmp_path / "override.csv"
        code = main(["sweep", "--config", str(tmp_path / "base.csv.manifest.json"),
                     "--seed", "10", "-o", str(override)])
        assert code == EXIT_OK
        direct = tmp_path / "direct.csv"
        main(self.sweep_argv(bank12_csv, direct, scaled_target_arg, **{"--seed": "10"}))
        assert override.read_bytes() == direct.read_bytes()
        assert override.read_bytes() != base.read_bytes()

    def test_mode_subset(self, tmp_path, bank12_csv, scaled_target_arg):
        out = tmp_path / "sweep.csv"
        code = main(self.sweep_argv(bank12_csv, out, scaled_target_arg,
                                    **{"--modes": "exceeding"}))
        assert code == EXIT_OK
        row = out.read_text().splitlines()[1].split(",")
        assert row[1] == ""  # mu_A not run
        assert row[5] != ""  # mu_E present

    @pytest.mark.parametrize(
        "over",
        [
            {"--n-from": "0"},
            {"--n-from": None},
            {"--n-to": "2"},
            {"--modes": "sideways"},
            {"--K": "0"},
            {"--workers": "0"},
            {"--workers": "-3"},
        ],
    )
    def test_usage_errors(self, tmp_path, bank12_csv, scaled_target_arg, over, capsys):
        # A None value drops the flag entirely (sweep_argv skips it).
        out = tmp_path / "sweep.csv"
        code = main(self.sweep_argv(bank12_csv, out, scaled_target_arg, **over))
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_missing_bank_is_an_io_error(self, tmp_path, scaled_target_arg, capsys):
        code = main(self.sweep_argv(tmp_path / "ghost.csv", tmp_path / "s.csv",
                                    scaled_target_arg))
        assert code == EXIT_IO

    def test_corrupt_bank_is_an_io_error(self, tmp_path, scaled_target_arg, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,a,b,c\n0,zap,0.0,0.2\n")
        code = main(self.sweep_argv(bad, tmp_path / "s.csv", scaled_target_arg))
        assert code == EXIT_IO
        assert "line 2" in capsys.readouterr().err

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, bank12_csv, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"n_from": 3, "n_to": 4, "turbo": true}\n')
        code = main(["sweep", "--bank", str(bank12_csv), "--seed", "1",
                     "--config", str(config), "-o", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert "turbo" in capsys.readouterr().err

    def test_bad_config_json_is_an_io_error(self, tmp_path, bank12_csv, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code = main(["sweep", "--bank", str(bank12_csv), "--config", str(config),
                     "-o", str(tmp_path / "s.csv")])
        assert code == EXIT_IO
        assert "JSON" in capsys.readouterr().err

    def test_config_for_another_command_is_rejected(self, tmp_path, bank12_csv,
                                                    scaled_target_arg, capsys):
        bank_out = tmp_path / "b.csv"
        main(["gen-bank", "--m", "5", "--seed", "1", "-o", str(bank_out)])
        code = main(["sweep", "--config", str(tmp_path / "b.csv.manifest.json"),
                     "-o", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert "gen-bank" in capsys.readouterr().err


class TestAssembleCommand:
    def test_success_writes_test_fit_trace_and_manifest(self, tmp_path, bank12_csv,
                                                        scaled_target_arg, capsys):
        out = tmp_path / "test.json"
        trace = tmp_path / "trace.csv"
        code = main(["assemble", "--bank", str(bank12_csv), "--target", scaled_target_arg,
                     "--n", "6", "--seed", "0", "-o", str(out), "--trace", str(trace)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc) == {"items", "energy", "succeeded", "proposals",
                            "accepted", "final_T", "fit"}
        assert doc["succeeded"] is True
        assert doc["energy"] == 0.0
        assert len(doc["items"]) == 6
        assert doc["fit"]["exceeding"] is True
        trace_lines = trace.read_text().splitlines()
        assert trace_lines[0] == "proposal,energy,temperature"
        assert len(trace_lines) >= 2
        assert "exceeding test found" in capsys.readouterr().out

    def test_budget_exhaustion_exits_3_but_still_writes(self, tmp_path, bank12_csv, capsys):
        # The full-height target is far above anything 4 of these 12 items
        # can reach, so the proposal budget runs out.
        out = tmp_path / "test.json"
        code = main(["assemble", "--bank", str(bank12_csv), "--n", "4", "--seed", "0",
                     "--max-proposals", "200", "-o", str(out)])
        assert code == EXIT_BUDGET
        doc = json.loads(out.read_text())
        assert doc["succeeded"] is False
        assert doc["energy"] > 0.0
        assert doc["proposals"] == 200
        assert "budget" in capsys.readouterr().err

    def test_missing_n_is_a_usage_error(self, tmp_path, bank12_csv, capsys):
        code = main(["assemble", "--bank", str(bank12_csv), "--seed", "0",
                     "-o", str(tmp_path / "t.json")])
        assert code == EXIT_USAGE
        assert "--n is required" in capsys.readouterr().err

    def test_oversized_n_is_a_usage_error(self, tmp_path, bank12_csv):
        code = main(["assemble", "--bank", str(bank12_csv), "--n", "13", "--seed", "0",
                     "-o", str(tmp_path / "t.json")])
        assert code == EXIT_USAGE

    def test_manifest_rerun_reproduces_the_test(self, tmp_path, bank12_csv, scaled_target_arg):
        first = tmp_path / "first.json"
        main(["assemble", "--bank", str(bank12_csv), "--target", scaled_target_arg,
              "--n", "6", "--seed", "3", "-o", str(first)])
        second = tmp_path / "second.json"
        code = main(["assemble", "--config", str(tmp_path / "first.json.manifest.json"),
                     "-o", str(second)])
        assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()


def write_unit_sweep(path, n_values, m, mu=1.0, zero_at=()):
    """Handcraft a sweep CSV with constant ratios for the counts command."""
    lines = [",".join(SWEEP_HEADER)]
    for n in n_values:
        value = 0.0 if n in zero_at else mu
        lines.append(f"{n},{value},0.0,{value},0.0,{value},0.0,100,100,0")
    path.write_text("\n".join(lines) + "\n")


class TestCountsCommand:
    def test_unit_ratios_give_the_binomial_curve(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2, 3, 4], m=12)
        out = tmp_path / "counts.csv"
        code = main(["counts", "--sweep", str(sweep_csv), "--m", "12",
                     "--anchor-n", "3", "-o", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n,log10_N,log10_N_A,log10_N_R,log10_N_E,flags"
        for line in lines[1:]:
            cells = line.split(",")
            n = int(cells[0])
            expected = binom_total(12, n).log10
            assert abs(float(cells[1]) - expected) < 1e-12
            for cell in cells[2:5]:
                assert abs(float(cell) - expected) < 1e-9
            assert cells[5] == ""
        manifest = read_manifest(out)
        assert manifest["parameters"]["anchor_n"] == 3
        assert "sweep_sha256" in manifest

    def test_zero_ratio_rows_are_flagged(self, tmp_path):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2, 3, 4], m=12, zero_at=(2,))
        out = tmp_path / "counts.csv"
        code = main(["counts", "--sweep", str(sweep_csv), "--m", "12",
                     "--anchor-n", "3", "-o", str(out)])
        assert code == EXIT_OK
        row2 = out.read_text().splitlines()[1].split(",")
        assert row2[0] == "2"
        assert math.isnan(float(row2[2]))
        assert row2[5] == "N_A:no-estimate;N_R:no-estimate;N_E:no-estimate"

    def test_bank_file_supplies_m(self, tmp_path, bank12_csv):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2, 3], m=12)
        code = main(["counts", "--sweep", str(sweep_csv), "--bank", str(bank12_csv),
                     "--anchor-n", "2", "-o", str(tmp_path / "c.csv")])
        assert code == EXIT_OK

    def test_m_contradicting_the_bank_is_a_usage_error(self, tmp_path, bank12_csv, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2, 3], m=12)
        code = main(["counts", "--sweep", str(sweep_csv), "--bank", str(bank12_csv),
                     "--m", "99", "--anchor-n", "2", "-o", str(tmp_path / "c.csv")])
        assert code == EXIT_USAGE
        assert "contradicts" in capsys.readouterr().err

    def test_m_or_bank_is_required(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2, 3], m=12)
        code = main(["counts", "--sweep", str(sweep_csv), "--anchor-n", "2",
                     "-o", str(tmp_path / "c.csv")])
        assert code == EXIT_USAGE
        assert "--m or --bank" in capsys.readouterr().err

    def test_zero_anchor_ratio_is_a_usage_error(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2, 3], m=12, zero_at=(2,))
        code = main(["counts", "--sweep", str(sweep_csv), "--m", "12",
                     "--anchor-n", "2", "-o", str(tmp_path / "c.csv")])
        assert code == EXIT_USAGE
        assert "positive estimate" in capsys.readouterr().err

    def test_anchor_outside_the_sweep_is_a_usage_error(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2, 3], m=12)
        code = main(["counts", "--sweep", str(sweep_csv), "--m", "12",
                     "--anchor-n", "7", "-o", str(tmp_path / "c.csv")])
        assert code == EXIT_USAGE
        assert "not a sweep length" in capsys.readouterr().err

    def test_missing_sweep_file_is_an_io_error(self, tmp_path):
        code = main(["counts", "--sweep", str(tmp_path / "ghost.csv"), "--m", "12",
                     "--anchor-n", "2", "-o", str(tmp_path / "c.csv")])
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "bad_row",
        ["3,1.0,0.0,1.0,0.0", "3,1.0,0.0,1.0,0.0,abc,0.0,100,100,0"],
        ids=["short-row", "non-numeric-cell"],
    )
    def test_malformed_sweep_rows_are_io_errors(self, tmp_path, capsys, bad_row):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2], m=12)
        with open(sweep_csv, "a") as fh:
            fh.write(bad_row + "\n")
        code = main(["counts", "--sweep", str(sweep_csv), "--m", "12",
                     "--anchor-n", "2", "-o", str(tmp_path / "c.csv")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("fixedform: error:") and "line 3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", ""], ids=["wrong-header", "empty-file"])
    def test_a_file_that_is_not_a_sweep_csv_is_an_io_error(self, tmp_path, capsys, text):
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_text(text)
        code = main(["counts", "--sweep", str(sweep_csv), "--m", "12",
                     "--anchor-n", "2", "-o", str(tmp_path / "c.csv")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("fixedform: error:") and "not a sweep CSV" in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("mu", ["2.0", "nan", "inf", "-0.5"])
    def test_ratios_outside_the_unit_interval_are_usage_errors(self, tmp_path, capsys, mu):
        # At m = 30, n = 6 a ratio of 2 would claim more forms than C(30, 6).
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [5, 6], m=30, mu=0.5)
        text = sweep_csv.read_text().replace("6,0.5,0.0,0.5,0.0,0.5,", f"6,0.5,0.0,0.5,0.0,{mu},")
        sweep_csv.write_text(text)
        code = main(["counts", "--sweep", str(sweep_csv), "--m", "30", "--anchor-n", "5",
                     "--modes", "exceeding", "-o", str(tmp_path / "c.csv")])
        assert code == EXIT_USAGE
        assert "fixedform: error:" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_sweep_without_the_requested_mode_is_a_usage_error(
        self, tmp_path, bank12_csv, scaled_target_arg, capsys
    ):
        sweep_csv = tmp_path / "sweep.csv"
        main(["sweep", "--bank", str(bank12_csv), "--target", scaled_target_arg,
              "--seed", "9", "--n-from", "3", "--n-to", "4", "--K", "200",
              "--modes", "exceeding", "-o", str(sweep_csv)])
        code = main(["counts", "--sweep", str(sweep_csv), "--m", "12",
                     "--anchor-n", "3", "--modes", "absolute",
                     "-o", str(tmp_path / "c.csv")])
        assert code == EXIT_USAGE
        assert "no absolute estimates" in capsys.readouterr().err


class TestEnumerateCommand:
    def test_matches_the_library_enumerator(self, tmp_path, bank12_csv, bank12,
                                            scaled_target_arg, scaled_curve_12):
        out = tmp_path / "exact.json"
        code = main(["enumerate", "--bank", str(bank12_csv), "--target", scaled_target_arg,
                     "--n", "4", "-o", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        exact = enumerate_exact(bank12, 4, scaled_curve_12, DEFAULT_EPSILON)
        assert doc == {
            "m": 12, "n": 4, "epsilon": DEFAULT_EPSILON,
            "N": exact.total, "N_A": exact.absolute,
            "N_R": exact.relative, "N_E": exact.exceeding,
        }

    def test_full_bank_has_one_form(self, tmp_path, bank12_csv, scaled_target_arg):
        out = tmp_path / "exact.json"
        code = main(["enumerate", "--bank", str(bank12_csv), "--target", scaled_target_arg,
                     "--n", "12", "-o", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["N"] == 1

    def test_oversized_enumerations_are_refused(self, tmp_path, bank300_csv, capsys):
        code = main(["enumerate", "--bank", str(bank300_csv), "--n", "20",
                     "-o", str(tmp_path / "exact.json")])
        assert code == EXIT_USAGE
        assert "budget" in capsys.readouterr().err

    def test_missing_n_is_a_usage_error(self, tmp_path, bank12_csv):
        code = main(["enumerate", "--bank", str(bank12_csv),
                     "-o", str(tmp_path / "exact.json")])
        assert code == EXIT_USAGE


class TestMainDispatch:
    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "a command is required" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["sweep", "--bogus"]) == EXIT_USAGE

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "fixedform" in capsys.readouterr().out


class TestConfigValueTypes:
    BASE = {"n_from": 3, "n_to": 4, "K": 100, "seed": 1}

    @pytest.mark.parametrize(
        "over",
        [
            {"K": 3.7},
            {"K": [1, 2]},
            {"K": {"draws": 2}},
            {"n_from": 3.5},
            {"workers": 2.5},
            {"K": True},
            {"target": False},
            {"seed": "nine"},
        ],
        ids=["float-for-int", "array", "object", "float-n-from", "float-workers",
             "bool-for-int", "bool-for-str", "text-for-int"],
    )
    def test_wrong_json_types_are_usage_errors(self, tmp_path, bank12_csv, capsys, over):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**self.BASE, **over}))
        out = tmp_path / "s.csv"
        code = main(["sweep", "--bank", str(bank12_csv), "--config", str(config), "-o", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("fixedform: error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [1, "yes"])
    def test_greedy_init_takes_only_a_bool(self, tmp_path, bank12_csv, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 4, "greedy_init": value}))
        code = main(["assemble", "--bank", str(bank12_csv), "--seed", "1",
                     "--config", str(config), "-o", str(tmp_path / "t.json")])
        assert code == EXIT_USAGE
        assert "greedy_init" in capsys.readouterr().err

    def test_scalars_are_checked_by_the_flag_type(self, tmp_path, bank12_csv, scaled_target_arg):
        # Text for a number and an int for a float flag parse as on the command line.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_from": "3", "n_to": 4, "K": "400", "epsilon": 1,
                                      "K_meeting": None, "seed": 9}))
        via_config = tmp_path / "config.csv"
        code = main(["sweep", "--bank", str(bank12_csv), "--target", scaled_target_arg,
                     "--config", str(config), "-o", str(via_config)])
        assert code == EXIT_OK
        direct = tmp_path / "direct.csv"
        main(["sweep", "--bank", str(bank12_csv), "--target", scaled_target_arg, "--seed", "9",
              "--n-from", "3", "--n-to", "4", "--K", "400", "--epsilon", "1.0", "-o", str(direct)])
        assert via_config.read_bytes() == direct.read_bytes()
        params = read_manifest(via_config)["parameters"]
        assert (params["n_from"], params["K"], params["epsilon"]) == (3, 400, 1.0)

    def test_null_for_a_flag_with_a_default_keeps_the_default(self, tmp_path, bank12_csv,
                                                                scaled_target_arg):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_from": 3, "n_to": 3, "K": 50, "n_step": None,
                                      "workers": None, "modes": None}))
        out = tmp_path / "s.csv"
        code = main(["sweep", "--bank", str(bank12_csv), "--target", scaled_target_arg,
                     "--seed", "2", "--config", str(config), "-o", str(out)])
        assert code == EXIT_OK
        params = read_manifest(out)["parameters"]
        assert (params["n_step"], params["workers"]) == (1, 1)
        assert params["modes"] == "absolute,relative,exceeding"


class TestMalformedInputFiles:
    def check_io_error(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith("fixedform: error:") and "Traceback" not in err
        return err

    def test_non_utf8_bank(self, tmp_path, capsys):
        bank = tmp_path / "bank.csv"
        bank.write_bytes(b"id,a,b,c\n0,1.0,0.0,0.2\xff\n")
        self.check_io_error(capsys, ["enumerate", "--bank", str(bank), "--n", "1",
                                     "-o", str(tmp_path / "e.json")])
        assert not (tmp_path / "e.json").exists()

    def test_non_utf8_sweep(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_bytes(b"\xff" + ",".join(SWEEP_HEADER).encode() + b"\n")
        self.check_io_error(capsys, ["counts", "--sweep", str(sweep_csv), "--m", "12",
                                     "--anchor-n", "2", "-o", str(tmp_path / "c.csv")])
        assert not (tmp_path / "c.csv").exists()

    def test_non_utf8_config(self, tmp_path, bank12_csv, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"n_from": 3, "n_to": "\xff"}')
        self.check_io_error(capsys, ["sweep", "--bank", str(bank12_csv), "--config", str(config),
                                     "-o", str(tmp_path / "s.csv")])

    def test_repeated_sweep_length(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2, 3, 3], m=12)
        err = self.check_io_error(capsys, ["counts", "--sweep", str(sweep_csv), "--m", "12",
                                           "--anchor-n", "2", "-o", str(tmp_path / "c.csv")])
        assert "line 4" in err and "n=3 repeats line 3" in err
        assert not (tmp_path / "c.csv").exists()

    def test_over_long_bank_field(self, tmp_path, capsys):
        bank = tmp_path / "bank.csv"
        bank.write_text("id,a,b,c\n0,1.0,0.0,0." + "2" * 200_000 + "\n")
        err = self.check_io_error(capsys, ["enumerate", "--bank", str(bank), "--n", "1",
                                           "-o", str(tmp_path / "e.json")])
        assert f"{bank}, line 2" in err and "field larger than field limit" in err
        assert not (tmp_path / "e.json").exists()

    def test_over_long_sweep_field(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2], m=12)
        with open(sweep_csv, "a") as fh:
            fh.write("3,0." + "5" * 200_000 + ",0.0,1.0,0.0,1.0,0.0,100,100,0\n")
        err = self.check_io_error(capsys, ["counts", "--sweep", str(sweep_csv), "--m", "12",
                                           "--anchor-n", "2", "-o", str(tmp_path / "c.csv")])
        assert f"{sweep_csv}, line 3" in err and "field larger than field limit" in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("bad", ["bank", "sweep", "config"])
    def test_a_decode_error_names_the_bad_file(self, tmp_path, bank12_csv, capsys, bad):
        files = {"bank": tmp_path / "bank.csv", "sweep": tmp_path / "sweep.csv",
                 "config": tmp_path / "config.json"}
        files["bank"].write_bytes(bank12_csv.read_bytes())
        write_unit_sweep(files["sweep"], [2, 3], m=12)
        files["config"].write_text('{"anchor_n": 2}\n')
        files[bad].write_bytes(files[bad].read_bytes()[:-1] + b"\xff\n")
        err = self.check_io_error(capsys, ["counts", "--bank", str(files["bank"]),
                                           "--sweep", str(files["sweep"]),
                                           "--config", str(files["config"]),
                                           "-o", str(tmp_path / "c.csv")])
        assert str(files[bad]) in err
        assert all(str(path) not in err for kind, path in files.items() if kind != bad)
        assert not (tmp_path / "c.csv").exists()


def test_an_overflowing_target_is_a_usage_error_without_warnings(tmp_path, bank12_csv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["enumerate", "--bank", str(bank12_csv), "--n", "2",
                     "--target", "1e308,1e308,1e308", "-o", str(tmp_path / "e.json")])
    assert code == EXIT_USAGE
    assert "curve values must all be finite" in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []


class TestAssembleOutputs:
    def test_bad_epsilon_fails_before_annealing(self, tmp_path, bank12_csv, capsys, monkeypatch):
        def no_anneal(*args, **kwargs):
            raise AssertionError("annealed with an invalid epsilon")

        monkeypatch.setattr("fixedform.cli.anneal", no_anneal)
        out = tmp_path / "t.json"
        code = main(["assemble", "--bank", str(bank12_csv), "--n", "4", "--seed", "0",
                     "--epsilon", "-1", "-o", str(out)])
        assert code == EXIT_USAGE
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_trace_leaves_no_test_file(self, tmp_path, bank12_csv, scaled_target_arg):
        out = tmp_path / "t.json"
        code = main(["assemble", "--bank", str(bank12_csv), "--target", scaled_target_arg,
                     "--n", "6", "--seed", "0", "--trace", str(tmp_path / "no" / "trace.csv"),
                     "-o", str(out)])
        assert code == EXIT_IO
        assert not out.exists()
        assert not (tmp_path / "t.json.manifest.json").exists()


class TestManifestFingerprints:
    def sha256(self, path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_counts_with_a_bank_fingerprints_both_inputs(self, tmp_path, bank12_csv):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2, 3], m=12)
        out = tmp_path / "c.csv"
        assert main(["counts", "--sweep", str(sweep_csv), "--bank", str(bank12_csv),
                     "--anchor-n", "2", "-o", str(out)]) == EXIT_OK
        manifest = read_manifest(out)
        assert manifest["bank_sha256"] == self.sha256(bank12_csv)
        assert manifest["sweep_sha256"] == self.sha256(sweep_csv)
        assert "target_coefficients_descending" not in manifest

    def test_counts_without_a_bank_has_no_bank_fingerprint(self, tmp_path):
        sweep_csv = tmp_path / "sweep.csv"
        write_unit_sweep(sweep_csv, [2, 3], m=12)
        out = tmp_path / "c.csv"
        assert main(["counts", "--sweep", str(sweep_csv), "--m", "12",
                     "--anchor-n", "2", "-o", str(out)]) == EXIT_OK
        assert list(read_manifest(out)) == ["command", "parameters", "sweep_sha256",
                                            "tool_version", "timestamp"]

    def test_enumerate_fingerprints_bank_and_target(self, tmp_path, bank12_csv):
        out = tmp_path / "e.json"
        assert main(["enumerate", "--bank", str(bank12_csv), "--target", "1,0,2",
                     "--n", "2", "-o", str(out)]) == EXIT_OK
        manifest = read_manifest(out)
        assert list(manifest) == ["command", "parameters", "bank_sha256",
                                  "target_coefficients_descending", "tool_version", "timestamp"]
        assert manifest["bank_sha256"] == self.sha256(bank12_csv)
        assert manifest["target_coefficients_descending"] == [1.0, 0.0, 2.0]

    def test_gen_bank_fingerprints_its_output(self, tmp_path):
        out = tmp_path / "bank.csv"
        assert main(["gen-bank", "--m", "4", "--seed", "2", "-o", str(out)]) == EXIT_OK
        assert read_manifest(out)["bank_sha256"] == self.sha256(out)


# Malformed-input property tests: whatever the flags or input files hold,
# main returns a documented exit code and never prints a traceback. Flags
# start from in-range values and one of them may then be replaced by junk.
# Values stay bounded: K <= 16384 (at most two 8192-draw chunks, so at most
# two threads), --m <= 40, --grid-points <= 241, lengths <= 13 on a 12-item
# bank.
JUNK = st.sampled_from(["", "x", "-", "--", "-1", "0", "13", "1e400", "nan", "inf", "0x10",
                        "3.5", " 2", "1,,2", "sideways", "no/out", "bank_ff.csv", "missing.csv"])
PATHS = ("bank.csv", "bank_ff.csv", "bank_bad.csv", "sweep.csv", "sweep_ff.csv", "sweep_dup.csv",
         "config.json", "config_ff.json", "missing.csv", "no/out", ".")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


_TARGET = {
    "--target": st.sampled_from(["lsat", "0.02,0,0.1,0,0.3", "1", "1e308,1e308,1e308"]),
    "--grid-points": _ints(2, 241),
    "--epsilon": _floats(0.01, 5.0),
}
# Per command: flags always given (so the budgets stay small), then optional flags.
_FLAGS = {
    "gen-bank": (
        {"--m": _ints(1, 40)},
        {"--seed": _ints(0, 2**64), "--a-min": _floats(0.1, 2.0), "--a-max": _floats(2.0, 4.0),
         "--b-min": _floats(-4.0, 0.0), "--b-max": _floats(0.0, 4.0), "--c": _floats(0.0, 0.9)},
    ),
    "sweep": (
        {"--bank": st.just("bank.csv"), "--K": _ints(1, 16384), "--n-from": _ints(1, 12),
         "--n-to": _ints(1, 12), "--seed": _ints(0, 2**64)},
        {"--modes": st.sampled_from(["absolute", "exceeding,relative", "relative"]),
         "--K-meeting": _ints(1, 16384), "--K-exceeding": _ints(1, 16384),
         "--n-step": _ints(1, 12), "--workers": st.sampled_from(["-1", "0", "1", "2"]),
         "--config": st.sampled_from(["config.json", "config_ff.json"]), **_TARGET},
    ),
    "assemble": (
        {"--bank": st.just("bank.csv"), "--n": _ints(1, 12), "--max-proposals": _ints(1, 2000)},
        {"--seed": _ints(0, 2**64), "--T0": _floats(0.001, 1.0), "--alpha": _floats(0.01, 0.99),
         "--iters-per-temp": _ints(1, 1000), "--greedy-init": st.none(), "--trace": st.just("trace"),
         **_TARGET},
    ),
    "counts": (
        {"--sweep": st.just("sweep.csv"), "--m": _ints(5, 40), "--anchor-n": _ints(2, 5)},
        {"--bank": st.just("bank.csv"), "--modes": st.sampled_from(["absolute", "exceeding"])},
    ),
    "enumerate": (
        {"--bank": st.just("bank.csv"), "--n": _ints(1, 12)},
        dict(_TARGET),
    ),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional = _FLAGS[command]
    flags = draw(st.fixed_dictionaries({**required, "-o": st.just("out")}, optional=optional))
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(flags)))
        flags[flag] = draw(st.one_of(JUNK, st.sampled_from(PATHS)))
    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def input_files(tmp_path_factory, bank12_csv):
    root = tmp_path_factory.mktemp("inputs")
    bank = bank12_csv.read_bytes()
    (root / "bank.csv").write_bytes(bank)
    (root / "bank_ff.csv").write_bytes(bank[:40] + b"\xff" + bank[40:])
    (root / "bank_bad.csv").write_text("id,a,b,c\n0,zap,0.0,0.2\n")
    write_unit_sweep(root / "sweep.csv", [2, 3, 4, 5], m=12, mu=0.25)
    sweep = (root / "sweep.csv").read_bytes()
    (root / "sweep_ff.csv").write_bytes(sweep + b"\xff\n")
    (root / "sweep_dup.csv").write_bytes(sweep + sweep.splitlines(keepends=True)[1])
    (root / "config.json").write_text('{"K_meeting": 2.5, "workers": 2.5}')
    (root / "config_ff.json").write_bytes(b'{"n": "\xff"}')
    return root


def _run_isolated(argv, inputs):
    """Run main in a fresh working directory; return (exit code, stderr).

    Names in PATHS given to an input flag refer to the prepared input files;
    every other relative path lands in the working directory.
    """
    argv = [str(inputs / value) if flag in ("--bank", "--sweep", "--config") and value in PATHS
            else value for flag, value in zip([""] + argv, argv)]
    cwd = os.getcwd()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


_JUNK_CELLS = st.sampled_from(["", "x", "-1", "2.0", "nan", "inf", "1e400", "99", "\xff", "\x00", '"'])


def _cell(lo, hi):
    return st.floats(lo, hi).map(repr)


@st.composite
def _bank_rows(draw):
    return [[str(i), draw(_cell(0.1, 3.0)), draw(_cell(-3.0, 3.0)), draw(_cell(0.0, 0.5))]
            for i in range(draw(st.integers(0, 14)))]


@st.composite
def _sweep_rows(draw):
    # Length 2 is the anchor the counts run asks for.
    lengths = [2] + draw(st.lists(st.integers(1, 12).filter(lambda n: n != 2), max_size=5, unique=True))
    return [[str(n)] + [draw(_cell(0.0, 1.0)), "0.0"] * 3 + ["100", "100", "0"] for n in lengths]


@st.composite
def _csv_bytes(draw, header, rows):
    """A CSV file built from in-range rows, maybe with one cell, row or header spoiled."""
    lines = [list(header)] + draw(rows)
    spoil = draw(st.sampled_from(["none", "cell", "drop", "extra", "header"]))
    if spoil != "none":
        line = lines[draw(st.integers(0 if spoil == "header" else min(1, len(lines) - 1),
                                      0 if spoil == "header" else len(lines) - 1))]
        if spoil == "drop" and line:
            line.pop()
        elif spoil == "extra":
            line.append(draw(_JUNK_CELLS))
        elif line:
            line[draw(st.integers(0, len(line) - 1))] = draw(_JUNK_CELLS)
    return "\n".join(",".join(line) for line in lines).encode()


_JSON_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(),
                       st.sampled_from(["", "x", "lsat", "3", "1e400", "nan"]),
                       st.lists(st.integers(0, 3), max_size=2),
                       st.dictionaries(st.just("k"), st.integers(0, 3)))


@st.composite
def _config_bytes(draw):
    """A sweep config (maybe a manifest) with small draws and lengths, maybe one value spoiled."""
    doc = draw(st.fixed_dictionaries(
        {"K": st.integers(1, 12), "n_from": st.integers(1, 6), "n_to": st.integers(6, 12)},
        optional={"n_step": st.integers(1, 3), "workers": st.integers(1, 2),
                  "seed": st.integers(0, 2**64), "modes": st.sampled_from(["absolute", "exceeding"]),
                  "target": st.just("lsat"), "grid_points": st.integers(2, 121),
                  "epsilon": st.floats(0.1, 3.0), "K_meeting": st.none()},
    ))
    if draw(st.booleans()):
        key = draw(st.sampled_from(["K", "n_from", "n_to", "n_step", "workers", "seed", "modes",
                                    "target", "grid_points", "epsilon", "bank", "trace", "turbo"]))
        doc[key] = draw(_JSON_JUNK)
        if key == "K" and doc[key] is None:
            doc[key] = 3.7  # a null K would fall back to the 100,000-draw default
    if draw(st.booleans()):
        doc = {"command": draw(st.sampled_from(["sweep", "counts", None])), "parameters": doc}
    return json.dumps(doc).encode()


class TestMalformedInputProperties:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_argv())
    def test_any_argv_gives_a_documented_exit_code(self, input_files, argv):
        code, err = _run_isolated(argv, input_files)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_BUDGET)
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["bank", "sweep", "config"]), data=st.data())
    def test_any_input_file_gives_a_documented_exit_code(self, input_files, kind, data):
        structured = {
            "bank": _csv_bytes(["id", "a", "b", "c"], _bank_rows()),
            "sweep": _csv_bytes(SWEEP_HEADER, _sweep_rows()),
            "config": _config_bytes(),
        }[kind]
        content = data.draw(st.one_of(st.binary(max_size=64), structured))
        path = input_files / f"fuzz_{kind}"
        path.write_bytes(content)
        argv = {
            "bank": ["enumerate", "--bank", str(path), "--n", "2"],
            "sweep": ["counts", "--sweep", str(path), "--m", "12", "--anchor-n", "2"],
            "config": ["sweep", "--bank", "bank.csv", "--config", str(path)],
        }[kind]
        code, err = _run_isolated(argv + ["-o", "out"], input_files)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_BUDGET)
        assert "Traceback" not in err
