import json
import math

import pytest

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
