import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from caf import cli
from caf.errors import InvalidArgumentError


def run(tmp_path, *argv):
    out = tmp_path / "out"
    rc = cli.main([*argv, "--out", str(out)])
    assert rc == 0
    return out


class TestConfig:
    def test_parse_types_and_lists(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nseed = 7\nsnr_db = 20, 30.5\nname = hello\n")
        parsed = cli.parse_config(str(cfg))
        assert parsed == {"seed": 7, "snr_db": [20, 30.5], "name": "hello"}

    def test_flags_win(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 7\nh2_points = 5\n")
        out = run(tmp_path, "fig2", "--config", str(cfg), "--seed", "9",
                  "--snr-db", "20", "--set", "h2_points=3")
        blob = json.loads((out / "run.json").read_text())
        assert blob["config"]["seed"] == 9
        assert blob["config"]["h2_points"] == 3

    def test_set_without_equals_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig2", "--set", "foo", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: caf")
        assert "--set expects KEY=VALUE, got 'foo'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("item", ["=5", "h2_points=", "h2_points= ", " =3"])
    def test_set_with_empty_key_or_value_is_a_usage_error(self, tmp_path, capsys, item):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig2", "--set", item, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"--set expects KEY=VALUE, got {item!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["h2_points =", "= 5", "h2_points"])
    def test_config_line_without_key_or_value_is_rejected(self, tmp_path, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"seed = 1\n{line}\n")
        with pytest.raises(ValueError, match="bad config line"):
            cli.parse_config(str(cfg))

    def test_list_for_a_single_valued_key_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="config keys seed take one value"):
            cli.main(["fig2", "--set", "seed=1,2", "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()
        cfg = tmp_path / "c.cfg"
        cfg.write_text("h2_points = 3, 4\n")
        with pytest.raises(ValueError, match="config keys h2_points take one value"):
            cli.main(["fig2", "--config", str(cfg), "--out", str(tmp_path / "o")])


class TestFig2:
    def test_deterministic_bytes_and_svg(self, tmp_path):
        args = ["fig2", "--set", "h2_points=11", "--snr-db", "20", "30"]
        out1 = run(tmp_path / "a", *args)
        out2 = run(tmp_path / "b", *args)
        csv1 = (out1 / "fig2.csv").read_bytes()
        assert csv1 == (out2 / "fig2.csv").read_bytes()
        header = csv1.decode().splitlines()[0].split(",")
        assert header[0] == "schema_version"
        assert {"h2", "snr_db", "a1", "a2", "normalized_rate"} <= set(header)
        svg = ET.parse(out1 / "fig2.svg").getroot()
        assert svg.tag.endswith("svg")
        assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()

    def test_endpoint_value(self, tmp_path):
        out = run(tmp_path, "fig2", "--set", "h2_points=3", "--snr-db", "20")
        lines = (out / "fig2.csv").read_text().splitlines()[1:]
        first = lines[0].split(",")
        assert float(first[3]) == 0.0
        assert float(first[7]) == 1.0


class TestDof:
    def test_slopes_present(self, tmp_path):
        out = run(tmp_path, "dof", "--set", "n_rational=1", "--set", "n_real=1",
                  "--snr-db", "40", "50", "60")
        lines = (out / "dof.csv").read_text().splitlines()
        slopes = [l for l in lines if ",slope," in l]
        assert len(slopes) == 2 * 4  # 2 channels x 4 curves
        points = [l for l in lines if ",rate," in l]
        assert len(points) == 2 * 4 * 3


class TestAlign:
    def test_noiseless_example_zero_errors(self, tmp_path):
        out = run(tmp_path, "align", "--p", "5", "--trials", "200",
                  "--set", "noise_variance=0")
        header, row = [l.split(",") for l in (out / "align.csv").read_text().splitlines()]
        rec = dict(zip(header, row))
        assert rec["demod_symbol_errors"] == "0"
        assert rec["equation_block_errors"] == "0"
        assert rec["message_mismatches"] == "0"
        assert (out / "code_p5.txt").exists()

    def test_oracle_injection_with_correctable_corruption(self, tmp_path):
        out = run(tmp_path, "align", "--p", "5", "--trials", "100",
                  "--set", "noise_variance=0", "--set", "demod_strategy=oracle",
                  "--set", "inject_corruptions=1", "--set", "t_len=7",
                  "--set", "message_len=2")
        header, row = [l.split(",") for l in (out / "align.csv").read_text().splitlines()]
        rec = dict(zip(header, row))
        assert rec["equation_block_errors"] == "0"
        assert rec["message_mismatches"] == "0"

    def test_noisy_canonical_error_rate_bounded(self, tmp_path):
        out = run(tmp_path, "align", "--p", "3", "--trials", "300",
                  "--set", "geometry=canonical", "--l", "1",
                  "--set", "noise_variance=1", "--set", "c5=1.0",
                  "--set", "t_len=15", "--set", "message_len=3")
        header, row = [l.split(",") for l in (out / "align.csv").read_text().splitlines()]
        rec = dict(zip(header, row))
        rate = int(rec["demod_symbol_errors"]) / int(rec["demod_symbols"])
        n = int(rec["demod_symbols"])
        bound = math.exp(-0.5 * 3)  # exp(-c5^2 p / 2)
        assert rate <= bound + 3 * math.sqrt(bound * (1 - bound) / n)

    def test_inconsistent_example_system_counts_as_mismatch(self, tmp_path):
        # three flips per block beat the distance-3 code; the wrong equations
        # make the overdetermined example system inconsistent for some trials
        out = run(tmp_path, "align", "--p", "5", "--trials", "100",
                  "--set", "noise_variance=0", "--set", "demod_strategy=oracle",
                  "--set", "inject_corruptions=3", "--set", "t_len=7",
                  "--set", "message_len=2")
        header, row = [l.split(",") for l in (out / "align.csv").read_text().splitlines()]
        rec = dict(zip(header, row))
        assert 0 < int(rec["message_mismatches"]) <= int(rec["trials"])
        assert int(rec["equation_block_errors"]) > 0

    def test_non_prime_p_rejected(self, tmp_path):
        for geometry in ("example", "canonical"):
            with pytest.raises(InvalidArgumentError, match="6 is not prime"):
                cli.main(["align", "--p", "6", "--trials", "5", "--set", f"geometry={geometry}",
                          "--out", str(tmp_path / geometry)])

    def test_negative_noise_variance_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="noise variance"):
            cli.main(["align", "--p", "5", "--trials", "5", "--set", "noise_variance=-1",
                      "--out", str(tmp_path / "o")])

    def test_determinism(self, tmp_path):
        args = ["align", "--p", "5", "--trials", "50", "--set", "noise_variance=1",
                "--set", "geometry=canonical", "--l", "1", "--set", "t_len=7",
                "--set", "message_len=2"]
        out1 = run(tmp_path / "a", *args)
        out2 = run(tmp_path / "b", *args)
        assert (out1 / "align.csv").read_bytes() == (out2 / "align.csv").read_bytes()


class TestInvert:
    def test_small_run_counts(self, tmp_path):
        out = run(tmp_path, "invert", "--k", "2", "--l", "2", "--p", "5",
                  "--set", "samples=5")
        header, row = [l.split(",") for l in (out / "invert.csv").read_text().splitlines()]
        rec = dict(zip(header, row))
        total = int(rec["samples"]) - int(rec["rejected"])
        assert int(rec["injective_pass"]) == total
        assert int(rec["peel_equals_solve"]) == total

    def test_second_prime_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"invert takes one prime p, got p=\[3, 5\]"):
            cli.main(["invert", "--k", "2", "--l", "1", "--p", "3", "5",
                      "--set", "samples=1", "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "invert.csv").exists()

    def test_negative_samples_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="samples must be >= 0, got -4"):
            cli.main(["invert", "--set", "samples=-4", "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "invert.csv").exists()


class TestDioph:
    def test_rows_and_flags(self, tmp_path):
        out = run(tmp_path, "dioph", "--set", "q_max=500", "--p", "2", "3")
        lines = (out / "dioph.csv").read_text().splitlines()
        header = lines[0].split(",")
        value_col = header.index("value")
        slopes = [l for l in lines if ",slope," in l]
        assert len(slopes) == 3
        assert any("rational_1_3" in l and "degenerate" in l for l in slopes)
        ratios = [l for l in lines if "separation_ratio" in l]
        assert len(ratios) == 2
        for l in ratios:
            assert float(l.split(",")[value_col]) > 0


class TestWorkers:
    def test_parallel_fig2_identical_bytes(self, tmp_path):
        base = ["fig2", "--set", "h2_points=9", "--snr-db", "20", "30"]
        serial = run(tmp_path / "s", *base)
        parallel = run(tmp_path / "p", *base, "--set", "workers=2")
        assert (serial / "fig2.csv").read_bytes() == (parallel / "fig2.csv").read_bytes()


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys"):
            cli.main(["fig2", "--set", "h2_poins=5", "--out", str(tmp_path / "o")])

    def test_schema_lists_allowed_keys(self):
        with pytest.raises(ValueError, match="allowed:"):
            cli.RunConfig("invert", {"bogus": 1}).validate()


class TestCodeFile:
    def test_stored_code_reused(self, tmp_path):
        out1 = run(tmp_path / "a", "align", "--p", "5", "--trials", "20",
                   "--set", "noise_variance=0", "--set", "t_len=7",
                   "--set", "message_len=2")
        stored = out1 / "code_p5.txt"
        out2 = run(tmp_path / "b", "align", "--p", "5", "--trials", "20",
                   "--set", "noise_variance=0",
                   "--set", f"code_file={stored}")
        assert (out2 / "code_p5.txt").read_text() == stored.read_text()

    def test_wrong_field_rejected(self, tmp_path):
        out1 = run(tmp_path / "a", "align", "--p", "5", "--trials", "10",
                   "--set", "noise_variance=0", "--set", "t_len=7",
                   "--set", "message_len=2")
        with pytest.raises(ValueError, match="stored code"):
            cli.main(["align", "--p", "3", "--trials", "10",
                      "--set", "noise_variance=0",
                      "--set", f"code_file={out1 / 'code_p5.txt'}",
                      "--out", str(tmp_path / "c")])

    def test_non_injective_code_rejected(self, tmp_path):
        code = tmp_path / "code.txt"
        # second column is zero: message (0, 1) encodes to the zero word
        code.write_text("5 4 2\n1 0\n2 0\n3 0\n4 0\n")
        with pytest.raises(InvalidArgumentError, match="stored code .* not injective"):
            cli.main(["align", "--p", "5", "--trials", "10",
                      "--set", "noise_variance=0", "--set", f"code_file={code}",
                      "--out", str(tmp_path / "c")])
