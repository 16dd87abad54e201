import collections
import csv
import hashlib
import io
import json
import math
import os
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from caf import alignment, cli, inversion
from caf.errors import (
    InvalidArgumentError,
    NonGenericChannelError,
    NumericRangeError,
    ResourceLimitError,
)
from caf.seeding import child_rng


def no_channel_draw(*args, **kwargs):
    raise AssertionError("bad input reached the channel draw")


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

    def test_config_errors_are_typed(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed\n")
        with pytest.raises(InvalidArgumentError, match="bad config line"):
            cli.parse_config(str(cfg))
        with pytest.raises(InvalidArgumentError, match="unknown config keys for align: bogus"):
            cli.RunConfig("align", {"bogus": 1}).validate()
        with pytest.raises(InvalidArgumentError, match="config keys trials take one value"):
            cli.RunConfig("align", {"trials": [1, 2]}).validate()


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

    def test_error_markers_pinned_bytes(self, tmp_path):
        # -5 dB fails the SNR check and 130 dB is past double precision: each
        # failing point is written as an error marker, the others as values
        out = run(tmp_path, "fig2", "--snr-db", "-5", "20", "130", "--set", "h2_points=3",
                  "--seed", "0")
        text = (out / "fig2.csv").read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "db99ab74b275b72336a2a9371c588ec3073d96b4c715406af0f8f2ec2e114ee9")
        values = [line.split(",")[4:] for line in text.splitlines()[1:]]
        assert [v[3] for v in values if v[0] == "-5"] == ["error:InvalidArgumentError"] * 3
        assert [v[3] for v in values if v[0] == "130"] == ["error:NumericRangeError"] * 3

    @pytest.mark.parametrize("snrs", [("20", "30"), ("20", "20", "40"),
                                      ("-5", "20", "20.00000000000001", "20", "130")])
    def test_svg_plots_the_csv_values(self, tmp_path, snrs):
        # the SVG drawn from the CSV text read back: a series takes, in row order, every
        # row whose printed SNR parses to its own, so a repeated SNR plots both columns
        out = run(tmp_path, "fig2", "--set", "h2_points=9", "--snr-db", *snrs)
        data = list(csv.reader(io.StringIO((out / "fig2.csv").read_text())))[1:]
        series = []
        for db in map(float, snrs):
            rows = [r for r in data if float(r[4]) == db and not r[7].startswith("error")]
            series.append((f"{db:g} dB", ([float(r[3]) for r in rows], [float(r[7]) for r in rows])))
        want = cli.svg_line_chart(series, "normalized best-equation rate, h = (1, h2)",
                                  "h2", "normalized rate")
        assert (out / "fig2.svg").read_text() == want

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

    def test_k3_default_grid_completes(self, tmp_path):
        # the whole-ball search exceeded its budget at 40 dB, the grid's first point
        out = run(tmp_path, "dof", "--k", "3")
        rows = list(csv.DictReader(io.StringIO((out / "dof.csv").read_text())))
        lattice = {(r["h_id"], r["snr_db"]): float(r["value"]) for r in rows
                   if r["curve"] == "lattice" and r["record"] == "rate"}
        mimo = {(r["h_id"], r["snr_db"]): float(r["value"]) for r in rows
                if r["curve"] == "mimo" and r["record"] == "rate"}
        assert len(lattice) == 10 * 9  # 5 rational + 5 real channels, 40-80 dB
        assert all(0.0 < lattice[key] <= mimo[key] for key in lattice)


    @pytest.mark.parametrize("snrs, message", [
        (("40", "20", "60"), "powers must be strictly increasing"),
        (("20", "40"), "need at least 3 matched samples"),
    ])
    def test_bad_grid_fails_before_any_search(self, tmp_path, monkeypatch, snrs, message):
        monkeypatch.setattr(cli.rates, "_sum_rates", no_search)
        monkeypatch.setattr(cli.rates, "_mimo_bounds", no_search)
        with pytest.raises(InvalidArgumentError, match=message):
            cli.main(["dof", "--snr-db", *snrs, "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("config, snrs", [
        ({"k": 3, "n_rational": 0, "n_real": 6}, (10, 12.5, 15)),  # the dof_k3 benchmark
        ({"k": 2}, tuple(range(40, 81, 5))),
        ({"k": 3}, tuple(range(40, 81, 5))),
    ], ids=["dof_k3", "default-k2", "default-k3"])
    def test_grids_take_no_scalar_walk(self, config, snrs):
        powers = [float(cli.rates.db_to_linear(float(db))) for db in snrs]
        for _, _, H in cli._dof_channels(config, 0):
            _, walked = cli.rates._sum_rates(H, powers)
            assert not walked.any()


def no_search(*args, **kwargs):
    raise AssertionError("a bad grid reached the searches")


class TestRunJson:
    def test_lists_only_this_commands_files(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["invert", "--k", "2", "--l", "1", "--p", "3", "--set", "samples=1",
                  "--out", str(out)])
        cli.main(["fig2", "--snr-db", "20", "--set", "h2_points=3", "--out", str(out)])
        assert json.loads((out / "run.json").read_text())["outputs"] == ["fig2.csv", "fig2.svg"]
        assert (out / "invert.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("fig2", "--snr-db", "20", "--set", "h2_points=3"),
        ("dof", "--snr-db", "10", "20", "30", "--set", "n_rational=1", "--set", "n_real=0"),
        ("align", "--p", "3", "5", "3", "--trials", "2"),
        ("invert", "--k", "2", "--l", "1", "--p", "3", "--set", "samples=1"),
        ("dioph", "--set", "q_max=50", "--p", "2"),
    ], ids=lambda argv: argv[0])
    def test_fresh_directory_lists_what_it_holds(self, tmp_path, argv):
        # the listing run.json had when it was the directory's contents
        out = run(tmp_path, *argv)
        blob = json.loads((out / "run.json").read_text())
        assert blob["outputs"] == sorted(set(os.listdir(out)) - {"run.json"})


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

    @pytest.mark.parametrize("c5", ["0", "-1"])
    @pytest.mark.parametrize("geometry", ["canonical", "example"])
    def test_non_positive_c5_rejected(self, tmp_path, geometry, c5):
        with pytest.raises(InvalidArgumentError, match=f"c5 must be finite and > 0, got {float(c5)}"):
            cli.main(["align", "--p", "5", "--trials", "5", "--set", f"geometry={geometry}",
                      "--set", "noise_variance=1", "--set", f"c5={c5}",
                      "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "align.csv").exists()

    @pytest.mark.parametrize("c5", ["-1", "nan"])
    @pytest.mark.parametrize("settings", [("geometry=example",),
                                          ("geometry=canonical", "scaling_mode=unit")],
                             ids=["example", "canonical_unit"])
    def test_c5_checked_where_scaling_ignores_it(self, tmp_path, settings, c5):
        # the example geometry at noise 0 scales by 1 and so does canonical
        # unit scaling; neither reads c5, but the CSV would still echo it
        sets = [arg for item in settings for arg in ("--set", item)]
        with pytest.raises(InvalidArgumentError, match=f"c5 must be finite and > 0, got {float(c5)}"):
            cli.main(["align", "--p", "5", "--trials", "5", *sets, "--set", "noise_variance=0",
                      "--set", f"c5={c5}", "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "align.csv").exists()

    MISMATCH_PINS = [
        # noise 4 makes some trials' overdetermined example systems
        # inconsistent; each such trial is one mismatch
        (("--p", "3", "5", "7", "--trials", "200", "--set", "noise_variance=4",
          "--seed", "0"), [12, 3, 0]),
        (("--p", "3", "5", "7", "--trials", "200", "--set", "noise_variance=4",
          "--seed", "1"), [0, 2, 1]),
        # canonical peeling never fails, so wrong trials are counted from
        # one solve of the whole block
        (("--p", "3", "5", "--trials", "100", "--set", "geometry=canonical", "--l", "1",
          "--set", "demod_strategy=oracle", "--set", "inject_corruptions=2",
          "--set", "t_len=7", "--set", "message_len=2"), [22, 18]),
    ]

    @pytest.mark.parametrize("argv, mismatches", MISMATCH_PINS,
                             ids=["example_n4_s0", "example_n4_s1", "canonical_injected"])
    def test_message_mismatches(self, tmp_path, argv, mismatches):
        out = run(tmp_path, "align", *argv)
        header, *rows = [l.split(",") for l in (out / "align.csv").read_text().splitlines()]
        col = header.index("message_mismatches")
        assert [int(r[col]) for r in rows] == mismatches

    @pytest.mark.parametrize("changes", [
        [(0, 0, 0)], [(31, 1, 3)], [(5, 1, 0)], [(17, 0, 2)],
        [(3, 0, 1), (20, 1, 1)],  # two symbols of one trial: one mismatch
        [(9, 1, 0), (9, 1, 2)],  # one symbol of two trials: two mismatches
    ], ids=["first", "last", "trial0", "trial2", "one_trial_twice", "two_trials"])
    def test_mismatches_count_trials(self, tmp_path, monkeypatch, changes):
        # a noiseless oracle run recovers every trial; each (column, symbol,
        # trial) entry changed below makes its trial one mismatch
        real = cli.inversion.peel_invert

        def peel_with_changes(eqsys, u):
            result = real(eqsys, u)
            # each column of the result is u's (message_len, trials) flattened
            values = result.values.reshape(len(result.values), *u[0].shape[1:])
            assert np.shares_memory(values, result.values) and values.shape[1:] == (2, 4)
            for c, s, t in changes:
                values[c, s, t] = (values[c, s, t] + 1) % eqsys.p
            return result

        monkeypatch.setattr(cli.inversion, "peel_invert", peel_with_changes)
        out = run(tmp_path, "align", "--p", "5", "--trials", "4", "--set", "geometry=canonical",
                  "--l", "2", "--set", "scaling_mode=unit", "--set", "demod_strategy=oracle",
                  "--set", "noise_variance=0", "--set", "t_len=7", "--set", "message_len=2")
        header, row = [l.split(",") for l in (out / "align.csv").read_text().splitlines()]
        rec = dict(zip(header, row))
        assert rec["equation_block_errors"] == "0"
        assert int(rec["message_mismatches"]) == len({t for _, _, t in changes})

    # SHA-256 of align.csv for fixed (config, seed): a faster pipeline must
    # leave these bytes alone
    ALIGN_DIGESTS = [
        (("--set", "noise_variance=4", "--seed", "0"),
         "611e16131f4507b9c23ebb135356eb5b0f1dd6bd046894aa1c6df0b95762092b"),
        (("--set", "geometry=canonical", "--l", "1", "--set", "c5=0.3",
          "--set", "noise_variance=3", "--seed", "1"),
         "6ac141c1eba04a650ec92920f0c481dd2488412ea8a52f6443f61452a7a4b242"),
    ]

    @pytest.mark.parametrize("argv, digest", ALIGN_DIGESTS, ids=["example_n4", "canonical_c03_n3"])
    def test_csv_digest(self, tmp_path, argv, digest):
        out = run(tmp_path, "align", "--p", "3", "5", "7", "--trials", "200", *argv)
        assert hashlib.sha256((out / "align.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("setting, message", [
        ("geometry=ring", "unknown geometry 'ring'"),
        ("scaling_mode=loose", "unknown scaling mode 'loose'"),
    ])
    def test_unknown_geometry_or_scaling_rejected_before_the_channel_draw(
            self, tmp_path, monkeypatch, setting, message):
        monkeypatch.setattr(cli, "_align_channel", no_channel_draw)
        with pytest.raises(InvalidArgumentError, match=message):
            cli.main(["align", "--p", "5", "--trials", "5", "--set", "geometry=canonical",
                      "--set", setting, "--out", str(tmp_path / "o")])
        assert os.listdir(tmp_path / "o") == []

    def test_worstcase_scaling_past_float_range_is_typed(self, tmp_path):
        # K=3, L=1: (Kp)^|G_2| = 9^512 = 2^1623.0
        with pytest.raises(NumericRangeError, match="worst-case scaling needs 2\\^1623"):
            cli.main(["align", "--p", "3", "--k", "3", "--trials", "5",
                      "--set", "geometry=canonical", "--set", "scaling_mode=worstcase",
                      "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "align.csv").exists()

    # SHA-256 of align.csv at 50 trials, one config per scaling mode and
    # demod branch that caf align selects
    BRANCH_DIGESTS = [
        (("--set", "geometry=canonical", "--l", "1", "--set", "noise_variance=1"),
         "b4d9b0e4dac7699fc47ff4a82c0b78e94ff2fa2ffc0e7240533e8dc2aa3a90b2"),
        (("--set", "geometry=canonical", "--l", "1", "--set", "scaling_mode=worstcase",
          "--set", "noise_variance=0"),
         "4a807efd046d89fdd73a3a34efd1bb530efc9ebda530501f99de891004b970e1"),
        (("--set", "geometry=canonical", "--l", "1", "--set", "scaling_mode=unit",
          "--set", "noise_variance=0"),
         "4a2f9d186ff45b3cd8ff014cd580c5898ef146fb467155e86f53e99faa158d40"),
        (("--set", "noise_variance=0",),
         "4ec12ed1b6d261214302a6b25900be0b065c5f5b8891bc2e0197d079e4e97afb"),
        (("--set", "noise_variance=1",),
         "9fe629a2b5806423d9695ae2181c40136445f43234d6dbd3f6a66e1680530439"),
        (("--set", "geometry=canonical", "--l", "1", "--set", "demod_strategy=oracle",
          "--set", "inject_corruptions=2", "--set", "t_len=7", "--set", "message_len=2"),
         "95d356a5e6971cd88e4560ae2158f76780ac2ce34e68409dfbb5aa9d3a1287b1"),
    ]

    @pytest.mark.parametrize("argv, digest", BRANCH_DIGESTS, ids=[
        "canonical_tight_n1", "canonical_worstcase_n0", "canonical_unit_n0",
        "example_n0", "example_n1", "canonical_oracle_inject2"])
    def test_scaling_and_demod_branch_digest(self, tmp_path, argv, digest):
        out = run(tmp_path, "align", "--p", "3", "5", "--trials", "50", *argv)
        assert hashlib.sha256((out / "align.csv").read_bytes()).hexdigest() == digest

    def test_one_equation_system_per_prime(self, tmp_path, monkeypatch):
        calls = []
        derive = cli.alignment.derive_equation_system

        def counted(sig):
            calls.append(sig.p)
            return derive(sig)

        monkeypatch.setattr(cli.alignment, "derive_equation_system", counted)
        run(tmp_path, "align", "--p", "3", "5", "7", "11", "--trials", "20",
            "--set", "geometry=canonical")
        assert calls == [3, 5, 7, 11]

    def test_one_signature_per_run(self, tmp_path, monkeypatch):
        # G_{L+1} and its genericity check depend on H and L only, not on p
        calls = []
        build = cli.alignment.diophantine.build_monomial_set

        def counted(H, L):
            calls.append(L)
            return build(H, L)

        monkeypatch.setattr(cli.alignment.diophantine, "build_monomial_set", counted)
        run(tmp_path, "align", "--p", "3", "5", "7", "11", "--trials", "20",
            "--set", "geometry=canonical")
        assert calls == [2]

    @pytest.mark.parametrize("strategy", ["exhaustive", "mitm"])
    def test_only_non_codewords_reach_the_exhaustive_decoder(self, tmp_path, monkeypatch, strategy):
        # the benchmark's align_mc command at seed 0: md_decode gets 1,200
        # words per prime, and the codewords among them never reach the search
        decoded, searched = collections.Counter(), collections.Counter()
        decode, nearest = cli.fpcode.md_decode, cli.fpcode._nearest

        def counted_decode(S, received, budget=cli.fpcode.DECODE_BUDGET):
            decoded[S.p] += received.shape[1]
            return decode(S, received, budget)

        def counted_nearest(S, batch):
            searched[S.p] += batch.shape[1]
            return nearest(S, batch)

        monkeypatch.setattr(cli.fpcode, "md_decode", counted_decode)
        monkeypatch.setattr(cli.fpcode, "_nearest", counted_nearest)
        run(tmp_path, "align", "--p", "3", "5", "7", "11", "--trials", "300",
            "--set", "geometry=canonical", "--l", "1", "--set", "noise_variance=1",
            "--set", "c5=1.0", "--set", f"demod_strategy={strategy}")
        assert decoded == {3: 1200, 5: 1200, 7: 1200, 11: 1200}
        assert searched == {3: 244, 5: 116, 7: 46}

    @pytest.mark.parametrize("geometry", ["example", "canonical"])
    def test_non_prime_p_rejected_before_the_channel_draw(self, tmp_path, monkeypatch, geometry):
        monkeypatch.setattr(cli, "_align_channel", no_channel_draw)
        with pytest.raises(InvalidArgumentError, match="^6 is not prime$"):
            cli.main(["align", "--p", "3", "6", "--trials", "5", "--set", f"geometry={geometry}",
                      "--out", str(tmp_path / "o")])
        assert os.listdir(tmp_path / "o") == []

    @pytest.mark.parametrize("argv, message", [
        (("--k", "3"), "geometry=example is K=2 only, got k=3"),
        (("--l", "3"), "geometry=example takes no l;"),
        (("--l", "1"), "geometry=example takes no l;"),
        (("--set", "scaling_mode=worstcase"), "geometry=example takes no scaling_mode;"),
        (("--k", "3", "--l", "3", "--set", "scaling_mode=worstcase"), "K=2 only"),
        (("--l", "3", "--set", "scaling_mode=unit"), "takes no l or scaling_mode;"),
    ], ids=["k3", "l3", "l1", "worstcase", "all_three", "l_and_unit"])
    def test_example_geometry_rejects_canonical_settings_before_the_channel_draw(
            self, tmp_path, monkeypatch, argv, message):
        monkeypatch.setattr(cli, "_align_channel", no_channel_draw)
        with pytest.raises(InvalidArgumentError, match=message):
            cli.main(["align", "--p", "5", "--trials", "5", "--set", "geometry=example", *argv,
                      "--out", str(tmp_path / "o")])
        assert os.listdir(tmp_path / "o") == []

    def test_oracle_run_does_not_demodulate(self, tmp_path, monkeypatch):
        def no_demod(*args, **kwargs):
            raise AssertionError("the oracle run called the demodulator")

        monkeypatch.setattr(cli.alignment, "ml_demodulate", no_demod)
        out = run(tmp_path, "align", "--p", "3", "5", "--trials", "20",
                  "--set", "demod_strategy=oracle")
        header, *rows = [l.split(",") for l in (out / "align.csv").read_text().splitlines()]
        assert [r[header.index("demod_symbol_errors")] for r in rows] == ["0", "0"]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_rejected(self, tmp_path, trials):
        with pytest.raises(InvalidArgumentError, match=f"trials must be >= 1, got {trials}"):
            cli.main(["align", "--p", "5", "--trials", trials, "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "align.csv").exists()

    def test_determinism(self, tmp_path):
        args = ["align", "--p", "5", "--trials", "50", "--set", "noise_variance=1",
                "--set", "geometry=canonical", "--l", "1", "--set", "t_len=7",
                "--set", "message_len=2"]
        out1 = run(tmp_path / "a", *args)
        out2 = run(tmp_path / "b", *args)
        assert (out1 / "align.csv").read_bytes() == (out2 / "align.csv").read_bytes()


def loop_invert_counts(k, l, p, samples, seed):
    """The four counts of ``caf invert`` by the per-sample loop: a peel and an elimination per sample.

    The oracle of the command, which peels each sample and runs no
    elimination. It draws the same channels and submessages, and reads the
    same ``cli.alignment`` functions.
    """
    full_rank = k * alignment.monomial_card(k, l)
    rng = child_rng(seed, 0)
    injective = peel_eq = rejected = 0
    for s in range(samples):
        H = rng.uniform(0.5, 2.0, size=(k, k))
        try:
            sig = cli.alignment.canonical_signature(H, l, p)
        except NonGenericChannelError:
            rejected += 1
            continue
        eqsys = cli.alignment.derive_equation_system(sig)
        w = [child_rng(seed, s, kk).integers(0, p, size=(len(sig.values[kk]), 1))
             for kk in range(k)]
        u = [t % p for t in cli.alignment.true_equations(w, eqsys)]
        peel = inversion.peel_invert(eqsys, u)
        solve = inversion.solve_linear(inversion.build_incidence(eqsys), u, eqsys)
        if solve.rank == full_rank:
            injective += 1
        if solve.values is not None:
            # both in col_keys order, the sent submessages' order
            sent = np.concatenate(w) % p
            if np.array_equal(peel.values, solve.values) and np.array_equal(peel.values, sent):
                peel_eq += 1
    return {"samples": samples, "injective_pass": injective,
            "peel_equals_solve": peel_eq, "rejected": rejected}


def invert_counts(tmp_path, k, l, p, samples, seed):
    out = run(tmp_path, "invert", "--k", str(k), "--l", str(l), "--p", str(p),
              "--set", f"samples={samples}", "--seed", str(seed))
    header, row = [l.split(",") for l in (out / "invert.csv").read_text().splitlines()]
    rec = dict(zip(header, row))
    return {key: int(rec[key]) for key in
            ("samples", "injective_pass", "peel_equals_solve", "rejected")}


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records each call's arguments; return the record."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


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
        with pytest.raises(InvalidArgumentError, match="invert takes one prime p"):
            cli.main(["invert", "--p", "3", "5", "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("flag, value, message", [
        ("--k", "0", "k must be >= 1, got 0"),
        ("--k", "-1", "k must be >= 1, got -1"),
        ("--l", "0", "l must be >= 1, got 0"),
        ("--l", "-2", "l must be >= 1, got -2"),
    ])
    def test_bad_k_or_l_rejected_up_front(self, tmp_path, monkeypatch, flag, value, message):
        def no_work(*args, **kwargs):
            raise AssertionError("bad input reached the signature construction")

        monkeypatch.setattr(cli.alignment, "canonical_signature", no_work)
        with pytest.raises(InvalidArgumentError, match=message):
            cli.main(["invert", flag, value, "--p", "3", "--set", "samples=2",
                      "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "invert.csv").exists()

    @pytest.mark.parametrize("l", ["2", "20"])
    def test_k4_refused_by_the_monomial_set_budget(self, tmp_path, l):
        # G_{L+1} at K=4 has (L+1)^16 monomials: 43,046,721 already at L=2
        with pytest.raises(ResourceLimitError, match=r"G_\d+ at K=4 has \d+ monomials"):
            cli.main(["invert", "--k", "4", "--l", l, "--p", "3", "--set", "samples=1",
                      "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "invert.csv").exists()

    def test_k3_l3_csv_digest(self, tmp_path):
        # G_4 values feed the genericity check: both draws are rejected at seed 0
        out = run(tmp_path, "invert", "--k", "3", "--l", "3", "--p", "3", "--set", "samples=2",
                  "--seed", "0")
        digest = hashlib.sha256((out / "invert.csv").read_bytes()).hexdigest()
        assert digest == "f55d42d644f098c029eada63374a80f67886501fe7d34c6f4a0a15d09f098869"

    def test_negative_samples_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="samples must be >= 0, got -4"):
            cli.main(["invert", "--set", "samples=-4", "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "invert.csv").exists()

    @pytest.mark.parametrize("samples", ["0", "2"])
    @pytest.mark.parametrize("p", ["4", "1", "0", "-3"])
    def test_non_prime_p_rejected_up_front(self, tmp_path, monkeypatch, p, samples):
        def no_work(*args, **kwargs):
            raise AssertionError("a non-prime p reached the signature construction")

        monkeypatch.setattr(cli.alignment, "canonical_signature", no_work)
        with pytest.raises(InvalidArgumentError, match=f"^{p} is not prime$"):
            cli.main(["invert", "--k", "2", "--l", "1", "--p", p, "--set", f"samples={samples}",
                      "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "invert.csv").exists()


def first_row(eqsys, u, sent, read):
    """The first flat equation row whose value off by one changes the peel's result (``read``)
    or leaves it at ``sent`` (not ``read``); None when no row qualifies."""
    flat = np.concatenate(u) % eqsys.p
    ends = np.cumsum([len(v) for v in u])[:-1]
    for r in range(len(flat)):
        bad = flat.copy()
        bad[r] += 1
        peel = inversion.peel_invert(eqsys, np.split(bad, ends))
        if np.array_equal(peel.values, sent) != read:
            return r
    return None


class TestInvertBatches:
    """``caf invert`` peels each accepted sample once; every count is the per-sample loop's."""

    @pytest.mark.parametrize("samples", [0, 1, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k, l, p", [(2, 1, 3), (2, 2, 5), (3, 1, 7), (3, 2, 3)])
    def test_counts_equal_the_loop(self, tmp_path, k, l, p, seed, samples):
        got = invert_counts(tmp_path, k, l, p, samples, seed)
        assert got == loop_invert_counts(k, l, p, samples, seed)

    def test_one_peel_per_sample_and_no_elimination(self, tmp_path, monkeypatch):
        peels = count_calls(monkeypatch, cli.inversion, "peel_invert")
        solves = count_calls(monkeypatch, cli.inversion, "solve_linear")
        incidences = count_calls(monkeypatch, cli.inversion, "build_incidence")
        got = invert_counts(tmp_path, 2, 2, 5, 5, 0)
        assert got["samples"] - got["rejected"] == 5
        assert (len(peels), len(solves), len(incidences)) == (5, 0, 0)
        assert got == loop_invert_counts(2, 2, 5, 5, 0)

    @pytest.mark.parametrize("read", [True, False], ids=["read", "unread"])
    def test_a_corrupted_sample_fails_alone(self, tmp_path, monkeypatch, read):
        # a row the peel never reads leaves its result at the sent values:
        # only the residual check A sent = u sees that corruption
        real = cli.alignment.true_equations

        def corrupt_second(calls):
            def true_equations(w, eqsys):
                u = real(w, eqsys)
                calls.append(None)
                if len(calls) == 2:
                    r = first_row(eqsys, u, np.concatenate(w) % eqsys.p, read)
                    assert r is not None
                    offsets = np.cumsum([0] + [len(v) for v in u])
                    m = int(np.searchsorted(offsets, r, side="right")) - 1
                    u[m][r - offsets[m]] += 1
                return u
            return true_equations

        monkeypatch.setattr(cli.alignment, "true_equations", corrupt_second([]))
        got = invert_counts(tmp_path, 2, 2, 5, 5, 0)
        monkeypatch.setattr(cli.alignment, "true_equations", corrupt_second([]))
        want = loop_invert_counts(2, 2, 5, 5, 0)
        assert got == want
        assert want["peel_equals_solve"] == want["injective_pass"] - 1 == 4

    def test_a_peel_stall_falls_back_to_the_elimination(self, tmp_path, monkeypatch):
        real = cli.inversion.peel_invert
        calls = []

        def stall_on_the_second(eqsys, u):
            calls.append(None)
            if len(calls) == 2:
                raise inversion.PeelStallError("stalled")
            return real(eqsys, u)

        monkeypatch.setattr(cli.inversion, "peel_invert", stall_on_the_second)
        solves = count_calls(monkeypatch, cli.inversion, "solve_linear")
        got = invert_counts(tmp_path, 2, 2, 5, 5, 0)
        assert got["samples"] - got["rejected"] == len(calls) == 5
        # the stalled sample's rank comes from the elimination; with no peel
        # to compare, it adds nothing to peel_equals_solve
        assert len(solves) == 1
        assert got["peel_equals_solve"] == got["injective_pass"] - 1 == 4

    @pytest.mark.parametrize("change", ["row_keys", "nonzeros"])
    def test_another_structure_counts_as_the_loop(self, tmp_path, monkeypatch, change):
        real = cli.alignment.derive_equation_system

        def change_second(calls):
            def derive_equation_system(sig):
                calls.append(None)
                if len(calls) != 2:
                    return real(sig)
                if change == "row_keys":
                    # every exponent of gain h[0, 0] rises by one: the same
                    # incidence under other row keys
                    shift = np.eye(sig.k * sig.k, dtype=np.int64)[0]
                    return real(replace(sig, exponents=[e + shift for e in sig.exponents]))
                # submessages (0, 0) and (0, 1) trade rows: the same row keys
                # over another incidence
                eqsys = real(sig)
                cols = np.where(eqsys.cols < 2, 1 - eqsys.cols, eqsys.cols)
                nz = np.lexsort((cols, eqsys.rows))
                return replace(eqsys, rows=eqsys.rows[nz], cols=cols[nz])
            return derive_equation_system

        monkeypatch.setattr(cli.alignment, "derive_equation_system", change_second([]))
        got = invert_counts(tmp_path, 2, 2, 5, 5, 0)
        monkeypatch.setattr(cli.alignment, "derive_equation_system", change_second([]))
        assert got == loop_invert_counts(2, 2, 5, 5, 0)

    def test_per_sample_loop_bounds_the_memory(self, tmp_path):
        # 30 K=3 L=2 samples peak at about 1.9 MiB: one sample at a time,
        # freed before the next is built (2.7 MiB when it is not). An
        # elimination of 8 samples at once peaked at about 6.5 MiB
        tracemalloc.start()
        try:
            cli.cmd_invert({"seed": 0, "k": 3, "l": 2, "p": 3, "samples": 30}, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


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

    def test_k3_ratio_past_float_range_is_typed(self, tmp_path):
        with pytest.raises(NumericRangeError, match="log2 of the separation ratio"):
            cli.main(["dioph", "--k", "3", "--l", "1", "--p", "2", "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o" / "dioph.csv").exists()


class TestWorkers:
    def test_workers_key_rejected(self, tmp_path):
        # fig2 runs in one array pass, without a process pool
        with pytest.raises(InvalidArgumentError, match="unknown config keys for fig2: workers"):
            cli.main(["fig2", "--set", "h2_points=9", "--snr-db", "20", "30",
                      "--set", "workers=2", "--out", str(tmp_path / "o")])


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

    def test_wrong_field_rejected_before_any_work(self, tmp_path, monkeypatch):
        out1 = run(tmp_path / "a", "align", "--p", "5", "--trials", "10",
                   "--set", "noise_variance=0", "--set", "t_len=7",
                   "--set", "message_len=2")
        monkeypatch.setattr(cli, "_align_channel", no_channel_draw)
        # p = 5 matches the stored code; p = 3 does not, and no prime runs
        with pytest.raises(InvalidArgumentError, match="stored code is over F_5, run wants p=3"):
            cli.main(["align", "--p", "5", "3", "--trials", "10",
                      "--set", "noise_variance=0",
                      "--set", f"code_file={out1 / 'code_p5.txt'}",
                      "--out", str(tmp_path / "c")])
        assert os.listdir(tmp_path / "c") == []

    def test_non_injective_code_rejected(self, tmp_path):
        code = tmp_path / "code.txt"
        # second column is zero: message (0, 1) encodes to the zero word
        code.write_text("5 4 2\n1 0\n2 0\n3 0\n4 0\n")
        with pytest.raises(InvalidArgumentError, match="stored code .* not injective"):
            cli.main(["align", "--p", "5", "--trials", "10",
                      "--set", "noise_variance=0", "--set", f"code_file={code}",
                      "--out", str(tmp_path / "c")])
