"""Config ingestion, subcommand behavior, exit codes, and output stability."""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fdrs import analytic, cli
from fdrs.channel import ConfigError
from fdrs.cli import main, parse_config
from fdrs.specfun import NonConvergenceError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DEMO_DIR = CONFIG_DIR.parent / "demos"

NDL_RAYLEIGH = """\
[links]
m_sr = 1
pi_sr_db = 10
m_rd = 1
pi_rd_db = 10
m_rr = 1
pi_rr_db = 0

[powers]
k = 2
p_s_db = 10
p_r_db = 10
lambda = 1
"""


@pytest.fixture
def ndl_rayleigh_path(tmp_path):
    path = tmp_path / "ndl_rayleigh.cfg"
    path.write_text(NDL_RAYLEIGH)
    return str(path)


class TestParseConfig:
    def test_reference_scenario_values(self):
        cfg = parse_config(str(CONFIG_DIR / "fig2b.cfg"))
        assert cfg.k == 3
        assert cfg.rsi_lambda == 1.0
        assert cfg.p_s == 1.0 and cfg.p_r == 1.0
        assert cfg.i_th == pytest.approx(1.9953, abs=1e-3)
        assert cfg.sr.m == 2 and cfg.sr.avg_power == pytest.approx(10 ** 1.5)
        assert cfg.sp.m == 1 and cfg.rp.avg_power == pytest.approx(10 ** 0.1)

    def test_non_cognitive_reference(self):
        cfg = parse_config(str(CONFIG_DIR / "fig2a.cfg"))
        assert not cfg.is_cognitive and cfg.sd is not None

    def test_missing_ith_with_primary_links(self, tmp_path):
        text = NDL_RAYLEIGH + "\n[cognitive]\nm_sp = 1\npi_sp_db = 0\nm_rp = 1\npi_rp_db = 1\n"
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match="ith"):
            parse_config(str(p))

    def test_lambda_out_of_range(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(NDL_RAYLEIGH.replace("lambda = 1", "lambda = 1.5"))
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(str(p))

    def test_all_errors_reported_together(self, tmp_path):
        text = NDL_RAYLEIGH.replace("m_sr = 1", "m_sr = strong").replace(
            "pi_rd_db = 10", "")
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError) as exc:
            parse_config(str(p))
        assert len(exc.value.errors) >= 2

    @pytest.mark.parametrize("raw", ["3.5", "1.9", "inf"])
    def test_non_integer_relay_count_rejected(self, tmp_path, capsys, raw):
        p = tmp_path / "bad_k.cfg"
        p.write_text(NDL_RAYLEIGH.replace("k = 2", f"k = {raw}"))
        with pytest.raises(ConfigError, match=f"k = {raw} is not an integer"):
            parse_config(str(p))
        rc = main(["outage", "--config", str(p), "--protocol", "ndl", "--rate", "2"])
        assert rc == 1
        assert f"k = {raw} is not an integer" in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/scenario.cfg")

    @pytest.mark.parametrize("line,key,msg", [
        ("pi_sr_db = 4000", "[links] pi_sr_db", "4000 dB is out of range: its linear "
                                                "value overflows"),
        ("p_s_db = -4000", "[powers] p_s_db", "-4000 dB is out of range: its linear "
                                              "value underflows to 0"),
        ("p_r_db = inf", "[powers] p_r_db", "inf dB is out of range"),
    ])
    def test_out_of_range_db_value(self, tmp_path, capsys, line, key, msg):
        # the file is at fault, so the key is named and the exit code is 1
        p = tmp_path / "db.cfg"
        p.write_text(NDL_RAYLEIGH.replace(line.split(" = ")[0] + " = 10", line))
        with pytest.raises(ConfigError, match=re.escape(f"{key}: {msg}")):
            parse_config(str(p))
        rc = main(["outage", "--config", str(p), "--protocol", "ndl", "--rate", "2"])
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        assert f"config error: {key}: {msg}" in out.err


class TestOutageCommand:
    def test_rayleigh_value(self, ndl_rayleigh_path, capsys):
        rc = main(["outage", "--config", ndl_rayleigh_path, "--protocol", "ndl",
                   "--rate", "2"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["outage_analytic"] == pytest.approx(0.075936, abs=1e-6)
        assert record["manifest"]["subcommand"] == "outage"

    def test_both_methods(self, ndl_rayleigh_path, capsys):
        rc = main(["outage", "--config", ndl_rayleigh_path, "--protocol", "ndl",
                   "--rate", "2", "--method", "both", "--trials", "50000",
                   "--seed", "12345"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert abs(record["outage_mc"] - record["outage_analytic"]) <= \
            max(4 * record["stderr_mc"], 1e-3)

    def test_seeds_beyond_2_64_draw_their_own_stream(self, capsys):
        argv = ["outage", "--config", str(CONFIG_DIR / "fig2b.cfg"), "--protocol", "sdf",
                "--rate", "2", "--method", "mc", "--trials", "20000", "--seed"]
        records = []
        for seed in ("5", str(5 + 2 ** 64)):
            assert main(argv + [seed]) == 0
            records.append(json.loads(capsys.readouterr().out))
        assert [r["manifest"]["seed"] for r in records] == [5, 5 + 2 ** 64]
        assert records[0]["outage_mc"] != records[1]["outage_mc"]

    def test_negative_seed_exit_code(self, capsys):
        cfg = str(CONFIG_DIR / "fig2b.cfg")
        for argv in (["outage", "--protocol", "sdf", "--rate", "2", "--method", "mc"],
                     ["validate", "--rate", "2"],
                     ["pl"]):
            rc = main([argv[0], "--config", cfg, *argv[1:], "--trials", "1000",
                       "--seed", "-1"])
            assert rc == 2, argv
            out = capsys.readouterr()
            assert out.out == "" and "seed must be >= 0, got -1" in out.err

    def test_config_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(NDL_RAYLEIGH.replace("lambda = 1", "lambda = 2"))
        rc = main(["outage", "--config", str(p), "--protocol", "ndl", "--rate", "2"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_analytic_violation_exit_code(self, tmp_path, capsys):
        p = tmp_path / "frac.cfg"
        p.write_text((CONFIG_DIR / "fig2a.cfg").read_text().replace("m_rd = 2", "m_rd = 1.5"))
        rc = main(["outage", "--config", str(p), "--protocol", "idl", "--rate", "2"])
        assert rc == 1
        assert "integer m_rd" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["0", "0.5"])
    def test_simulation_only_protocol_exit_code(self, rate, capsys):
        rc = main(["outage", "--config", str(CONFIG_DIR / "fig2a.cfg"), "--protocol",
                   "hd_mrc", "--rate", rate, "--method", "analytic"])
        assert rc == 1
        assert "simulation-only" in capsys.readouterr().err

    def test_real_direct_link_shape(self, tmp_path, capsys):
        p = tmp_path / "msd.cfg"
        p.write_text((CONFIG_DIR / "fig2a.cfg").read_text().replace("m_sd = 2", "m_sd = 1.5"))
        rc = main(["outage", "--config", str(p), "--protocol", "sdf", "--rate", "2",
                   "--method", "analytic"])
        assert rc == 0
        assert 0.0 < json.loads(capsys.readouterr().out)["outage_analytic"] < 1.0

    def test_real_first_hop_shapes(self, tmp_path, capsys):
        # real m_sr and m_rr take the positive Gauss route for the first hop;
        # every full-duplex protocol agrees with 10^6 trials
        p = tmp_path / "real.cfg"
        p.write_text((CONFIG_DIR / "fig2a.cfg").read_text()
                     .replace("m_sr = 2", "m_sr = 2.5").replace("m_rr = 2", "m_rr = 1.5"))
        for proto in ("ndl", "idl", "idl_dt", "sdf"):
            rc = main(["outage", "--config", str(p), "--protocol", proto, "--rate", "2",
                       "--method", "both", "--trials", "1000000"])
            assert rc == 0
            record = json.loads(capsys.readouterr().out)
            assert abs(record["outage_mc"] - record["outage_analytic"]) <= \
                3 * record["stderr_mc"], proto

    def test_one_closed_form_per_outage(self, capsys, monkeypatch):
        calls = []
        outage = analytic.outage

        def counted(*args):
            calls.append(args)
            return outage(*args)
        monkeypatch.setattr(analytic, "outage", counted)
        path = str(CONFIG_DIR / "fig2a.cfg")
        rc = main(["outage", "--config", path, "--protocol", "sdf", "--rate", "2",
                   "--method", "analytic"])
        assert rc == 0 and len(calls) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["throughput_analytic"] == analytic.throughput(
            parse_config(path), *calls[0][1:])

    @pytest.mark.parametrize("rate,method,err", [
        ("inf", "analytic", "rate must be finite, got inf"),
        ("nan", "analytic", "rate must be finite, got nan"),
        ("2000", "analytic", "rate 2000 bpcu is too large"),
        ("inf", "mc", "rate must be finite, got inf"),
        ("2000", "mc", "rate 2000 bpcu is too large"),
    ])
    def test_unusable_rate_exit_code(self, rate, method, err, capsys):
        # no record is printed: NaN and Infinity are not JSON
        rc = main(["outage", "--config", str(CONFIG_DIR / "fig2a.cfg"), "--protocol", "ndl",
                   "--rate", rate, "--method", method, "--trials", "1000"])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == "" and err in out.err

    @staticmethod
    def fig2a_at(tmp_path, power_db):
        text = (CONFIG_DIR / "fig2a.cfg").read_text()
        p = tmp_path / f"fig2a_{power_db}.cfg"
        p.write_text(text.replace("p_s_db = 0", f"p_s_db = {power_db}")
                     .replace("p_r_db = 0", f"p_r_db = {power_db}")
                     .replace("pi_rr_db = 3", "pi_rr_db = 20"))
        return str(p)

    @pytest.mark.parametrize("method", ["mc", "analytic"])
    def test_overflowing_mean_snr_exit_code(self, tmp_path, capsys, method):
        # at 3075 dB the simulated first hop was inf/inf (a NaN SINR, never
        # an outage) and the closed form took the log of an underflowed 0
        rc = main(["outage", "--config", self.fig2a_at(tmp_path, 3075), "--protocol", "ndl",
                   "--rate", "0.1", "--method", method, "--trials", "1000"])
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        assert "config error: link sr: mean SNR p_s*pi_sr = inf exceeds 1e+300" in out.err

    def test_largest_powers_answer_without_warnings(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fdrs.cli", "outage", "--config",
             self.fig2a_at(tmp_path, 2900), "--protocol", "ndl", "--rate", "0.1",
             "--method", "both", "--trials", "20000", "--seed", "1"],
            env=dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src")),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert 0.0 < record["outage_analytic"] < 1.0 and 0.0 < record["outage_mc"] < 1.0

    def test_numeric_failure_exit_code(self, ndl_rayleigh_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NonConvergenceError("series did not converge")
        monkeypatch.setattr(analytic, "outage", fail)
        rc = main(["outage", "--config", ndl_rayleigh_path, "--protocol", "ndl",
                   "--rate", "2"])
        assert rc == 2
        assert "did not converge" in capsys.readouterr().err


class TestSweepCommand:
    def test_relay_count_row_count(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(CONFIG_DIR / "fig4.cfg"),
                   "--axis", "relay_count", "--from", "1", "--to", "8",
                   "--protocols", "ndl,idl,idl_dt,sdf", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "axis,protocol,method,outage,throughput,stderr,trials,seed"
        assert len(data) - 1 == 8 * 4

    def test_relay_count_steps_must_match_range(self, capsys):
        rc = main(["sweep", "--config", str(CONFIG_DIR / "fig4.cfg"),
                   "--axis", "relay_count", "--from", "1", "--to", "6", "--steps", "2",
                   "--protocols", "ndl"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "steps=2 does not match the relay counts from round(1) to round(6)" in err

    def test_relay_count_default_steps_round_the_ends(self, capsys):
        # 1.4 and 3.6 round to 1 and 4: four relay counts, four rows
        rc = main(["sweep", "--config", str(CONFIG_DIR / "fig4.cfg"),
                   "--axis", "relay_count", "--from", "1.4", "--to", "3.6",
                   "--protocols", "ndl"])
        assert rc == 0
        data = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        assert [ln.split(",")[0] for ln in data[1:]] == ["1", "2", "3", "4"]

    def test_rerun_byte_identical_data_rows(self, tmp_path):
        args = ["sweep", "--config", str(CONFIG_DIR / "fig2b.cfg"),
                "--axis", "rate_bpcu", "--from", "0.5", "--to", "4", "--steps", "5",
                "--protocols", "sdf,hd_mrc", "--method", "both",
                "--trials", "20000", "--seed", "7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if not ln.startswith("#")]
        assert strip(out1) == strip(out2)

    def test_locale_independent_decimal_point(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep", "--config", str(CONFIG_DIR / "fig4.cfg"), "--axis",
              "power_db", "--from", "0", "--to", "10", "--steps", "3",
              "--protocols", "ndl", "--output", str(out)])
        body = out.read_text()
        assert "," in body and ";" not in body.split("\n", 5)[5]
        assert "." in body

    def test_overflowing_rate_axis_exit_code(self, capsys):
        rc = main(["sweep", "--config", str(CONFIG_DIR / "fig2a.cfg"), "--axis", "rate_bpcu",
                   "--from", "0", "--to", "1e308", "--steps", "3", "--protocols", "ndl"])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == "" and "rate 5e+307 bpcu is too large" in out.err

    @pytest.mark.parametrize("axis,bounds,err", [
        ("power_db", ["--from", "0", "--to", "inf"], "sweep stop must be finite, got inf"),
        ("power_db", ["--from=-inf", "--to", "10"], "sweep start must be finite, got -inf"),
        ("ith_db", ["--from", "0", "--to", "inf"], "sweep stop must be finite, got inf"),
        ("rate_bpcu", ["--from", "nan", "--to", "2"], "sweep start must be finite, got nan"),
        ("relay_count", ["--from", "1", "--to", "inf"], "sweep stop must be finite, got inf"),
    ])
    def test_non_finite_bounds_exit_code(self, axis, bounds, err, capsys):
        # a bound, not the scenario file, is at fault
        steps = [] if axis == "relay_count" else ["--steps", "3"]
        rc = main(["sweep", "--config", str(CONFIG_DIR / "fig2b.cfg"), "--axis", axis,
                   *bounds, *steps, "--protocols", "ndl"])
        assert rc == 2
        err_text = capsys.readouterr().err
        assert err in err_text and "config error" not in err_text

    @pytest.mark.parametrize("steps", [[], ["--steps", "5"]])
    def test_huge_relay_count_stop_exit_code(self, steps, capsys):
        rc = main(["sweep", "--config", str(CONFIG_DIR / "fig2a.cfg"), "--axis", "relay_count",
                   "--from", "1", "--to", "1e300", *steps, "--protocols", "ndl"])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == "" and "sweep stop 1e+300 is too large" in out.err

    @pytest.mark.parametrize("axis,bounds,err", [
        ("power_db", ["--from", "0", "--to", "4000"],
         "4000 dB is out of range: its linear value overflows"),
        ("ith_db", ["--from=-8000", "--to", "0"],
         "-8000 dB is out of range: its linear value underflows to 0"),
        ("power_db", ["--from=-1e308", "--to", "1e308"],
         "sweep stop - start must be finite, got inf"),
    ])
    def test_out_of_range_db_axis_exit_code(self, axis, bounds, err, capsys):
        rc = main(["sweep", "--config", str(CONFIG_DIR / "fig2b.cfg"), "--axis", axis,
                   *bounds, "--steps", "3", "--protocols", "ndl"])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == "" and err in out.err and "config error" not in out.err

    def test_invalid_protocol_listed(self, capsys):
        rc = main(["sweep", "--config", str(CONFIG_DIR / "fig4.cfg"), "--axis",
                   "rate_bpcu", "--from", "1", "--to", "2", "--steps", "2",
                   "--protocols", "warp"])
        assert rc == 2

    def test_partial_protocol_failure_exit_code(self, tmp_path, capsys):
        # fig2a lacks nothing, so force a failure via fractional m_rd
        p = tmp_path / "frac.cfg"
        p.write_text((CONFIG_DIR / "fig2a.cfg").read_text().replace("m_rd = 2", "m_rd = 1.5"))
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--config", str(p), "--axis", "rate_bpcu",
                   "--from", "1", "--to", "2", "--steps", "2",
                   "--protocols", "idl", "--method", "both", "--trials", "1000",
                   "--output", str(out)])
        assert rc == 2  # analytic half failed, mc half still produced rows
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) - 1 == 2
        assert "integer m_rd" in capsys.readouterr().err


class TestPlCommand:
    def test_table_shape_and_values(self, capsys):
        rc = main(["pl", "--config", str(CONFIG_DIR / "fig2b.cfg"),
                   "--trials", "50000", "--seed", "3"])
        assert rc == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "quantity,analytic,mc,stderr"
        assert len(lines) == 1 + 4 + 1  # header, p[0..3], p_tilde0
        total = sum(float(ln.split(",")[1]) for ln in lines[1:5])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_requires_cognitive(self, ndl_rayleigh_path, capsys):
        rc = main(["pl", "--config", ndl_rayleigh_path])
        assert rc == 1


def fig2b_with_relays(tmp_path, k):
    path = tmp_path / f"fig2b_k{k}.cfg"
    path.write_text((CONFIG_DIR / "fig2b.cfg").read_text().replace("k = 3", f"k = {k}"))
    return str(path)


class TestLargeRelayCounts:
    """fig2b past K = 18, where the alternating feasibility sums used to
    miss 1 and every cognitive command exited 2."""

    @pytest.mark.parametrize("k", [19, 64])
    def test_pl_probabilities_sum_to_one(self, tmp_path, capsys, k):
        assert main(["pl", "--config", fig2b_with_relays(tmp_path, k)]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("p[")]
        assert len(rows) == k + 1
        assert math.fsum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [19, 64])
    def test_cognitive_outage(self, tmp_path, capsys, k):
        rc = main(["outage", "--config", fig2b_with_relays(tmp_path, k),
                   "--protocol", "sdf", "--rate", "2", "--cognitive"])
        assert rc == 0
        assert 0.0 < json.loads(capsys.readouterr().out)["outage_analytic"] < 1.0

    def test_relay_sweep_to_24(self, capsys):
        rc = main(["sweep", "--config", str(CONFIG_DIR / "fig2b.cfg"), "--axis", "relay_count",
                   "--from", "1", "--to", "24", "--protocols", "ndl,idl,idl_dt,sdf"])
        assert rc == 0
        data = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]
                if not ln.startswith("#")]
        for proto in ("ndl", "idl", "idl_dt", "sdf"):
            assert [int(r[0]) for r in data if r[1] == proto] == list(range(1, 25))


@pytest.mark.parametrize("argv", [
    *(["outage", "--protocol", "sdf", "--rate", "2", "--cognitive", "--trials", "1000",
       "--method", method] for method in ("analytic", "mc", "both")),
    ["pl"], ["pl", "--trials", "1000"],
    ["sweep", "--axis", "ith_db", "--from", "0", "--to", "10", "--steps", "2",
     "--protocols", "sdf"],
])
def test_cap_requested_without_cap_exit_code(argv, capsys):
    # fig2a has no [cognitive] section: a configuration error, whatever
    # evaluates the request
    rc = main([*argv, "--config", str(CONFIG_DIR / "fig2a.cfg")])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err == "config error: scenario has no interference constraint (sp/rp/ith absent)\n"


class TestDiversityCommand:
    def test_slope_json(self, capsys):
        rc = main(["diversity", "--config", str(CONFIG_DIR / "fig4.cfg"),
                   "--protocol", "idl_dt", "--pmin-db", "10", "--pmax-db", "50",
                   "--points", "17"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["slope"] == pytest.approx(1.0, abs=0.3)  # lambda = 1 scenario
        assert record["floor_detected"] is False

    def test_floor_flagged(self, capsys):
        rc = main(["diversity", "--config", str(CONFIG_DIR / "fig4.cfg"),
                   "--protocol", "idl", "--pmin-db", "10", "--pmax-db", "50",
                   "--points", "17"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["floor_detected"] is True


class TestValidateCommand:
    def test_consistent_scenario_exits_zero(self, capsys):
        rc = main(["validate", "--config", str(CONFIG_DIR / "fig2a.cfg"),
                   "--rate", "2", "--trials", "100000", "--seed", "12345"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_no_closed_form_exits_one(self, tmp_path, capsys):
        # non-integer m_rp leaves no full-duplex closed form to validate
        path = tmp_path / "fig2b_mrp.cfg"
        path.write_text((CONFIG_DIR / "fig2b.cfg").read_text().replace("m_rp = 1", "m_rp = 1.5"))
        rc = main(["validate", "--config", str(path), "--rate", "2", "--trials", "1000"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        for proto in ("ndl", "idl", "idl_dt", "sdf"):
            assert f"{proto} analytic requires integer m_rp (got 1.5)" in captured.err

    def test_zero_workers_exit_code(self, capsys):
        # analytic-only runs never simulate, but reject the flag all the same
        for argv in (["validate", "--rate", "2", "--trials", "1000"],
                     ["pl", "--trials", "1000"],
                     ["outage", "--protocol", "ndl", "--rate", "2"],
                     ["sweep", "--axis", "rate_bpcu", "--from", "1", "--to", "2",
                      "--steps", "2", "--protocols", "ndl"],
                     ["diversity", "--protocol", "ndl", "--pmin-db", "10",
                      "--pmax-db", "30", "--points", "3"]):
            rc = main([argv[0], "--config", str(CONFIG_DIR / "fig2b.cfg"), *argv[1:],
                       "--workers", "0"])
            assert rc == 2
            assert "workers must be >= 1" in capsys.readouterr().err

    def test_zero_trials_exit_code(self, capsys):
        cfg = str(CONFIG_DIR / "fig2b.cfg")
        rc = main(["outage", "--config", cfg, "--protocol", "ndl", "--rate", "2",
                   "--trials", "0"])
        assert rc == 2
        assert "trials must be >= 1" in capsys.readouterr().err
        # pl reads --trials 0 as "no simulation"
        assert main(["pl", "--config", cfg, "--trials", "0"]) == 0
        assert main(["pl", "--config", cfg, "--trials", "-1"]) == 2


# one run of every subcommand and method; True where the run simulates
EVERY_OUTPUT = [
    *((["outage", "--protocol", "sdf", "--rate", "2", "--cognitive", "--method", method,
        "--trials", "2000"], method != "analytic") for method in ("analytic", "mc", "both")),
    *((["sweep", "--axis", "rate_bpcu", "--from", "1", "--to", "2", "--steps", "2",
        "--protocols", "ndl,sdf", "--method", method, "--trials", "2000"],
       method != "analytic") for method in ("analytic", "both")),
    (["pl"], False),
    (["pl", "--trials", "2000"], True),
    *((["diversity", "--protocol", "ndl", "--pmin-db", "0", "--pmax-db", "10",
        "--points", "4", "--method", method, "--trials", "2000"], method == "mc")
      for method in ("analytic", "mc")),
    (["validate", "--rate", "2", "--protocols", "ndl,sdf", "--trials", "2000"], True),
]


def run_cli(argv, capsys):
    """Exit code and stdout of one run on fig2b with seed 7."""
    code = main([argv[0], "--config", str(CONFIG_DIR / "fig2b.cfg"), *argv[1:],
                 "--seed", "7"])
    return code, capsys.readouterr().out


def manifest_of(text: str) -> dict:
    """The run manifest of a JSON record or of a CSV table's comment lines."""
    if text.startswith("{"):
        return json.loads(text)["manifest"]
    pairs = [ln[len("# fdrs "):].split("=", 1) for ln in text.splitlines()
             if ln.startswith("# fdrs ")]
    return {key: value for key, value in pairs}


@pytest.mark.parametrize("argv,simulates", EVERY_OUTPUT)
def test_manifest_records_seed_iff_run_simulates(argv, simulates, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    manifest = manifest_of(out)
    assert list(manifest) == (["config_sha256", "seed", "subcommand", "timestamp",
                               "tool_version"] if out.startswith("{") else
                              ["subcommand", "config_sha256", "tool_version", "seed",
                               "timestamp"])
    assert manifest["subcommand"] == argv[0]
    assert manifest["seed"] in ((7, "7") if simulates else (None, "None"))


@pytest.mark.parametrize("argv,simulates", EVERY_OUTPUT)
def test_output_file_holds_the_stdout_bytes(argv, simulates, capsys, tmp_path, monkeypatch):
    class FrozenClock(cli.datetime):
        @classmethod
        def now(cls, tz=None):
            return cli.datetime(2020, 1, 1, tzinfo=tz)
    monkeypatch.setattr(cli, "datetime", FrozenClock)
    code, out = run_cli(argv, capsys)
    path = tmp_path / "out.txt"
    assert run_cli([*argv, "--output", str(path)], capsys) == (code, "")
    assert path.read_bytes() == out.encode()


def test_parser_built_once_and_namespaces_fresh(monkeypatch, tmp_path):
    # main builds its parser at its first call and keeps it; each call
    # still parses into a fresh namespace, so defaults stay defaults
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["outage", "--config", str(CONFIG_DIR / "fig2b.cfg"), "--protocol", "sdf",
                 "--rate", "3", "--cognitive", "--output", str(first)]) == 0
    assert main(["outage", "--config", str(CONFIG_DIR / "fig2a.cfg"), "--protocol", "ndl",
                 "--rate", "2", "--output", str(second)]) == 0
    assert len(built) == 1
    assert json.loads(first.read_text())["cognitive"] is True
    record = json.loads(second.read_text())
    assert (record["protocol"], record["rate_bpcu"], record["cognitive"]) == ("ndl", 2.0, False)
    assert record["manifest"]["seed"] is None


# an address-space limit set in the child alone, then one sweep whose
# relay counts do not fit in it
OUT_OF_MEMORY_RUN = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (400 * 2 ** 20, 400 * 2 ** 20))
from fdrs.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_sweep_too_long_for_memory_exit_code():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY_RUN, "sweep", "--config",
         str(CONFIG_DIR / "fig2a.cfg"), "--axis", "relay_count", "--from", "1",
         "--to", "1e9", "--protocols", "ndl"],
        env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


# one fresh interpreter runs the closed forms and the simulator through the
# CLI, then lists the scipy modules it loaded
SCIPY_FREE_RUNS = """\
import contextlib, io, sys
from fdrs.cli import main
configs = sys.argv[1]
runs = (
    ["sweep", "--config", configs + "/fig3.cfg", "--axis", "relay_count", "--from", "1",
     "--to", "4", "--protocols", "ndl,idl,idl_dt,sdf", "--method", "analytic"],
    ["validate", "--config", configs + "/fig2a.cfg", "--rate", "2", "--trials", "100000",
     "--seed", "12345"],
    ["outage", "--config", configs + "/fig2b.cfg", "--protocol", "sdf", "--rate", "2",
     "--method", "mc", "--trials", "20000", "--seed", "1", "--cognitive"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_runs_never_load_scipy():
    # scipy is for the quadrature oracles and the tests; loading it on the
    # CLI path, even deferred into a first call, costs every run its import
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUNS, str(CONFIG_DIR)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    assert proc.stdout.split("\n")[0] == "[0, 0, 0] []", proc.stdout + proc.stderr


# one fresh interpreter imports fdrs, runs every analytic subcommand through
# the CLI and lists the numpy modules loaded, then simulates once as a
# positive control
NUMPY_FREE_RUNS = """\
import contextlib, io, sys
def numpy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
import fdrs
print(numpy_modules())
from fdrs.cli import main
configs = sys.argv[1]
fig2b = ["--config", configs + "/fig2b.cfg"]
sweep = ["sweep", *fig2b, "--protocols", "ndl,idl_dt,sdf", "--axis"]
runs = (
    ["outage", *fig2b, "--protocol", "sdf", "--rate", "2", "--cognitive"],
    [*sweep, "power_db", "--from", "0", "--to", "20", "--steps", "3"],
    [*sweep, "rate_bpcu", "--from", "0.5", "--to", "4", "--steps", "3"],
    [*sweep, "relay_count", "--from", "1", "--to", "3"],
    [*sweep, "ith_db", "--from=-5", "--to", "5", "--steps", "3"],
    ["diversity", "--config", configs + "/fig4.cfg", "--protocol", "ndl",
     "--pmin-db", "10", "--pmax-db", "50", "--points", "9"],
    ["pl", *fig2b],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, numpy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["outage", *fig2b, "--protocol", "sdf", "--rate", "2", "--method", "mc",
                 "--trials", "1000"])
print(code, "numpy" in sys.modules)
"""


def test_analytic_cli_runs_never_load_numpy():
    # numpy's import is most of an analytic run's start-up; the simulator
    # loads it at a run's first draw
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUNS, str(CONFIG_DIR)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    assert proc.stdout.splitlines() == ["[]", "[0, 0, 0, 0, 0, 0, 0] []", "0 True"], (
        proc.stdout + proc.stderr)


# the names `fdrs` exported before its simulator and drivers became lazy
PACKAGE_NAMES = (
    "NonConvergenceError", "ln_gamma", "reg_lower_gamma", "reg_upper_gamma", "tricomi_u",
    "whittaker_w", "ConfigError", "LinkSpec", "NetworkConfig", "Protocol", "validate_config",
    "FeasibilityDist", "RatioParams", "cdf_cognitive", "cdf_conditional", "cdf_ratio_gamma",
    "cdf_ratio_gamma_quad", "feasibility_dist", "outage", "outage_threshold", "throughput",
    "OutageEstimate", "estimate_feasibility", "estimate_outage", "outage_counts",
    "DiversityFit", "SweepSpec", "diversity_fit", "run_sweep", "validate_report",
    "__version__",
)


def test_package_names_resolve():
    import ast
    import fdrs
    demos = Path(__file__).resolve().parent.parent / "demos"
    demo_names = {alias.name for path in demos.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ImportFrom) and node.module == "fdrs"
                  for alias in node.names}
    assert {"run_sweep", "outage_counts", "estimate_feasibility"} <= demo_names
    for name in sorted(demo_names | set(PACKAGE_NAMES)):
        assert getattr(fdrs, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'draw_gainz'"):
        fdrs.draw_gainz


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_runs(demo):
    # three of the demos simulate, so each runs end to end, not only its imports
    root = DEMO_DIR.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMO_DIR / demo)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
