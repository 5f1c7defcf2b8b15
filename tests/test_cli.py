import json

import pytest

from pipeuq.cli import cmd_simulate, main
from pipeuq.config import RunConfig, build_config, validate_config
from pipeuq.errors import ConfigError

FAST_SIM = [
    "simulate",
    "--trials", "10",
    "--n-items", "300",
    "--prevalence", "0.5",
    "--fix-rate", "0.5,1.0",
    "--seed", "7",
]


def run_json(tmp_path, args, name="report.json"):
    out = tmp_path / name
    rc = main([*args, "--output", "json", "--out", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


class TestAnalytic:
    def test_default_grid_table(self, capsys):
        assert main(["analytic"]) == 0
        text = capsys.readouterr().out
        assert "prevalence" in text
        # 3 prevalence rows x 4 fix rates
        assert text.count("\n") >= 12

    def test_zero_prevalence_renders_na(self, capsys):
        assert main(["analytic", "--prevalence", "0.0", "--fix-rate", "0.5"]) == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert "n/a" in row

    def test_json_payload(self, tmp_path):
        doc = run_json(
            tmp_path, ["analytic", "--prevalence", "0.5", "--fix-rate", "0.5", "--recall", "1.0"]
        )
        assert set(doc) == {"version", "config", "results"}
        cell = doc["results"]["final_prevalence"][0]
        assert cell == {"prevalence": 0.5, "fix_rate": 0.5, "value": 0.25}

    def test_empty_grid_is_usage_error(self, capsys):
        assert main(["analytic", "--prevalence", ""]) == 2
        assert "prevalence" in capsys.readouterr().err

    def test_default_grid_reproduces_lower_bound_column(self, tmp_path):
        # at recall 1 the residual prevalence is exactly (1 - fix_rate) * P
        doc = run_json(tmp_path, ["analytic"])
        cells = doc["results"]["final_prevalence"]
        assert len(cells) == 12
        for cell in cells:
            expected = (1 - cell["fix_rate"]) * cell["prevalence"]
            assert cell["value"] == pytest.approx(expected, abs=1e-12)

    def test_break_rate_flag_rejected(self, capsys):
        # the closed forms assume a fixer that never breaks an item
        argv = ["analytic", "--break-rate", "0.5", "--prevalence", "0.5", "--fix-rate", "0.5"]
        assert main(argv) == 2
        assert "--break-rate" in capsys.readouterr().err

    def test_break_rate_from_config_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[analytic]\nbreak_rate = 0.3\n")
        assert main(["analytic", "--config", str(ini)]) == 2
        assert "break_rate" in capsys.readouterr().err

    def test_golden_table_rendering(self, capsys):
        assert main(["analytic", "--prevalence", "0.5", "--fix-rate", "0.5", "--n-items", "100"]) == 0
        assert capsys.readouterr().out == (
            "analytic pipeline metrics (recall=1.0, precision=1.0, specificity=0.0, n_items=100)\n"
            "\n"
            "prevalence  fix_rate  real_fix_rate  final_prevalence  tpr     far     fn_ratio\n"
            "0.50        0.50      0.5000         0.2500            1.0000  0.0000  1.5000\n"
        )


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*FAST_SIM, "--output", "json", "--out", str(out1)]) == 0
        assert main([*FAST_SIM, "--output", "json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_schema(self, tmp_path):
        doc = run_json(tmp_path, FAST_SIM)
        results = doc["results"]
        assert set(results) == {"final_prevalence", "real_fix_rate", "fn_ratio", "pbox"}
        entry = results["real_fix_rate"][0]
        assert {"prevalence", "fix_rate", "mode", "lo", "hi"} <= set(entry)
        # mode "both" emits extremes and means per cell
        modes = {e["mode"] for e in results["real_fix_rate"]}
        assert modes == {"extremes", "means"}

    def test_mode_flag_limits_entries(self, tmp_path):
        doc = run_json(tmp_path, [*FAST_SIM, "--mode", "extremes"])
        assert {e["mode"] for e in doc["results"]["fn_ratio"]} == {"extremes"}

    def test_trace_embeds_trials(self, tmp_path):
        doc = run_json(tmp_path, [*FAST_SIM, "--trace"])
        entry = doc["results"]["final_prevalence"][0]
        assert len(entry["trials"]) == 20  # both streams

    def test_huge_population_runs_in_bounded_memory(self, capsys):
        argv = ["simulate", "--n-items", str(10**12), "--trials", "2",
                "--prevalence", "0.5", "--fix-rate", "0.7", "--output", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"]["n_items"] == 10**12

    def test_table_mentions_mode(self, capsys):
        assert main(FAST_SIM) == 0
        text = capsys.readouterr().out
        assert "per-trial extremes" in text and "stream means" in text

    def test_csv_rows(self, capsys):
        assert main([*FAST_SIM, "--output", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,mode,prevalence,fix_rate,lo,hi,undefined"
        # 3 metrics x 2 cells x 2 modes
        assert len(lines) == 1 + 12


class TestEvidence:
    CSV = "source_id,metric,value\np1,recall,0.2\np2,recall,0.6\np3,precision,0.5\n"

    def test_summary_table(self, tmp_path, capsys):
        path = tmp_path / "ev.csv"
        path.write_text(self.CSV)
        assert main(["evidence", str(path)]) == 0
        text = capsys.readouterr().out
        assert "recall" in text and "p-box" in text

    def test_json_stats(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text(self.CSV)
        doc = run_json(tmp_path, ["evidence", str(path)])
        recall = doc["results"]["recall"]
        assert recall["count"] == 2
        assert recall["publications"] == 2
        assert recall["pbox"] == {"minimum": 0.2, "maximum": 0.6, "mean": 0.4}

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["evidence", str(tmp_path / "nope.csv")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("source_id,metric,value\np1,recall\n")
        assert main(["evidence", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_path_is_config_error(self, capsys):
        assert main(["evidence"]) == 2
        assert "evidence" in capsys.readouterr().err


class TestCaseStudy:
    def test_rule_based_table(self, capsys):
        assert main(["case-study", "rule-based"]) == 0
        text = capsys.readouterr().out
        for name in ("ACS", "SimFix", "FixMiner", "Kali-A", "DynaMoth", "Nopol"):
            assert name in text

    def test_composed_chain(self, capsys):
        assert main(["case-study", "composed"]) == 0
        text = capsys.readouterr().out
        for token in ("879", "756", "333", "423"):
            assert token in text

    def test_composed_degenerate_box(self, tmp_path):
        doc = run_json(
            tmp_path,
            [
                "case-study", "composed",
                "--pbox-min", "0.86", "--pbox-max", "0.86", "--pbox-mean", "0.86",
            ],
        )
        fix = doc["results"]["fix_rate"]["extremes"]
        assert fix["lo"] == fix["hi"] == pytest.approx(0.44 * 0.86)

    def test_custom_tools_csv(self, tmp_path, capsys):
        path = tmp_path / "tools.csv"
        path.write_text("name,correct,generated\nMyTool,5,10\n")
        assert main(["case-study", "rule-based", "--tools", str(path)]) == 0
        assert "MyTool" in capsys.readouterr().out

    def test_unparseable_tools_csv_is_validation_error(self, tmp_path):
        path = tmp_path / "tools.csv"
        path.write_text("name,correct,generated\n" + "x" * 200_000 + ",1,2\n")
        assert main(["case-study", "rule-based", "--tools", str(path)]) == 2

    def test_unknown_which_is_usage_error(self):
        assert main(["case-study", "bogus"]) == 2


class TestPboxSample:
    def test_deterministic_values(self, tmp_path):
        doc1 = run_json(tmp_path, ["pbox-sample", "--trials", "5", "--seed", "3"], "a.json")
        doc2 = run_json(tmp_path, ["pbox-sample", "--trials", "5", "--seed", "3"], "b.json")
        assert doc1["results"] == doc2["results"]
        assert len(doc1["results"]["optimistic"]) == 5

    def test_summary_table(self, capsys):
        assert main(["pbox-sample", "--trials", "10"]) == 0
        text = capsys.readouterr().out
        assert "optimistic" in text and "pessimistic" in text


class TestConfigHandling:
    def test_file_then_flag_precedence(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[common]\nseed = 5\n\n[simulate]\ntrials = 4\nn_items = 123\n")
        args = [
            "simulate", "--config", str(ini),
            "--trials", "6",
            "--prevalence", "0.5", "--fix-rate", "0.5",
        ]
        doc = run_json(tmp_path, args)
        assert doc["config"]["seed"] == 5  # from file
        assert doc["config"]["n_items"] == 123  # from file
        assert doc["config"]["trials"] == 6  # flag wins

    def test_unknown_key_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[common]\nspeed = 5\n")
        assert main(["simulate", "--config", str(ini)]) == 2
        assert "speed" in capsys.readouterr().err

    def test_validation_names_fields(self, capsys):
        assert main(["simulate", "--prevalence", "1.5", "--trials", "0"]) == 2
        err = capsys.readouterr().err
        assert "prevalence" in err and "trials" in err

    def test_validate_config_direct(self):
        cfg = RunConfig(pbox_min=0.9, pbox_mean=0.5, pbox_max=0.95)
        with pytest.raises(ConfigError, match="pbox"):
            validate_config(cfg, "simulate")

    def test_envelope_config_reproduces_payload(self, tmp_path):
        doc = run_json(tmp_path, FAST_SIM)
        echoed = doc["config"]
        cfg = RunConfig(
            **{k: v for k, v in echoed.items() if k != "command"}
        )
        validate_config(cfg, "simulate")
        env = cmd_simulate(cfg)
        assert env.results == doc["results"]


class TestExitCodes:
    def test_success(self):
        assert main(["analytic", "--prevalence", "0.5", "--fix-rate", "0.5"]) == 0

    def test_usage_error(self):
        assert main(["simulate", "--mode", "weird"]) == 2
        assert main(["simulate", "--seed", "-1"]) == 2
        assert main(["pbox-sample", "--seed", "-1"]) == 2
        assert main(["simulate", "--n-items", str(10**20), "--trials", "2"]) == 2
        assert main(["analytic", "--n-items", str(10**400)]) == 2
        assert main(["case-study", "composed", "--case-n-items", str(10**400)]) == 2

    def test_out_path_io_error(self, tmp_path):
        target = tmp_path / "missing-dir" / "x.json"
        assert main([*FAST_SIM, "--out", str(target)]) == 3
