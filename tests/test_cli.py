import contextlib
import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pipeuq import __version__
from pipeuq.cli import cmd_evidence, cmd_simulate, main
from pipeuq.config import FLAGS, RunConfig, build_config, validate_config
from pipeuq.core import ClassifierProfile, DomainSpec, FixerSpec
from pipeuq.errors import ConfigError
from pipeuq.pbox import PBoxParams
from pipeuq.simulator import METRICS, run_experiment

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
        # analytic takes neither, so its own section may not set them
        ini = tmp_path / "run.ini"
        for key in ("break_rate", "specificity"):
            ini.write_text(f"[analytic]\n{key} = 0.3\n")
            assert main(["analytic", "--config", str(ini)]) == 2
            assert capsys.readouterr().err == (
                f"error: config file {ini}: unknown config key '{key}' in section [analytic]\n"
            )

    def test_specificity_from_config_rejected(self, tmp_path, capsys):
        # [common] sets it only for the commands that take it: analytic reads
        # and echoes nothing of it, simulate runs with it
        ini = tmp_path / "run.ini"
        ini.write_text("[common]\nspecificity = 0.7\nbreak_rate = 0.3\n")
        argv = ["analytic", "--prevalence", "0.5", "--fix-rate", "0.5", "--output", "json"]
        assert main([*argv, "--config", str(ini)]) == 0
        with_file = capsys.readouterr().out
        assert main(argv) == 0
        assert with_file == capsys.readouterr().out
        assert "specificity" not in with_file and "break_rate" not in with_file
        doc = run_json(tmp_path, ["simulate", "--config", str(ini), *FAST_SIM[1:]])
        assert (doc["config"]["specificity"], doc["config"]["break_rate"]) == (0.7, 0.3)

    def test_golden_table_rendering(self, capsys):
        assert main(["analytic", "--prevalence", "0.5", "--fix-rate", "0.5", "--n-items", "100"]) == 0
        assert capsys.readouterr().out == (
            "analytic pipeline metrics (recall=1.0, precision=1.0, n_items=100)\n"
            "\n"
            "prevalence  fix_rate  real_fix_rate  final_prevalence  tpr     far     fn_ratio\n"
            "0.50        0.50      0.5000         0.2500            1.0000  0.0000  1.5000\n"
        )

    @pytest.mark.parametrize("output, counts", [("table", [5, 5]), ("csv", [9])])
    def test_a_report_computes_only_the_formulas_it_writes(self, output, counts, monkeypatch, capsys):
        # the table prints five metrics, in a pass for its widths and one for its lines; csv all nine
        import pipeuq.core

        real, counted = pipeuq.core._grid, []

        def grid(rec, prec, domains, fixers, formulas):
            counted.append(len(formulas))
            return real(rec, prec, domains, fixers, formulas)

        monkeypatch.setattr(pipeuq.core, "_grid", grid)
        assert main(["analytic", "--output", output]) == 0
        assert counted == counts


@pytest.mark.parametrize("argv, output, calls", [
    (["simulate", "--trace"], "table", 2), (["simulate", "--trace"], "csv", 2), (["simulate", "--trace"], "json", 74),
    (["pbox-sample"], "table", 1), (["pbox-sample"], "csv", 1), (["pbox-sample"], "json", 4),
])
def test_a_report_draws_only_what_it_writes(argv, output, calls, monkeypatch, capsys):
    # a table or csv report carries no trace and draws nothing for it: simulate's intervals take one
    # pass per stream, pbox-sample's summary or rows one of both streams; a simulate JSON report
    # re-draws both streams for each traced metric of each of the 12 cells, and pbox-sample's for its
    # summary, its p values and each stream
    import pipeuq.pbox
    import pipeuq.simulator

    real, counted = pipeuq.pbox.stream_chunks, []

    def stream_chunks(*args):
        counted.append(args)
        return real(*args)

    monkeypatch.setattr(pipeuq.pbox, "stream_chunks", stream_chunks)
    monkeypatch.setattr(pipeuq.simulator, "stream_chunks", stream_chunks)  # its own name for the sampler
    assert main([*argv, "--output", output]) == 0
    assert len(counted) == calls


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

    def test_trace_matches_outcomes_across_a_chunk_boundary(self, tmp_path):
        # 70 000 trials span two chunks per stream; TrialOutcome is a second
        # path from the draws to None for an undefined trial. A cell's trace is
        # written once, in its first entry
        argv = ["simulate", "--trace", "--prevalence", "0.5", "--fix-rate", "0.7", "--n-items", "20",
                "--trials", "70000", "--mode", "both", "--seed", "7"]
        doc = run_json(tmp_path, argv)
        cfg = doc["config"]
        report = run_experiment(
            DomainSpec(20, 0.5),
            ClassifierProfile(1.0, specificity=cfg["specificity"]),
            FixerSpec(0.7, cfg["break_rate"]),
            PBoxParams(cfg["pbox_min"], cfg["pbox_max"], cfg["pbox_mean"]),
            70000,
            7,
        )
        outcomes = list(report.outcomes())
        for metric in METRICS:
            extremes, means = doc["results"][metric]
            assert (extremes["mode"], means["mode"]) == ("extremes", "means")
            assert extremes["trials"] == [getattr(o, metric) for o in outcomes]
            assert "trials" not in means
        assert None in doc["results"]["fn_ratio"][0]["trials"]

    def test_recalls_are_drawn_once_per_stream(self, monkeypatch, capsys):
        # one stream_chunks pass per stream serves all 12 cells of the default grid, and each
        # pass inverts only the stream it names
        import pipeuq.simulator

        calls = []
        real = pipeuq.simulator.stream_chunks

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pipeuq.simulator, "stream_chunks", counted)
        assert main(["simulate", "--trials", "20", "--output", "json"]) == 0
        assert [args[3:] for args in calls] == [("optimistic",), ("pessimistic",)]

    def test_every_item_ends_vulnerable_where_the_draw_ratio_rounds_above_one(self, tmp_path):
        # at specificity 0, break rate 1 and fix rate 0 every item ends
        # vulnerable; at this prevalence and two of seed 14's six recalls,
        # w / (1 - a) rounds to 1 + 2**-52
        argv = ["simulate", "--prevalence", "0.9127555772777217", "--fix-rate", "0", "--specificity", "0",
                "--break-rate", "1", "--n-items", "5", "--trials", "3", "--mode", "both", "--seed", "14"]
        entries = run_json(tmp_path, argv)["results"]["final_prevalence"]
        assert [e["mode"] for e in entries] == ["extremes", "means"]
        assert all([e["lo"], e["hi"]] == [1.0, 1.0] for e in entries)

    def test_means_table_notes_undefined_trials(self, capsys):
        # the golden simulate-zero-prevalence case holds this grid's `both` table
        argv = ["simulate", "--mode", "means", "--prevalence", "0,0.5", "--fix-rate", "0.5,1",
                "--trials", "6", "--n-items", "100"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        note = "   (24 trial(s) with undefined real_fix_rate excluded)"
        assert [line for line in text.splitlines() if "excluded" in line] == [note]
        assert note in text.split("-- real_fix_rate (stream means) --")[1].split("-- fn_ratio")[0]

    def test_a_repeated_grid_value_counts_its_undefined_trials_once(self, capsys):
        # the table shows a repeated cell once; the parent's note summed its undefined trials per repeat (16, not 8)
        argv = ["simulate", "--fix-rate", "0.5", "--n-items", "20", "--trials", "50",
                "--pbox-min", "0.9", "--pbox-max", "1", "--pbox-mean", "0.95"]
        tables = []
        for prevalence in ("0.5", "0.5,0.5"):
            assert main([*argv, "--prevalence", prevalence]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]
        assert [line for line in tables[0].splitlines() if "excluded" in line] == [
            "   (8 trial(s) with undefined fn_ratio excluded)"]

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


@pytest.mark.parametrize("name, text, argv", [
    ("ev.csv", TestEvidence.CSV, ["evidence"]),
    ("tools.csv", "name,correct,generated\nMyTool,5,10\n", ["case-study", "rule-based", "--tools"]),
    ("run.ini", "[common]\nseed = 3\n[analytic]\nprevalence = 0.2\n", ["analytic", "--config"]),
], ids=["evidence", "tools", "config"])
def test_byte_order_mark_is_skipped(name, text, argv, tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports start the file with U+FEFF
    path = tmp_path / name
    reports = []
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text(text, encoding=encoding)
        assert main([*argv, str(path), "--output", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert reports[0] == reports[1]


# -0 and -0.0 rows tied with 0 in both orders, and a -0 sample that the outlier rule removes
ZERO_EVIDENCE = ("source_id,metric,value\na,recall,0\nb,recall,-0\nc,recall,-0.0\nd,recall,0.1\n"
                 "e,recall,0.2\nf,recall,0.3\n" + "".join(f"p{i},precision,0.5\n" for i in range(4))
                 + "q,precision,-0\n")


@pytest.mark.parametrize("argv", [
    ["evidence"],
    ["simulate", "--trials", "5", "--evidence"],
    ["pbox-sample", "--trials", "5", "--evidence"],
    ["case-study", "composed", "--evidence"],
], ids=["evidence", "simulate", "pbox-sample", "case-study-composed"])
def test_negative_zero_evidence_writes_no_negative_zero(argv, tmp_path):
    # a sample stores -0.0 as 0.0, so neither the summary nor a box drawn from it writes -0.0
    path = tmp_path / "zeros.csv"
    path.write_text(ZERO_EVIDENCE)
    for output in ("table", "csv", "json"):
        out = tmp_path / f"report.{output}"
        assert main([*argv, str(path), "--output", output, "--out", str(out)]) == 0
        # every number token, not a digit inside a word or a path such as pytest-0
        numbers = map(float, re.findall(r"(?<![\w.-])-?\d+(?:\.\d*)?(?:e[-+]?\d+)?", out.read_text()))
        assert all(v != 0 or math.copysign(1.0, v) > 0 for v in numbers), output
    if argv == ["evidence"]:  # the zeros are there to be written
        results = json.loads(out.read_text())["results"]
        assert results["recall"]["pbox"] == {"minimum": 0.0, "maximum": 0.3, "mean": pytest.approx(0.1)}
        assert results["precision"]["removed"] == [{"source_id": "q", "metric": "precision", "value": 0.0}]


ZERO_PBOX = ["--pbox-min=-0", "--pbox-mean=-0", "--pbox-max=-0"]


@pytest.mark.parametrize("argv", [
    ["analytic", "--prevalence=-0,0.5", "--fix-rate=-0", "--recall=-0"],
    ["simulate", "--prevalence=-0,0.5", "--fix-rate=-0", "--specificity=-0", "--break-rate=-0", "--pbox-min=-0",
     "--trials=5", "--n-items=20"],
    ["simulate", "--prevalence=0.5", "--fix-rate=0.5", *ZERO_PBOX, "--trials=5", "--n-items=20"],
    ["case-study", "composed", "--case-recall=-0", "--case-accuracy=-0", "--pbox-min=-0"],
    ["case-study", "composed", *ZERO_PBOX],
    ["case-study", "rule-based", *ZERO_PBOX],
    ["pbox-sample", "--pbox-min=-0", "--pbox-mean=0.5", "--trials=3"],
    ["pbox-sample", *ZERO_PBOX, "--trials=3"],
], ids=["analytic", "simulate", "simulate-pbox", "case-study-composed", "case-study-composed-pbox",
        "case-study-rule-based-pbox", "pbox-sample", "pbox-sample-zero"])
def test_negative_zero_options_write_no_negative_zero(argv, tmp_path):
    # the config keeps each probability given as -0 as 0.0: the parent echoed -0.0 and computed with it
    for output in ("csv", "json"):
        out = tmp_path / f"report.{output}"
        assert main([*argv, "--output", output, "--out", str(out)]) == 0
        numbers = map(float, re.findall(r"(?<![\w.-])-?\d+(?:\.\d*)?(?:e[-+]?\d+)?", out.read_text()))
        assert all(v != 0 or math.copysign(1.0, v) > 0 for v in numbers), output


class TestCaseStudy:
    def test_rule_based_table(self, capsys):
        assert main(["case-study", "rule-based"]) == 0
        text = capsys.readouterr().out
        for name in ("ACS", "SimFix", "FixMiner", "Kali-A", "DynaMoth", "Nopol"):
            assert name in text

    @pytest.mark.parametrize("confidence, shown", [("0.995", "99.5%"), ("0.999", "99.9%"), ("0.9", "90%"),
                                                   ("0.95", "95%"), ("0.683", "68.3%")])
    def test_rule_based_title_shows_the_confidence_as_given(self, confidence, shown, tmp_path, capsys):
        # a percent rounded to a whole one read 100% at 0.995 and at 0.999
        assert main(["case-study", "rule-based", "--confidence", confidence]) == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert title == f"repair-tool confidence intervals (method=agresti-coull, confidence={shown})"
        assert run_json(tmp_path, ["case-study", "rule-based", "--confidence", confidence])["results"][
            "confidence"] == float(confidence)

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

    @pytest.mark.parametrize("argv, got", [(["bogus"], "'bogus'"), ([], "None")], ids=["unknown", "missing"])
    def test_an_unknown_or_missing_study_is_one_error_line(self, argv, got, capsys):
        # the study is an option like any other: the parent's argparse printed its usage block for bogus
        assert main(["case-study", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: which: must be one of ('rule-based', 'composed'), got {got}\n")

    @pytest.mark.parametrize("section", ["case-study", "common"])
    def test_a_config_file_names_the_study_and_a_positional_overrides_it(self, section, tmp_path):
        ini = tmp_path / "study.ini"
        ini.write_text(f"[{section}]\nwhich = composed\n")
        composed = run_json(tmp_path, ["case-study", "--config", str(ini)])
        assert composed == run_json(tmp_path, ["case-study", "composed"])
        assert "chain" in composed["results"]
        rule_based = run_json(tmp_path, ["case-study", "rule-based", "--config", str(ini)])
        assert rule_based == run_json(tmp_path, ["case-study", "rule-based"])
        assert rule_based["config"]["which"] == "rule-based"


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


    def test_mean_at_minimum(self, tmp_path):
        doc = run_json(tmp_path, ["pbox-sample", "--pbox-min", "0.2", "--pbox-max", "0.8",
                                  "--pbox-mean", "0.2"])
        assert all(lo <= hi for lo, hi in zip(doc["results"]["pessimistic"], doc["results"]["optimistic"]))
        assert min(doc["results"]["optimistic"]) == 0.2
        assert main(["simulate", "--pbox-min", "0.2", "--pbox-max", "0.8", "--pbox-mean", "0.2",
                     "--trials", "50", "--prevalence", "0.5", "--fix-rate", "0.5"]) == 0

    @pytest.mark.parametrize("box", [[], ["--pbox-min", "0.2", "--pbox-max", "0.8", "--pbox-mean", "0.2"],
                                     ["--pbox-min", "0.5", "--pbox-max", "0.5", "--pbox-mean", "0.5"]])
    def test_csv_rows_follow_the_stream_contract(self, tmp_path, box):
        # across a chunk boundary (2**16): the index runs 0..n-1, p is one default_rng(seed)
        # draw, and the pessimistic recall never exceeds the optimistic one in a row
        n, out = 2**16 + 70, tmp_path / "rows.csv"
        assert main(["pbox-sample", *box, "--trials", str(n), "--seed", "11", "--output", "csv",
                     "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "index,p,optimistic,pessimistic"
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(table[:, 0], np.arange(n))
        assert np.array_equal(table[:, 1], np.random.default_rng(11).random(n))
        assert np.all(table[:, 3] <= table[:, 2])


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

    def test_one_common_section_serves_every_command(self, tmp_path, capsys):
        # a [common] key sets the commands that take it and is skipped by the rest
        (tmp_path / "tools.csv").write_text("name,correct,generated\nMyTool,5,10\n")
        (tmp_path / "ev.csv").write_text(TestEvidence.CSV)
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[common]\nbreak_rate = 0.1\nspecificity = 0.9\ntrials = 20\nmode = means\n"
            f"tools = {tmp_path / 'tools.csv'}\ncase_recall = 0.8\n"
        )
        config = ["--config", str(ini)]
        for output in ("table", "csv", "json"):
            assert main(["analytic", "--output", output, *config]) == 0
            with_file = capsys.readouterr().out
            assert main(["analytic", "--output", output]) == 0
            assert with_file == capsys.readouterr().out
        sim = run_json(tmp_path, ["simulate", *config, "--n-items", "50", "--prevalence", "0.5", "--fix-rate", "0.5"])
        assert {k: sim["config"][k] for k in ("break_rate", "specificity", "trials", "mode")} == {
            "break_rate": 0.1, "specificity": 0.9, "trials": 20, "mode": "means"}
        assert run_json(tmp_path, ["evidence", str(tmp_path / "ev.csv"), *config])["results"]["recall"]["count"] == 2
        tools = run_json(tmp_path, ["case-study", "rule-based", *config])["results"]["tools"]
        assert [t["name"] for t in tools] == ["MyTool"]
        assert run_json(tmp_path, ["case-study", "composed", *config])["results"]["detector_recall"] == 0.8
        assert run_json(tmp_path, ["pbox-sample", *config])["results"]["count"] == 20

    def test_case_study_echo_names_its_study(self, tmp_path):
        echoes = {which: run_json(tmp_path, ["case-study", which])["config"] for which in ("rule-based", "composed")}
        assert echoes["rule-based"] == {**echoes["composed"], "which": "rule-based"}

    @pytest.mark.parametrize("text, flag", [("yes", ["--trace"]), ("no", [])])
    def test_a_config_file_sets_trace(self, text, flag, tmp_path, capsys):
        ini = tmp_path / "trace.ini"
        ini.write_text(f"[simulate]\ntrace = {text}\n")
        argv = ["simulate", "--trials", "5", "--n-items", "50", "--prevalence", "0.5", "--output", "json"]
        assert main([*argv, "--config", str(ini)]) == 0
        from_file = capsys.readouterr().out
        assert main([*argv, *flag]) == 0
        assert from_file == capsys.readouterr().out
        assert ('"trials": [' in from_file) == bool(flag)

    def test_a_config_file_trace_that_is_no_boolean_is_one_error_line(self, tmp_path, capsys):
        ini = tmp_path / "trace.ini"
        ini.write_text("[simulate]\ntrace = maybe\n")
        assert main(["simulate", "--config", str(ini)]) == 2
        assert capsys.readouterr() == ("", f"error: config file {ini}: trace: expected a boolean, got 'maybe'\n")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[common]\nspeed = 5\n")
        assert main(["simulate", "--config", str(ini)]) == 2
        assert "speed" in capsys.readouterr().err

    def test_bad_value_and_unknown_key_name_the_file(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        for line, message in (
            ("seed = x", "seed: expected a number, got 'x'"),
            ("colour = red", "unknown config key 'colour' in section [common]"),
        ):
            ini.write_text(f"[common]\n{line}\n")
            assert main(["analytic", "--config", str(ini)]) == 2
            assert capsys.readouterr().err == f"error: config file {ini}: {message}\n"

    # a field given a text its parser or its choices refuse: every number form the grammar refuses, as a
    # number, a list entry or a count, and each command's bad number and bad choice
    BAD_VALUES = [
        ("analytic", "recall", "0.9_9"), ("analytic", "recall", "1e-400"), ("analytic", "prevalence", "\u0660.\u0665"),
        ("analytic", "output", "yaml"), ("simulate", "trials", "x"), ("simulate", "mode", "median"),
        ("evidence", "outlier_k", "inf"), ("evidence", "outlier_policy", "mad"),
        ("case-study", "confidence", "nan"), ("case-study", "method", "wald"),
        ("pbox-sample", "trials", "1_0"), ("pbox-sample", "output", "xml"),
    ]

    @pytest.mark.parametrize("source", ["flag", "config key"])
    @pytest.mark.parametrize("command, name, text", BAD_VALUES)
    def test_a_bad_option_value_is_one_error_line(self, command, name, text, source, tmp_path, capsys):
        positional = {"evidence": ["e.csv"], "case-study": ["rule-based"]}.get(command, [])
        if source == "flag":
            argv = ["--" + name.replace("_", "-"), text]
        else:
            ini = tmp_path / "bad.ini"
            ini.write_text(f"[{command}]\n{name} = {text}\n", encoding="utf-8")
            argv = ["--config", str(ini)]
        assert main([command, *positional, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        assert f" {name}: " in err and f"got {text!r}" in err

    @pytest.mark.parametrize("argv, written", [
        (["analytic", "--recall", ".5", "--precision", "1."], ["analytic", "--recall", "0.5", "--precision", "1.0"]),
        (["analytic", "--recall", "+0.5", "--fix-rate", "1E-1, 5e-324"],
         ["analytic", "--recall", "0.5", "--fix-rate", "0.1, 5e-324"]),
        (["analytic", "--n-items", " 007 ", "--seed", "+7"], ["analytic", "--n-items", "7", "--seed", "7"]),
        (["case-study", "composed", "--case-recall", "0.5e0", "--outlier-k", "1E3"],
         ["case-study", "composed", "--case-recall", "0.5", "--outlier-k", "1000.0"]),
        (["pbox-sample", "--trials", "007", "--pbox-min", "5.e-2"],
         ["pbox-sample", "--trials", "7", "--pbox-min", "0.05"]),
    ], ids=["point", "sign-exponent", "zeros", "exponent", "count"])
    def test_an_accepted_number_form_is_read_as_written(self, argv, written, tmp_path):
        assert run_json(tmp_path, argv) == run_json(tmp_path, written)

    def test_validation_names_fields(self, capsys):
        assert main(["simulate", "--prevalence", "1.5", "--trials", "0"]) == 2
        err = capsys.readouterr().err
        assert "prevalence" in err and "trials" in err

    def test_validate_config_direct(self):
        cfg = RunConfig(pbox_min=0.9, pbox_mean=0.5, pbox_max=0.95)
        with pytest.raises(ConfigError, match="pbox"):
            validate_config(cfg, "simulate")

    @pytest.mark.parametrize("field, value", [
        ("recall", "0.5"), ("precision", None), ("confidence", [0.9]), ("case_recall", 1.5),
        ("pbox_min", np.array([0.1, 0.2])), ("pbox_mean", np.float32(0.5)), ("prevalence", [0.5, "0.7"]),
    ])
    def test_validate_config_refuses_a_value_that_is_no_number_in_unit_range(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must lie in \\[0, 1\\], got"):
            validate_config(RunConfig(**{field: value}), "simulate")

    @pytest.mark.parametrize("field, value, message", [
        ("n_items", "10", "n_items must be an integer in [1, 9223372036854775807], got '10'"),
        ("seed", "1", "seed must be an integer >= 0, got '1'"),
        # range takes no float, and a stream mean's division by the count is exact up to 2**53
        ("trials", 10.0, "trials must be an integer in [1, 9007199254740992], got 10.0"),
        ("outlier_k", "1", "outlier_k: must be finite and >= 0, got '1'"),
        ("prevalence", 0.5, "prevalence: grid must be a nonempty list, got 0.5"),
    ], ids=["n_items", "seed", "trials", "outlier_k", "prevalence"])
    def test_validate_config_refuses_a_count_seed_k_or_grid_of_the_wrong_type(self, field, value, message):
        with pytest.raises(ConfigError) as err:
            validate_config(RunConfig(**{field: value}), "simulate")
        assert str(err.value) == message

    def test_validate_config_refuses_a_whole_float_seed(self):
        # numpy's SeedSequence would refuse 7.0 untyped: a seed, as every count, is no float
        with pytest.raises(ConfigError) as err:
            validate_config(RunConfig(seed=7.0), "pbox-sample")
        assert str(err.value) == "seed must be an integer >= 0, got 7.0"

    def test_validate_config_refuses_a_path_that_is_no_str(self):
        with pytest.raises(ConfigError) as err:
            validate_config(RunConfig(evidence=2, tools=5, out=3.0), "evidence")
        assert str(err.value) == (
            "evidence: must be a path (a str) or None, got 2; tools: must be a path (a str) or None, got 5; "
            "out: must be a path (a str) or None, got 3.0"
        )
        # open() would take an int as a file descriptor and close it: evidence=2 would close
        # stderr. A copy of fd 2 stands in for it, so a failure leaves this process's stderr open
        fd = os.dup(2)
        try:
            cfg = RunConfig(evidence=fd)
            with pytest.raises(ConfigError):
                validate_config(cfg, "evidence")
                cmd_evidence(cfg)
            os.fstat(fd)  # still open
        finally:
            with contextlib.suppress(OSError):
                os.close(fd)

    def test_validate_config_lists_every_offender(self):
        cfg = RunConfig(which="composed", recall="0.5", precision=0.0, confidence=1.0, pbox_max=2.0, fix_rate=[1.5])
        with pytest.raises(ConfigError) as err:
            validate_config(cfg, "case-study")
        assert str(err.value) == (
            "fix_rate must lie in [0, 1], got 1.5; recall must lie in [0, 1], got '0.5'; "
            "pbox_max must lie in [0, 1], got 2.0; confidence: must lie in (0, 1), got 1.0; "
            "precision: 0.0 would leave the fixer load or the false-alert rate infinite"
        )

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

    def test_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--mode", "weird"]) == 2
        assert main(["simulate", "--seed", "-1"]) == 2
        assert main(["pbox-sample", "--seed", "-1"]) == 2
        assert main(["simulate", "--n-items", str(10**20), "--trials", "2"]) == 2
        assert main(["analytic", "--n-items", str(10**400)]) == 2
        assert main(["case-study", "composed", "--case-n-items", str(10**400)]) == 2
        capsys.readouterr()
        files = {
            "no_bracket.ini": b"[common\nseed = 3\n",
            "duplicate_key.ini": b"[common]\nseed = 1\nseed = 2\n",
            "duplicate_section.ini": b"[common]\nseed = 1\n[common]\nseed = 2\n",
            "interpolation.ini": b"[common]\nout = a%b\n",
            "latin1.ini": b"[common]\nseed = 1 \xff\n",
            "latin1_evidence.csv": b"source_id,metric,value\np1,recall,0.5\xe9\n",
            "latin1_tools.csv": b"name,correct,generated\nA\xff,1,2\n",
            "evidence.csv": b"source_id,metric,value\np1,recall,0.5\np2,recall,0.7\n",
        }
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        path = {name: str(tmp_path / name) for name in files}
        argvs = [
            *(["analytic", "--config", path[name]] for name in files if name.endswith(".ini")),
            ["evidence", path["latin1_evidence.csv"]],
            ["simulate", "--trials", "2", "--evidence", path["latin1_evidence.csv"]],
            ["case-study", "rule-based", "--tools", path["latin1_tools.csv"]],
            ["simulate", "--trials", str(2**63)],
            ["pbox-sample", "--trials", str(2**63)],
            # counts beyond 2**53, where a stream mean's divisor stops being
            # exact in a float64: the config refuses them before any draw
            *([command, "--trials", str(n)]
              for command in ("simulate", "pbox-sample") for n in (2**53 + 1, 2**59, 2**63 - 1)),
            # csv writes no summary, so no summary pass checks its count
            ["pbox-sample", "--trials", str(2**53 + 1), "--output", "csv"],
            ["case-study", "rule-based", "--confidence", "0.9999999999999999"],
            # a subnormal prevalence or an infinite k would print a
            # non-JSON -Infinity or Infinity
            ["simulate", "--prevalence", "1e-320", "--fix-rate", "0.5", "--break-rate", "0.5",
             "--trials", "3", "--n-items", "10", "--output", "json"],
            # the fixer load, n_items / precision at recall 1, would overflow to Infinity
            ["analytic", "--precision", "5e-324", "--output", "json"],
            ["analytic", "--precision", "1e-300", "--n-items", str(2**63 - 1), "--output", "json"],
            ["evidence", path["evidence.csv"], "--outlier-k", "inf", "--output", "json"],
            ["evidence", path["evidence.csv"], "--outlier-k", "nan"],
        ]
        for argv in argvs:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, out, err)
        assert "outlier_k" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trials", str(2**53 + 1), "--evidence", "missing.csv"],
        ["pbox-sample", "--trials", str(2**53 + 1), "--output", "csv"],
    ], ids=["simulate-missing-evidence", "pbox-sample-csv"])
    def test_trials_beyond_the_samplers_limit_are_refused_before_any_file_is_read(self, argv, tmp_path, capsys):
        # the parent's config took up to 2**63 - 1: simulate exited 3 for the missing file, and with
        # a file the sampler refused "a recall stream's sample count" mid-run
        argv = [str(tmp_path / a) if a == "missing.csv" else a for a in argv]  # a path that does not exist
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: trials must be an integer in [1, 9007199254740992], "
                                           "got 9007199254740993\n")

    def test_tiny_prevalence_runs_down_to_the_smallest_normal(self, capsys):
        # every realized fix rate is 1 - 1/P = -1e305, and so is each stream's mean: the counts are
        # summed, never the fix rates, so no trial count overflows the mean
        argv = ["simulate", "--prevalence", "1e-305", "--fix-rate", "0.5", "--break-rate", "1",
                "--n-items", "1", "--trials", "65536", "--output", "json"]
        assert main(argv) == 0
        fix_rates = json.loads(capsys.readouterr().out)["results"]["real_fix_rate"]
        assert [(e["mode"], e["lo"], e["hi"]) for e in fix_rates] == [
            ("extremes", 1 - 1e305, 1 - 1e305), ("means", 1 - 1e305, 1 - 1e305),
        ]
        # one limit for every command and trial count: a positive prevalence below the smallest normal
        for command in ("simulate", "analytic"):
            validate_config(RunConfig(trials=2**53, prevalence=[1e-305], fix_rate=[0.5]), command)
            with pytest.raises(ConfigError, match="prevalence"):
                validate_config(RunConfig(trials=1, prevalence=[1e-310], fix_rate=[0.5]), command)

    @pytest.mark.parametrize("policy", ["iqr", "none"])
    @pytest.mark.parametrize("command", [["simulate", "--trials", "2"], ["case-study", "composed"]])
    def test_evidence_without_recall_samples(self, command, policy, tmp_path, capsys):
        path = tmp_path / "precision-only.csv"
        path.write_text("source_id,metric,value\np1,precision,0.5\n")
        assert main([*command, "--evidence", str(path), "--outlier-policy", policy]) == 2
        assert capsys.readouterr().err == f"error: evidence file {path} has no recall samples\n"

    @pytest.mark.parametrize("command", [
        ["evidence"], ["simulate", "--trials", "2", "--evidence"], ["case-study", "composed", "--evidence"],
    ], ids=["evidence", "simulate", "case-study"])
    def test_outlier_rule_that_removes_every_sample(self, command, tmp_path, capsys):
        # with k = 0 the rule keeps [Q1, Q3] = [0.3, 0.5], which holds neither sample
        path = tmp_path / "two.csv"
        path.write_text("source_id,metric,value\np1,recall,0.2\np2,recall,0.6\n")
        assert main([*command, str(path), "--outlier-k", "0"]) == 2
        assert capsys.readouterr().err == (
            f"error: evidence file {path}: outlier policy iqr with k=0.0 removes every recall sample\n"
        )

    def test_out_path_io_error(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.json"
        assert main([*FAST_SIM, "--out", str(target)]) == 3
        assert not target.parent.exists()
        # one line that names PATH, not the temporary file beside it
        assert capsys.readouterr().err == f"i/o error: [Errno 2] No such file or directory: {str(target)!r}\n"
        # a directory is opened in place, which fails before any write
        target = tmp_path / "a-dir"
        target.mkdir()
        assert main([*FAST_SIM, "--out", str(target)]) == 3
        assert target.is_dir() and sorted(p.name for p in tmp_path.iterdir()) == ["a-dir"]


# Started from pytest, a child's ru_maxrss would include pytest's own peak RSS:
# subprocess starts it with vfork, and the kernel keeps the parent's high-water
# mark across exec. This launcher is a small interpreter that starts the real
# child and reports its exit code and peak RSS (KiB) from os.wait4.
_LAUNCHER = """
import os, sys
quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ, file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_env() -> dict:
    """This environment with the package's sources first on the import path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def peak_rss_mb(argv) -> float:
    """Peak resident memory of ``pipeuq <argv>`` run in a child process."""
    launched = subprocess.run([sys.executable, "-c", _LAUNCHER, "-m", "pipeuq.cli", *argv], env=child_env(),
                              capture_output=True, text=True, check=True)
    code, kib = map(int, launched.stdout.split())
    assert code == 0, argv
    return kib / 1024  # KiB on Linux


def test_simulate_memory_does_not_grow_with_trials():
    # an inherited reading would be the test runner's own peak, far above this
    assert peak_rss_mb(["--version"]) < 40.0
    # 300 000 trials span five chunks per stream; running sums keep one chunk
    cell = ["simulate", "--prevalence", "0.5", "--fix-rate", "0.5", "--n-items", "100", "--output", "csv"]
    small = peak_rss_mb([*cell, "--trials", "1000"])
    large = peak_rss_mb([*cell, "--trials", "300000"])
    assert large - small <= 10.0, (small, large)
    # a trace is re-drawn from the cell's seeds as it is written, never held
    trace = ["simulate", "--trace", "--prevalence", "0.5", "--fix-rate", "0.5", "--n-items", "10",
             "--mode", "extremes", "--output", "json"]
    small = peak_rss_mb([*trace, "--trials", "140000"])
    large = peak_rss_mb([*trace, "--trials", "400000"])
    assert large - small <= 4.0, (small, large)


@pytest.mark.parametrize("output", ["json", "csv"])
def test_pbox_sample_memory_does_not_grow_with_trials(output):
    # each stream is re-drawn from its chunks as it is written, and the
    # summary holds at most two chunks: 8x the samples, the same peak
    small = peak_rss_mb(["pbox-sample", "--trials", "125000", "--output", output])
    large = peak_rss_mb(["pbox-sample", "--trials", str(10**6), "--output", output])
    assert large - small <= 4.0, (small, large)


@pytest.mark.parametrize("output", ["csv", "json", "table"])
def test_analytic_memory_does_not_grow_with_the_grid(output):
    # the cells are computed as they are written, a grid row at a time: 35x the cells, the same peak
    # (the table computes them twice, once for its column widths)
    def grid(side):
        return ",".join(repr(i / (side - 1)) for i in range(side))

    small, large = (peak_rss_mb(["analytic", "--prevalence", grid(side), "--fix-rate", grid(side), "--output", output])
                    for side in (101, 601))
    assert large - small <= 4.0, (small, large)


# Runs ``pipeuq <argv>`` (or only ``import pipeuq`` when argv is empty),
# prints every module the interpreter has loaded and exits with main's code.
_MODULES = """
import contextlib, io, sys
code = 0
if sys.argv[1:]:
    from pipeuq.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
else:
    import pipeuq
print(*sys.modules)
sys.exit(code)
"""

# each exits 2: a study the config check refuses, no study at all, and a flag argparse does not know
USAGE_ERRORS = ("case-study sideways", "case-study", "analytic --sideways")
# the command lines argparse reads: help, the version, a flag it does not know and an abbreviated one
PARSED = ("--version", "--help", "analytic --sideways", "simulate --tri 5 --n-it 50")
LIBRARY = {"pipeuq.core", "pipeuq.pbox", "pipeuq.simulator", "pipeuq.evidence", "pipeuq.casestudies"}
# argv -> modules it must load, modules it must not load; every command but
# case-study must also leave statistics, every one without --config
# configparser, and every one numpy.ma (which np.percentile loads) and
# dataclasses unloaded. {csv} and {ini} stand for an evidence file and a config
# file. Only the commands that compute with arrays load numpy (`analytic` runs
# the closed forms on floats), and one that does not must also leave inspect
# (which numpy loads) and traceback unloaded. A command line argparse reads
# (PARSED) loads argparse; any other leaves argparse and gettext unloaded.
# Every command but `evidence` leaves csv unloaded without --evidence or
# --tools (`case-study` loads pipeuq.evidence only for them), a json or csv
# report leaves the table renderers (pipeuq.tables) unloaded, and a table
# report that succeeds loads them
LOADS = {
    "": (set(), {"numpy"}),  # nor any pipeuq submodule
    "--version": (set(), {"numpy", *LIBRARY}),
    "--help": (set(), {"numpy", *LIBRARY}),
    **{argv: (set(), {"numpy", *LIBRARY}) for argv in USAGE_ERRORS},
    "analytic --output csv": ({"pipeuq.core"}, {"numpy", *LIBRARY} - {"pipeuq.core"}),
    "analytic --output json": ({"pipeuq.core"}, {"numpy", *LIBRARY} - {"pipeuq.core"}),
    # both null cells: no realized fix rate at P = 0, no false-alert rate at P = 1, f = 0
    "analytic --prevalence 0,1 --fix-rate 0,0.5 --output table": (
        {"pipeuq.core"}, {"numpy", *LIBRARY} - {"pipeuq.core"},
    ),
    "analytic --config {ini}": ({"pipeuq.core", "configparser"}, {"numpy", *LIBRARY} - {"pipeuq.core"}),
    "simulate --trials 5 --n-items 50": ({"pipeuq.simulator", "numpy"}, {"pipeuq.evidence", "pipeuq.casestudies"}),
    "simulate --trials=5 --n-items=50 --trace --output csv": (
        {"pipeuq.simulator", "numpy"}, {"pipeuq.evidence", "pipeuq.casestudies"},
    ),
    "simulate --tri 5 --n-it 50": ({"pipeuq.simulator", "numpy"}, {"pipeuq.evidence", "pipeuq.casestudies"}),
    # only a report holding a float array loads orjson, and simulate's holds none
    "simulate --trials 20 --output json": ({"pipeuq.simulator", "numpy"}, {"orjson"}),
    "simulate --trials 5 --evidence {csv}": (
        {"pipeuq.simulator", "pipeuq.evidence", "numpy"}, {"pipeuq.casestudies"},
    ),
    "pbox-sample --trials 5": (
        {"pipeuq.pbox", "numpy"}, {"pipeuq.simulator", "pipeuq.evidence", "pipeuq.casestudies"},
    ),
    "pbox-sample --trials 5 --output csv": (
        {"pipeuq.pbox", "numpy"}, {"pipeuq.simulator", "pipeuq.evidence", "pipeuq.casestudies"},
    ),
    "evidence {csv}": ({"pipeuq.evidence"}, {"pipeuq.simulator", "pipeuq.casestudies", "numpy"}),
    "case-study rule-based": (
        {"pipeuq.casestudies", "statistics"}, {"pipeuq.simulator", "pipeuq.core", "pipeuq.evidence", "numpy"},
    ),
    # the fix-rate wrap is core's pipeline_fix_rate, numpy-free on floats
    "case-study composed": ({"pipeuq.casestudies", "pipeuq.core"}, {"pipeuq.simulator", "pipeuq.evidence", "numpy"}),
    "case-study --seed 3 composed --output json": (
        {"pipeuq.casestudies", "pipeuq.core"}, {"pipeuq.simulator", "pipeuq.evidence", "numpy"},
    ),
    "case-study composed --evidence {csv}": (
        {"pipeuq.casestudies", "pipeuq.evidence", "pipeuq.core"}, {"pipeuq.simulator", "numpy"},
    ),
}


@pytest.mark.parametrize("command", LOADS, ids=lambda command: command or "import pipeuq")
def test_each_command_loads_only_what_it_runs(command, tmp_path):
    (tmp_path / "ev.csv").write_text(TestEvidence.CSV)
    (tmp_path / "run.ini").write_text("[common]\nseed = 3\n")
    argv = command.format(csv=tmp_path / "ev.csv", ini=tmp_path / "run.ini").split()
    child = subprocess.run([sys.executable, "-c", _MODULES, *argv], env=child_env(),
                           capture_output=True, text=True)
    assert child.returncode == (2 if command in USAGE_ERRORS else 0), child.stderr
    if command.startswith("case-study") and child.returncode:
        assert child.stderr.startswith("error: which: ") and child.stderr.count("\n") == 1, child.stderr
    loaded = set(child.stdout.split())
    must, must_not = LOADS[command]
    must_not = must_not | {"statistics", "configparser", "numpy.ma", "dataclasses"} - must
    if command in PARSED:
        must = must | {"argparse"}
    elif argv:
        must_not |= {"argparse", "gettext"}
    if argv[:1] != ["evidence"] and not {"--evidence", "--tools"} & set(argv):
        must_not |= {"csv"}
    if {"json", "csv"} & set(argv):
        must_not |= {"pipeuq.tables"}
    elif argv and argv[0] in FLAGS and not child.returncode:
        must = must | {"pipeuq.tables"}
    if "numpy" in must_not:
        must_not |= {"inspect", "traceback"}
    assert must <= loaded and not must_not & loaded, (must - loaded, must_not & loaded)
    if not argv:
        assert not any(name.startswith("pipeuq.") for name in loaded)


# The process entry as the `pipeuq` console script runs it, with an atexit handler that
# writes to fd 2 if it ever runs. PYTHONUNBUFFERED would make stdout write-through, so a
# write too small to fill the buffer would fail inside main and not, as it does by
# default, at the last flush.
_RUN = """
import atexit, os
atexit.register(os.write, 2, b"atexit handler ran\\n")
from pipeuq.cli import run
run()
"""


def run_entry(argv, **kwargs) -> subprocess.CompletedProcess:
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", _RUN, *argv], env=env, **kwargs)


def full_device() -> int:
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


def closed_pipe() -> int:
    # every write to it fails with EPIPE, from the first one on
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("sink", [full_device, closed_pipe], ids=["dev-full", "closed-pipe"])
@pytest.mark.parametrize(
    "argv",
    [["analytic"], ["pbox-sample", "--trials", "100000", "--output", "json"], ["--version"]],
    ids=["fails-at-last-flush", "fails-while-written", "argparse-output"],
)
def test_failed_stdout_write_exits_3_with_one_line(argv, sink):
    fd = sink()
    try:
        child = run_entry(argv, stdout=fd, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(fd)
    lines = child.stderr.splitlines()
    assert child.returncode == 3, child.stderr
    assert len(lines) == 1 and lines[0].startswith("i/o error:"), child.stderr
    assert "Exception ignored" not in child.stderr


@pytest.mark.parametrize("argv, both, code", [
    (["analytic"], True, 3),
    (["analytic", "--recall", "2"], True, 2),
    (["analytic", "--recall", "2"], False, 2),
], ids=["report-and-line", "refused-and-line", "line-alone"])
def test_failed_stderr_write_keeps_the_exit_code(argv, both, code):
    # fd 2 (and with `both`, fd 1) on a pipe whose reader has closed: the error line is lost,
    # as argparse loses its messages there, and the exit code that main chose stands
    fd = closed_pipe()
    try:
        child = run_entry(argv, stdout=fd if both else subprocess.DEVNULL, stderr=fd)
    finally:
        os.close(fd)
    assert child.returncode == code


@pytest.mark.parametrize("argv, code, stderr", [
    (["--version"], 0, f"pipeuq {re.escape(__version__)}\n"),  # argparse writes it to stderr
    (["analytic"], 3, "i/o error: .*\n"),
    (["analytic", "--out", "{out}"], 0, ""),
], ids=["version", "report", "out-file"])
def test_entry_with_stdout_closed_at_startup(argv, code, stderr, tmp_path):
    # fd 1 closed before the interpreter starts leaves sys.stdout None
    argv = [arg.format(out=tmp_path / "child.txt") for arg in argv]
    child = subprocess.run(["sh", "-c", 'exec "$0" -m pipeuq.cli "$@" >&-', sys.executable, *argv],
                           env=child_env(), capture_output=True, text=True)
    assert child.returncode == code and re.fullmatch(stderr, child.stderr), child.stderr
    if "--out" in argv:
        assert main(["analytic", "--out", str(tmp_path / "main.txt")]) == 0
        assert (tmp_path / "child.txt").read_bytes() == (tmp_path / "main.txt").read_bytes()


def test_console_script_is_the_main_block_entry():
    root = Path(__file__).resolve().parent.parent
    script = re.search(r'^\[project\.scripts\]\npipeuq = "pipeuq\.cli:(\w+)"$',
                       (root / "pyproject.toml").read_text(), re.M)
    block = re.search(r'^if __name__ == "__main__":\n    sys\.exit\((\w+)\(\)\)$',
                      (root / "src" / "pipeuq" / "cli.py").read_text(), re.M)
    assert script and block and script[1] == block[1], (script, block)


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--trials", "60", "--output", "json"], 0),
    (["simulate", "--trials", "0"], 2),
    (["case-study", "sideways"], 2),
    (["evidence", "{missing}"], 3),
])
def test_entry_child_matches_in_process_main(argv, code, tmp_path, capsysbinary):
    # run() ends the child with os._exit: main's code and bytes, and no atexit handler
    argv = [arg.format(missing=tmp_path / "missing.csv") for arg in argv]
    assert main(argv) == code
    expected = capsysbinary.readouterr()
    child = run_entry(argv, capture_output=True)
    assert (child.returncode, child.stdout, child.stderr) == (code, expected.out, expected.err)


def test_entry_child_out_file_is_complete(tmp_path):
    argv = ["pbox-sample", "--trials", "100000", "--output", "json", "--out"]
    assert run_entry([*argv, str(tmp_path / "child.json")]).returncode == 0
    assert main([*argv, str(tmp_path / "main.json")]) == 0
    assert (tmp_path / "child.json").read_bytes() == (tmp_path / "main.json").read_bytes()


# Runs the process entry on argv and prints its exit code, the OPENBLAS_NUM_THREADS it
# leaves and the process's thread count (None without /proc) to stderr.
_BLAS = """
import os, sys
from pipeuq.cli import entry
code = entry()
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(code, os.environ.get("OPENBLAS_NUM_THREADS"), threads, file=sys.stderr)
"""


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset"])
def test_entry_runs_numpy_with_one_blas_thread_unless_told_otherwise(preset):
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    child = subprocess.run([sys.executable, "-c", _BLAS, "simulate", "--trials", "20", "--output", "json"],
                           env=env, capture_output=True, text=True, check=True)
    code, blas, threads = child.stderr.split()
    assert (code, blas) == ("0", preset or "1")
    if preset is None and threads != "None":  # numpy is loaded, and OpenBLAS started no worker
        assert threads == "1"


def test_main_leaves_the_environment_alone(capsys):
    before = dict(os.environ)
    assert main(["simulate", "--trials", "20", "--output", "json"]) == 0
    assert dict(os.environ) == before


def test_only_the_entry_turns_the_collector_off(capsys):
    assert main(["analytic"]) == 0
    assert gc.isenabled()
    check = "import gc, sys; from pipeuq.cli import entry; print(entry(), gc.isenabled(), file=sys.stderr)"
    child = subprocess.run([sys.executable, "-c", check, "analytic"], env=child_env(), capture_output=True,
                           text=True, check=True)
    assert child.stderr == "0 False\n"


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--version"], ["bogus"], ["--", "analytic"], ["analytic", "-h"], ["simulate", "--help"],
    ["evidence", "-h"], ["case-study", "-h"], ["pbox-sample", "-h"], ["analytic", "--bogus"],
    ["analytic", "extra"], ["analytic", "--version"], ["case-study"], ["case-study", "sideways"],
    ["simulate", "--mode", "median"], ["analytic", "--recall"], ["pbox-sample", "--trials", "x"],
])
def test_one_subparser_reads_as_all_five(argv, capsys):
    # whichever command argv names, main prints what the parser of all five subparsers prints (help and
    # --version exit 0), and a top-level usage line names every command
    from pipeuq.cli import _scan, build_parser

    code = main(argv)
    printed = capsys.readouterr()
    try:
        parsed = build_parser().parse_args(argv)
    except SystemExit as exc:
        assert _scan(argv) is None
        assert (code, *printed) == (int(exc.code or 0), *capsys.readouterr())
    else:
        assert vars(_scan(argv)) == vars(parsed)
    text = printed.out + printed.err
    if "usage: pipeuq [-h] [--version]" in text:
        assert "{" + ",".join(FLAGS) + "}" in text


def _grid(side: int) -> str:
    return ",".join(repr(i / (side - 1)) for i in range(side))


def _analytic(side, output):
    return ["analytic", "--prevalence", _grid(side), "--fix-rate", _grid(side), "--output", output]


def _trace(trials):
    return ["simulate", "--trace", "--prevalence", "0.5", "--fix-rate", "0.5", "--trials", str(trials),
            "--output", "json"]


# (small argv, large argv, the large run's exit code) of one command; the exit-2 pair is a run and a
# refused run
CYCLE_PAIRS = {
    "analytic-csv": (_analytic(11, "csv"), _analytic(201, "csv"), 0),
    "analytic-json": (_analytic(11, "json"), _analytic(201, "json"), 0),
    "simulate": (["simulate", "--trials", "1000"], ["simulate", "--trials", "200000"], 0),
    "simulate-trace": (_trace(1000), _trace(200000), 0),
    "pbox-sample-json": (["pbox-sample", "--trials", "1000", "--output", "json"],
                         ["pbox-sample", "--trials", str(10**6), "--output", "json"], 0),
    "pbox-sample-csv": (["pbox-sample", "--trials", "1000", "--output", "csv"],
                        ["pbox-sample", "--trials", str(10**6), "--output", "csv"], 0),
    "exit-2": (["simulate", "--trials", "1000"], ["simulate", "--trials", "0"], 2),
}


@pytest.mark.parametrize("small, large, code", CYCLE_PAIRS.values(), ids=CYCLE_PAIRS)
def test_garbage_cycles_do_not_grow_with_the_run(small, large, code, capsys):
    # entry() runs main with the collector off, so a cycle made per chunk or row would stay
    # in memory: each run must leave the same cyclic garbage whatever its size
    gc.collect()
    gc.disable()
    try:
        codes, found = [], []
        for argv in (small, small, large):  # the first run imports what the command loads
            codes.append(main([*argv, "--out", os.devnull]))
            found.append(gc.collect())
    finally:
        gc.enable()
    capsys.readouterr()
    assert codes == [0, 0, code]
    assert found[1] == found[2], found


@pytest.mark.parametrize("fd", [1, 2], ids=["stdout", "stderr"])
@pytest.mark.parametrize("argv", [["analytic"], ["simulate", "--trials", "0"], ["--version"]],
                         ids=["report", "refused", "version"])
def test_run_with_a_std_fd_closed_at_startup_exits_with_main(fd, argv, monkeypatch, capsys):
    # fd 1 or 2 closed before the interpreter starts leaves sys.stdout or sys.stderr None
    child = subprocess.run(["sh", "-c", f'exec "$0" -m pipeuq.cli "$@" {fd}>&-', sys.executable, *argv],
                           env=child_env(), capture_output=True)
    monkeypatch.setattr(sys, ("stdout", "stderr")[fd - 1], None)
    assert child.returncode == main(argv)


# `python -W error` turns any warning a command lets escape into an exception, so exit 4
_WARNING_ARGVS = [
    "analytic", "simulate", "pbox-sample --output json", "evidence {csv}", "case-study rule-based",
    "case-study composed",
    "pbox-sample --trials 70000 --output json",  # the summary folds two chunks
    "simulate --trace --output json --prevalence 0,1e-300,1 --fix-rate 0,1 --break-rate 0.3",
]


@pytest.mark.parametrize("command", _WARNING_ARGVS)
def test_no_warning_escapes_a_command(command, tmp_path):
    (tmp_path / "ev.csv").write_text(TestEvidence.CSV)
    argv = command.format(csv=tmp_path / "ev.csv").split()
    child = subprocess.run([sys.executable, "-W", "error", "-m", "pipeuq.cli", *argv], env=child_env(),
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert (child.returncode, child.stderr) == (0, "")


# Blocks the modules named in argv[1] (comma-separated), then runs the console script on the rest:
# a command that imports one of them fails with exit 4
_BLOCKED = """
import sys
for name in sys.argv.pop(1).split(","):
    sys.modules[name] = None
from pipeuq.cli import run
run()
"""
# --version, evidence, the case studies and analytic (its closed forms run on floats)
NUMPY_FREE = [
    "--version", "case-study composed", "case-study rule-based --output json", "evidence {csv}",
    "case-study composed --evidence {csv}", "analytic", "analytic --output csv", "analytic --output json",
    "analytic --prevalence 0,1 --fix-rate 0,0.5 --output json",
]


def _run_blocked(blocked: str, command: str, tmp_path) -> subprocess.CompletedProcess:
    argv = command.format(csv=tmp_path / "ev.csv").split()
    return subprocess.run([sys.executable, "-c", _BLOCKED, blocked, *argv], env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("command", NUMPY_FREE)
def test_command_runs_with_modules_blocked(command, tmp_path):
    (tmp_path / "ev.csv").write_text(TestEvidence.CSV)
    child = _run_blocked("numpy,dataclasses,inspect,orjson", command, tmp_path)
    assert (child.returncode, child.stderr) == (0, "")


@pytest.mark.parametrize("command", [
    "analytic --recall 1.5", "case-study composed --case-recall 1.5", "evidence {csv}",
])
def test_refused_probability_exits_2_without_numpy(command, tmp_path):
    # refused probabilities are checked without numpy: one error line, never exit 4
    (tmp_path / "ev.csv").write_text("source_id,metric,value\np1,recall,1.5\n")
    child = _run_blocked("numpy,dataclasses,inspect", command, tmp_path)
    assert child.returncode == 2 and re.fullmatch("error: [^\n]*\n", child.stderr), child.stderr
