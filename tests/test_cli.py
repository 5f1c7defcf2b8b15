import json
import os
import subprocess
import sys
from pathlib import Path

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


    def test_mean_at_minimum(self, tmp_path):
        doc = run_json(tmp_path, ["pbox-sample", "--pbox-min", "0.2", "--pbox-max", "0.8",
                                  "--pbox-mean", "0.2"])
        assert all(lo <= hi for lo, hi in zip(doc["results"]["pessimistic"], doc["results"]["optimistic"]))
        assert min(doc["results"]["optimistic"]) == 0.2
        assert main(["simulate", "--pbox-min", "0.2", "--pbox-max", "0.8", "--pbox-mean", "0.2",
                     "--trials", "50", "--prevalence", "0.5", "--fix-rate", "0.5"]) == 0


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
            # accepted counts whose arrays exceed the address space, so they
            # fail before any memory is touched
            *([command, "--trials", str(n)]
              for command in ("simulate", "pbox-sample") for n in (2**59, 2**63 - 1)),
            # a trace above 2**20 floats: 6 x 14564 x 12 default cells, 6 x 174763 x 1
            ["simulate", "--trace", "--trials", "14564"],
            ["simulate", "--trace", "--prevalence", "0.5", "--fix-rate", "0.5", "--trials", "174763"],
            ["case-study", "rule-based", "--confidence", "0.9999999999999999"],
            # a subnormal prevalence or an infinite k would print a
            # non-JSON -Infinity or Infinity
            ["simulate", "--prevalence", "1e-320", "--fix-rate", "0.5", "--break-rate", "0.5",
             "--trials", "3", "--n-items", "10", "--output", "json"],
            # a normal prevalence whose realized fix rates, about -1e305 each,
            # would overflow their sum over 65536 trials to -Infinity
            ["simulate", "--prevalence", "1e-305", "--fix-rate", "0.5", "--break-rate", "1",
             "--n-items", "1", "--trials", "65536", "--output", "json"],
            ["evidence", path["evidence.csv"], "--outlier-k", "inf", "--output", "json"],
            ["evidence", path["evidence.csv"], "--outlier-k", "nan"],
        ]
        for argv in argvs:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "outlier_k" in err

    def test_trace_limit_is_exact(self):
        cell = {"prevalence": [0.5], "fix_rate": [0.5], "trace": True}
        validate_config(RunConfig(trials=174762, **cell), "simulate")
        with pytest.raises(ConfigError, match="trace"):
            validate_config(RunConfig(trials=174763, **cell), "simulate")
        # a trace set in a config file binds only the command that embeds one
        validate_config(RunConfig(trials=10**6, **cell), "pbox-sample")

    def test_tiny_prevalence_limit_binds_simulate_only(self):
        cell = {"prevalence": [1e-305], "fix_rate": [0.5]}
        validate_config(RunConfig(trials=8, **cell), "simulate")
        with pytest.raises(ConfigError, match="prevalence"):
            validate_config(RunConfig(trials=65536, **cell), "simulate")
        validate_config(RunConfig(trials=65536, **cell), "analytic")

    def test_out_path_io_error(self, tmp_path):
        target = tmp_path / "missing-dir" / "x.json"
        assert main([*FAST_SIM, "--out", str(target)]) == 3
        assert not target.parent.exists()
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


@pytest.mark.parametrize("output", ["json", "csv"])
def test_pbox_sample_memory_is_arrays_plus_constant(output):
    # the report is written as it is encoded: beyond a constant, only the
    # three float64 sample arrays (24 B per sample) stay in memory
    n = 10**6
    small = peak_rss_mb(["pbox-sample", "--trials", "1000", "--output", output])
    large = peak_rss_mb(["pbox-sample", "--trials", str(n), "--output", output])
    assert large - small <= 24 * n / 2**20 + 8.0, (small, large)


# Runs ``pipeuq <argv>`` (or only ``import pipeuq`` when argv is empty) and
# prints every module the interpreter has loaded.
_MODULES = """
import contextlib, io, sys
if sys.argv[1:]:
    from pipeuq.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
else:
    import pipeuq
print(*sys.modules)
"""

LIBRARY = {"pipeuq.core", "pipeuq.pbox", "pipeuq.simulator", "pipeuq.evidence", "pipeuq.casestudies"}
# argv -> modules it must load, modules it must not load; every command but
# case-study must also leave statistics, and every one without --config
# configparser, unloaded. {csv} and {ini} stand for an evidence file and a
# config file
LOADS = {
    "": (set(), {"numpy"}),  # nor any pipeuq submodule
    "analytic --output csv": ({"pipeuq.core"}, LIBRARY - {"pipeuq.core"}),
    "analytic --config {ini}": ({"pipeuq.core", "configparser"}, LIBRARY - {"pipeuq.core"}),
    "simulate --trials 5 --n-items 50": ({"pipeuq.simulator"}, {"pipeuq.evidence", "pipeuq.casestudies"}),
    "simulate --trials 5 --evidence {csv}": ({"pipeuq.simulator", "pipeuq.evidence"}, {"pipeuq.casestudies"}),
    "pbox-sample --trials 5": ({"pipeuq.pbox"}, {"pipeuq.simulator", "pipeuq.evidence", "pipeuq.casestudies"}),
    "evidence {csv}": ({"pipeuq.evidence"}, {"pipeuq.simulator", "pipeuq.casestudies"}),
    "case-study rule-based": ({"pipeuq.casestudies", "statistics"}, {"pipeuq.simulator"}),
    "case-study composed": ({"pipeuq.casestudies"}, {"pipeuq.simulator"}),
}


@pytest.mark.parametrize("command", LOADS, ids=lambda command: command or "import pipeuq")
def test_each_command_loads_only_what_it_runs(command, tmp_path):
    (tmp_path / "ev.csv").write_text(TestEvidence.CSV)
    (tmp_path / "run.ini").write_text("[common]\nseed = 3\n")
    argv = command.format(csv=tmp_path / "ev.csv", ini=tmp_path / "run.ini").split()
    child = subprocess.run([sys.executable, "-c", _MODULES, *argv], env=child_env(),
                           capture_output=True, text=True, check=True)
    loaded = set(child.stdout.split())
    must, must_not = LOADS[command]
    must_not = must_not | {"statistics", "configparser"} - must
    assert must <= loaded and not must_not & loaded, (must - loaded, must_not & loaded)
    if not argv:
        assert not any(name.startswith("pipeuq.") for name in loaded)
