"""CLI contract: subcommands, exit codes, determinism, config files, and the
bytes of a fixed set of runs."""

import hashlib
import json

import pytest

from percolate import BoxSpec, CffpRealization, ModelParams, cost_distance, couple_alpha
from percolate.cli import main
from percolate.sampler import load_graph
from percolate.rng import trial_seed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestGenerate:
    def test_zero_lambda_grid_file(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, summary = run(
            capsys,
            "generate", "--model", "lrp", "--d", "1", "--L", "16",
            "--alpha", "1.5", "--lambda", "0", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert summary["result"]["edges"] == 15
        text = out.read_text()
        assert sum(1 for ln in text.splitlines() if ln.startswith("e ")) == 15

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "--model", "sfp", "--d", "1", "--L", "32",
                "--alpha", "1.4", "--tau", "4", "--lambda", "0.5", "--seed", "3"]
        code1, s1 = run(capsys, *args, "--out", str(a))
        code2, s2 = run(capsys, *args, "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()
        s1["config"].pop("out"), s2["config"].pop("out")
        s1["result"].pop("out"), s2["result"].pop("out")
        assert s1 == s2

    def test_budget_env_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PERCOLATE_BUDGET_VERTICES", "10")
        code = main(["generate", "--model", "lrp", "--d", "1", "--L", "16",
                     "--alpha", "1.5", "--lambda", "0", "--seed", "1",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2

    def test_budget_env_is_read_at_each_run(self, tmp_path, capsys, monkeypatch):
        argv = ["generate", "--model", "lrp", "--d", "1", "--L", "16", "--alpha", "1.5",
                "--lambda", "0", "--seed", "1", "--out", str(tmp_path / "x.txt")]
        monkeypatch.setenv("PERCOLATE_BUDGET_VERTICES", "10")
        assert main(argv) == 2
        monkeypatch.delenv("PERCOLATE_BUDGET_VERTICES")
        assert main(argv) == 0

    def test_malformed_budget_env_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PERCOLATE_BUDGET_VERTICES", "ten")
        out = tmp_path / "x.txt"
        assert main(["generate", "--model", "lrp", "--d", "1", "--L", "16", "--alpha", "1.5",
                     "--lambda", "0", "--seed", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "PERCOLATE_BUDGET_VERTICES" in captured.err
        assert not out.exists()

    def test_fpp_costs_written(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, summary = run(
            capsys,
            "generate", "--model", "lrp", "--d", "1", "--L", "8",
            "--alpha", "1.5", "--lambda", "0.2", "--seed", "5",
            "--out", str(out), "--costs", "fpp",
        )
        assert code == 0
        assert summary["result"]["costs"] == summary["result"]["edges"]
        assert any(ln.startswith("c ") for ln in out.read_text().splitlines())


class TestDistance:
    def test_hop_and_cost(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        run(capsys, "generate", "--model", "lrp", "--d", "1", "--L", "16",
            "--alpha", "1.5", "--lambda", "0", "--seed", "7", "--out", str(out),
            "--costs", "fpp")
        code, summary = run(capsys, "distance", "--in", str(out),
                            "--source", "0", "--target", "7")
        assert code == 0 and summary["result"]["distance"] == 7
        code, summary = run(capsys, "distance", "--in", str(out),
                            "--source", "0", "--target", "7", "--cost")
        assert code == 0 and summary["result"]["distance"] > 0

    def test_malformed_graph_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        assert main(["generate", "--L", "8", "--alpha", "1.5", "--lambda", "0.3", "--seed", "7",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        with open(path, "a") as fh:
            fh.write("e 0 999\n")
        assert main(["distance", "--in", str(path), "--source", "0", "--target", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid arguments: ") and "vertex id" in captured.err

    def test_cffp_costs_are_searched_as_the_complete_graph(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        run(capsys, "generate", "--model", "sfp", "--d", "1", "--L", "40", "--alpha", "1.5",
            "--tau", "6", "--lambda", "1", "--seed", "3", "--costs", "cffp", "--out", str(out))
        code, summary = run(capsys, "distance", "--in", str(out),
                            "--source", "0", "--target", "39", "--cost")
        g, costs = load_graph(out)
        assert len(costs) == 40 * 39 // 2 > len(g.edges)
        real = CffpRealization(g.box, g.weights, g.params, g.seed)
        assert code == 0
        assert summary["result"]["distance"] == cost_distance(real, None, 0, 39)
        assert summary["result"]["distance"] == 1.5446905891725746


class TestBk:
    def test_worked_example(self, capsys):
        code, summary = run(capsys, "bk", "--n", "2", "--p", "0.5,0.5",
                            "--eventA", "open:1", "--eventB", "open:2")
        assert code == 0
        assert summary["result"]["p_disjoint"] == 0.25
        assert summary["result"]["p_product"] == 0.25

    def test_broadcast_p_and_any_event(self, capsys):
        code, summary = run(capsys, "bk", "--n", "3", "--p", "0.5",
                            "--eventA", "any:1,2", "--eventB", "open:3")
        assert code == 0
        assert summary["result"]["p_disjoint"] <= summary["result"]["p_product"] + 1e-12

    def test_three_events(self, capsys):
        code, summary = run(capsys, "bk", "--n", "3", "--p", "0.4",
                            "--eventA", "open:1", "--eventB", "open:2",
                            "--eventC", "open:3")
        assert code == 0
        assert summary["result"]["p_disjoint"] == pytest.approx(0.4**3)

    def test_bad_event_spec_is_usage_error(self, capsys):
        assert main(["bk", "--n", "2", "--p", "0.5", "--eventA", "weird:1",
                     "--eventB", "open:2"]) == 1

    @pytest.mark.parametrize("spec, message", [
        ("open:3", "event index out of range in 'open:3'"),
        ("any:0", "event index out of range in 'any:0'"),
        ("any:1,9", "event index out of range in 'any:1,9'"),
        ("none:1", "unrecognized event spec 'none:1'"),
        ("", "unrecognized event spec ''"),
        ("open:", "--eventA: '' is not an integer"),
    ])
    def test_refused_event_specs_name_the_fault(self, capsys, spec, message):
        assert main(["bk", "--n", "2", "--p", "0.5", "--eventA", spec,
                     "--eventB", "open:2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: {message}\n"

    @pytest.mark.parametrize("event_c", [[], ["--eventC", ""]], ids=["two", "empty-c"])
    def test_full_event_and_an_empty_event_c(self, capsys, event_c):
        code, summary = run(capsys, "bk", "--n", "2", "--p", "0.5",
                            "--eventA", "full", "--eventB", "open:2", *event_c)
        assert code == 0
        assert summary["result"] == {"p_disjoint": 0.5, "p_product": 0.5, "violations": 0}


def coupling_report(summary, out) -> dict:
    """The --out report of a coupling run, checked against its summary."""
    report = json.loads(out.read_text())
    assert set(report) == {"kind", "trials", "violations", "parameters", "details"}
    assert report["trials"] == summary["result"]["trials"]
    assert report["violations"] == summary["result"]["violations"]
    return report


class TestCoupling:
    def test_alpha_ok(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code, summary = run(capsys, "coupling", "--kind", "alpha", "--d", "1",
                            "--L", "32", "--alpha", "1.8", "--alpha-prime", "1.5",
                            "--tau", "4", "--lambda", "0.3", "--seeds", "5",
                            "--seed", "2", "--out", str(out))
        assert code == 0
        assert summary["result"]["violations"] == 0
        assert coupling_report(summary, out)["kind"] == "AlphaReduce"
        # the trials are the edges of all five seeds' original graphs
        params = ModelParams(d=1, alpha=1.8, tau=4.0, lam=0.3)
        assert summary["result"]["trials"] == sum(
            couple_alpha(BoxSpec(d=1, side=32), params, 1.5, trial_seed(2, i))[2].trials
            for i in range(5)
        )

    def test_min_exp_ok(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code, summary = run(capsys, "coupling", "--kind", "min-exp", "--seed", "1",
                            "--out", str(out))
        assert code == 0 and summary["result"]["violations"] == 0
        report = coupling_report(summary, out)
        assert report["kind"] == "MinExpGrid"
        assert report["trials"] == 51 * 51
        assert report["parameters"]["worst_gap"] == 0.0

    def test_weights_ok(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code, summary = run(capsys, "coupling", "--kind", "weights", "--tau", "4",
                            "--tau-prime", "3.3", "--alpha", "1", "--r", "12",
                            "--d", "1", "--trials", "2000", "--seed", "4",
                            "--out", str(out))
        assert code == 0
        assert coupling_report(summary, out)["kind"] == "WeightDominance"

    def test_blowup_violation_exit_3(self, tmp_path, capsys):
        # an absurd goal lambda cannot be met: bins with target 1, freq < 1
        out = tmp_path / "rep.json"
        code, summary = run(capsys, "coupling", "--kind", "blowup-lrp",
                            "--d", "1", "--L", "16", "--r", "2", "--alpha", "1.5",
                            "--lambda-small", "0.001", "--lambda-goal", "100",
                            "--seeds", "2", "--seed", "3", "--out", str(out))
        assert code == 3
        assert summary["result"]["violations"] > 0
        assert coupling_report(summary, out)["kind"] == "BlowupLRP"

    def test_fpp_cffp_ok(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code, summary = run(capsys, "coupling", "--kind", "fpp-cffp", "--wu", "1",
                            "--wv", "1", "--dist", "2", "--t", "1", "--alpha", "1",
                            "--lambda", "1", "--trials", "20000", "--seed", "8",
                            "--out", str(out))
        assert code == 0
        assert coupling_report(summary, out)["kind"] == "FppCffp"

    @pytest.mark.parametrize("kind, flag", [("alpha", "--alpha-prime"),
                                            ("weights", "--tau-prime")])
    def test_kind_without_its_flag_is_usage_error(self, capsys, kind, flag):
        assert main(["coupling", "--kind", kind, "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"usage error: --kind {kind} needs {flag}\n"

    def test_weights_with_infinite_tau_is_rejected(self, capsys):
        # x^(1 - tau) is 0 beyond x = 1 at tau = inf, so no shortfall could be flagged
        assert main(["coupling", "--kind", "weights", "--tau-prime", "3.5", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("invalid arguments: ")


class TestTailGrowthShapeFit:
    def test_tail_with_lrp_bound(self, tmp_path, capsys):
        out = tmp_path / "tail.csv"
        code, summary = run(
            capsys, "tail", "--model", "lrp", "--d", "1", "--L", "65",
            "--alpha", "1.5", "--lambda", "0.05", "--source", "16",
            "--targets", "24,48", "--thresholds", "1,2,3", "--trials", "200",
            "--seed", "6", "--out", str(out), "--bound", "lrp",
        )
        assert code == 0
        assert summary["result"]["compliant"] is True
        assert summary["result"]["margin"] >= 0
        assert out.read_text().startswith("dist,threshold")

    def test_tail_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["tail", "--model", "lrp", "--d", "1", "--L", "33", "--alpha", "1.5",
                "--lambda", "0.1", "--source", "8", "--targets", "24",
                "--thresholds", "2,4", "--trials", "50", "--seed", "12"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_growth_and_h(self, tmp_path, capsys):
        out = tmp_path / "growth.csv"
        code, summary = run(
            capsys, "growth", "--metric", "cffp", "--model", "sfp", "--d", "1",
            "--L", "21", "--alpha", "1.5", "--tau", "4", "--lambda", "1",
            "--thresholds", "0.2,0.4,0.6,0.8", "--trials", "20", "--seed", "3",
            "--out", str(out), "--h-t", "0.6", "--h-delta", "2.0", "--selfbound",
        )
        assert code == 0
        assert "h_functional" in summary["result"]
        assert summary["result"]["selfbound_c"] >= 1.0
        assert out.read_text().startswith("threshold,mean_size")

    def test_shape(self, tmp_path, capsys):
        out = tmp_path / "shape.csv"
        code, summary = run(
            capsys, "shape", "--model", "lrp", "--d", "1", "--L", "129",
            "--alpha", "1.2", "--lambda", "0.05", "--ks", "2,3",
            "--trials", "30", "--seed", "5", "--fit-trials", "30", "--out", str(out),
        )
        assert code == 0
        assert set(summary["result"]["frequencies"]) == {"2", "3"}

    def test_fit_inline_samples(self, capsys):
        code, summary = run(
            capsys, "fit",
            "--samples", "10:5.3,100:21.2,1000:47.7,10000:84.8",
            "--alpha", "1.5", "--tau", "4",
        )
        assert code == 0
        assert summary["result"]["delta_hat"] == pytest.approx(2.0, abs=0.1)
        assert summary["result"]["reference_delta"] == pytest.approx(2.409, abs=1e-3)


class TestUsageAndConfig:
    def test_missing_seed_is_usage_error(self, tmp_path):
        assert main(["generate", "--model", "lrp", "--d", "1", "--L", "4",
                     "--alpha", "1.5", "--lambda", "0",
                     "--out", str(tmp_path / "g.txt")]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "lrp", "d": 1, "L": 16, "alpha": 1.5, "lambda": 0.0,
            "seed": 7, "out": str(tmp_path / "from_cfg.txt"),
        }))
        code, summary = run(capsys, "generate", "--config", str(cfg))
        assert code == 0 and summary["result"]["edges"] == 15
        # a flag on the command line overrides the file value
        code, summary = run(capsys, "generate", "--config", str(cfg),
                            "--L", "8", "--out", str(tmp_path / "override.txt"))
        assert code == 0 and summary["result"]["vertices"] == 8

    @pytest.mark.parametrize("extra", [{"bogus": 7}, {"func": 1}, {"_required": []},
                                       {"subcommand": "tail"}, {"config": "x.json"}])
    def test_config_key_without_a_flag_is_usage_error(self, tmp_path, capsys, extra):
        cfg, out = tmp_path / "cfg.json", tmp_path / "g.txt"
        cfg.write_text(json.dumps({
            "model": "lrp", "d": 1, "L": 16, "alpha": 1.5, "lambda": 0.0,
            "seed": 7, "out": str(out), **extra,
        }))
        assert main(["generate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"config keys: {next(iter(extra))}\n" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [{"L": 16.5}, {"seed": 7.9}, {"model": "qqq"},
                                       {"seed": True}],
                             ids=["float-L", "float-seed", "bad-choice", "bool-seed"])
    def test_config_values_are_parsed_as_flags(self, tmp_path, capsys, extra):
        cfg, out = tmp_path / "cfg.json", tmp_path / "g.txt"
        cfg.write_text(json.dumps({
            "model": "lrp", "d": 1, "L": 16, "alpha": 1.5, "lambda": 0.0,
            "seed": 7, "out": str(out), **extra,
        }))
        assert main(["generate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")
        assert not out.exists()

    def test_repeated_config_is_usage_error(self, tmp_path, capsys):
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "g.txt"
        a.write_text(json.dumps({"L": 8}))
        b.write_text(json.dumps({"L": 12}))
        argv = ["generate", "--alpha", "1.5", "--lambda", "0", "--seed", "1",
                "--out", str(out), "--config", str(a)]
        for second in (["--config", str(b)], [f"--config={b}"]):
            assert main(argv + second) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("usage error: ")
            assert str(a) in captured.err and str(b) in captured.err
            assert not out.exists()

    def test_abbreviated_config_is_usage_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "a.json", tmp_path / "g.txt"
        cfg.write_text(json.dumps({"L": 8}))
        argv = ["generate", "--L", "16", "--alpha", "1.5", "--lambda", "0", "--seed", "1",
                "--out", str(out)]
        for conf in (["--conf", str(cfg)], [f"--con={cfg}"]):
            assert main(argv + conf) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("usage error: ")
            assert str(cfg) in captured.err and not out.exists()
        # abbreviations of the other flags still parse
        code, summary = run(capsys, *argv[:-2], "--ou", str(out))
        assert code == 0 and summary["result"]["vertices"] == 16

    def test_abbreviated_config_with_a_flag_left_to_the_file(self, tmp_path, capsys):
        cfg, out = tmp_path / "a.json", tmp_path / "g.txt"
        cfg.write_text(json.dumps({"L": 8}))
        argv = ["generate", "--alpha", "1.5", "--lambda", "0", "--seed", "1", "--out", str(out)]
        for conf in (["--conf", str(cfg)], [f"--con={cfg}"]):
            assert main(argv + conf) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("usage error: ")
            assert conf[0].split("=")[0] in captured.err and str(cfg) in captured.err
            assert "--L" not in captured.err and not out.exists()
        # a prefix that another flag of the subcommand also begins with is left to argparse
        assert main(["shape", "--c", "1", "--L", "8", "--alpha", "1.5", "--lambda", "0",
                     "--ks", "1", "--trials", "1", "--seed", "1"]) == 0

    @pytest.mark.parametrize("text", [None, "[1]", "{bad"], ids=["missing", "list", "malformed"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, text):
        cfg, out = tmp_path / "cfg.json", tmp_path / "g.txt"
        if text is not None:
            cfg.write_text(text)
        assert main(["generate", "--L", "16", "--alpha", "1.5", "--lambda", "0",
                     "--seed", "7", "--out", str(out), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")
        assert not out.exists()

    def test_config_supplies_a_required_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "min-exp", "seed": 1}))
        code, summary = run(capsys, "coupling", "--config", str(cfg))
        assert code == 0
        assert summary["result"]["kind"] == "min-exp" and summary["result"]["trials"] == 2601

    @pytest.mark.parametrize("command, flags", [
        ("tail", "--source 0 --targets 5 --thresholds 1"),
        ("growth", "--thresholds 1"),
        ("shape", "--ks 1 --c 1"),
    ], ids=["tail", "growth", "shape"])
    def test_threads_is_not_an_option(self, tmp_path, capsys, command, flags):
        argv = [command, "--L", "16", "--alpha", "1.5", "--lambda", "0",
                "--trials", "2", "--seed", "1", *flags.split()]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 2}))
        assert main(argv + ["--config", str(cfg)]) == 1
        assert main(argv + ["--threads", "2"]) == 1
        assert capsys.readouterr().out == ""
        assert main(argv) == 0


_LRP = "--model lrp --d 1 --L 33 --alpha 1.5 --lambda 0.1"
_TAIL = f"tail {_LRP} --source 16 --trials 2 --seed 1"
_GIRG_CFFP = "--model girg --d 1 --L 33 --alpha 1.5 --tau 3.5 --lambda 1 --metric cffp"

# Vacuous or out-of-range inputs of the Monte Carlo estimators.
ESTIMATOR_INPUTS = [
    ("shape-trials-0", f"shape {_LRP} --ks 2 --trials 0 --seed 1 --c 1"),
    ("shape-fit-trials-0", f"shape {_LRP} --ks 2 --trials 2 --seed 1 --fit-trials 0"),
    ("shape-negative-k", f"shape {_LRP} --ks=-1 --trials 2 --seed 1 --c 1"),
    ("tail-target-99", f"{_TAIL} --targets 99 --thresholds 1"),
    ("tail-target-minus-1", f"{_TAIL} --targets=-1 --thresholds 1"),
    ("tail-negative-threshold", f"{_TAIL} --targets 20 --thresholds=-1"),
    ("tail-inf-threshold", f"{_TAIL} --targets 20 --thresholds inf"),
    ("tail-nan-threshold", f"{_TAIL} --targets 20 --thresholds 1,nan"),
    ("shape-fit-k-0", f"shape {_LRP} --ks 2 --trials 2 --seed 1 --fit-trials 2 --fit-k 0"),
    ("shape-delta-0", f"shape {_LRP} --ks 2 --trials 2 --seed 1 --fit-trials 2 --delta 0"),
    ("shape-delta-0-given-c", f"shape {_LRP} --ks 2 --trials 2 --seed 1 --c 1 --delta 0"),
    ("growth-no-threshold", f"growth {_LRP} --thresholds , --trials 2 --seed 1"),
    ("growth-negative-threshold", f"growth {_LRP} --thresholds=-1,1 --trials 2 --seed 1"),
    ("growth-nan-threshold", f"growth {_LRP} --thresholds nan,1 --trials 2 --seed 1"),
    ("tail-girg-cffp", f"tail {_GIRG_CFFP} --source 16 --trials 2 --seed 1 --targets 20 "
                       "--thresholds 1"),
    ("growth-girg-cffp", f"growth {_GIRG_CFFP} --thresholds 0.5,1 --trials 2 --seed 1"),
]


@pytest.mark.parametrize("name, line", ESTIMATOR_INPUTS, ids=[c[0] for c in ESTIMATOR_INPUTS])
def test_estimator_inputs_are_invalid_arguments(capsys, name, line):
    assert main(line.split()) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invalid arguments:") and err.count("\n") == 1


_GENERATE = "generate --d 1 --L 8 --seed 1 --out {out}"
_FPP_CFFP = "coupling --kind fpp-cffp --alpha 1 --lambda 1 --trials 20 --seed 8"
# NaN fails every comparison, so a range check must not let it through.
NAN_INPUTS = [
    ("generate-alpha", f"{_GENERATE} --model lrp --alpha nan --lambda 0.1"),
    ("generate-lambda", f"{_GENERATE} --model lrp --alpha 1.5 --lambda nan"),
    ("generate-tau", f"{_GENERATE} --model sfp --alpha 1.5 --tau nan --lambda 0.1"),
    ("fpp-cffp-t", f"{_FPP_CFFP} --wu 1 --wv 1 --dist 2 --t nan"),
    ("fpp-cffp-wu", f"{_FPP_CFFP} --wu nan --wv 1 --dist 2 --t 1"),
    ("fpp-cffp-wv", f"{_FPP_CFFP} --wu 1 --wv nan --dist 2 --t 1"),
    ("fpp-cffp-dist", f"{_FPP_CFFP} --wu 1 --wv 1 --dist nan --t 1"),
    ("tail-lrp-eps", f"{_TAIL} --targets 20 --thresholds 1,2 --bound lrp --eps-grid nan:nan:2"),
    ("tail-sfp-c1", "tail --model sfp --d 1 --L 33 --alpha 1.5 --tau 3.5 --lambda 0.1 "
                    "--source 16 --trials 2 --seed 1 --targets 20 --thresholds 1,2 "
                    "--bound sfp --c1-grid nan"),
]


@pytest.mark.parametrize("name, line", NAN_INPUTS, ids=[c[0] for c in NAN_INPUTS])
def test_nan_inputs_are_invalid_arguments(tmp_path, capsys, name, line):
    out = tmp_path / "g.txt"
    assert main(line.format(out=out).split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid arguments:")
    assert not out.exists()


_MIN_EXP = "coupling --kind min-exp --seed 1 --out {out}"
_GROWTH = f"growth {_LRP} --thresholds 1,2 --trials 2 --seed 1"
# An empty min-exp grid would pass vacuously, a zero or NaN step crashed, and
# NaN reached the h functional and the shape radii as a number.
DEGENERATE_INPUTS = [
    ("min-exp-negative-step", f"{_MIN_EXP} --step=-1"),
    ("min-exp-zero-step", f"{_MIN_EXP} --step 0"),
    ("min-exp-nan-step", f"{_MIN_EXP} --step nan"),
    ("min-exp-inf-step", f"{_MIN_EXP} --step inf"),
    ("min-exp-negative-grid-max", f"{_MIN_EXP} --grid-max=-1"),
    ("min-exp-nan-grid-max", f"{_MIN_EXP} --grid-max nan"),
    ("min-exp-inf-grid-max", f"{_MIN_EXP} --grid-max inf"),
    ("growth-nan-h-t", f"{_GROWTH} --h-t nan"),
    ("growth-nan-h-delta", f"{_GROWTH} --h-t 1 --h-delta nan"),
    ("shape-nan-c", f"shape {_LRP} --ks 2 --trials 2 --seed 1 --c nan --out {{out}}"),
    ("shape-inf-c", f"shape {_LRP} --ks 2 --trials 2 --seed 1 --c inf --out {{out}}"),
]


@pytest.mark.parametrize("name, line", DEGENERATE_INPUTS, ids=[c[0] for c in DEGENERATE_INPUTS])
def test_degenerate_inputs_are_invalid_arguments(tmp_path, capsys, name, line):
    out = tmp_path / "out"
    assert main(line.format(out=out).split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid arguments:")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("h_t", ["nan", "5"])
def test_a_refused_growth_run_writes_no_csv(tmp_path, capsys, h_t):
    """--h-t nan and an --h-t beyond the series end the run with exit 1, and
    --out is not written."""
    out = tmp_path / "g.csv"
    assert main(f"{_GROWTH} --out {out} --h-t {h_t}".split()) == 1
    assert capsys.readouterr().err.startswith("invalid arguments:")
    assert not out.exists()


# Malformed flag values and files: (command line, flag, bad token).  {bad} is a
# fit input whose one sample line is not a pair, {missing} a path in no directory.
PARSE_ERRORS = [
    ("fit --samples 10:5,abc", "--samples", "'abc'"),
    (f"{_TAIL} --targets 20 --thresholds 1,x", "--thresholds", "'x'"),
    (f"{_TAIL} --targets 2,y --thresholds 1", "--targets", "'y'"),
    (f"{_TAIL} --targets 20 --thresholds 1 --bound lrp --eps-grid 0.1:0.2", "--eps-grid",
     "'0.1:0.2'"),
    (f"shape {_LRP} --ks 1,q --trials 2 --seed 1 --c 1", "--ks", "'q'"),
    ("bk --n 2 --p 0.5 --eventA open:1,z --eventB open:2", "--eventA", "'z'"),
    ("bk --n 2 --p 0.5,w --eventA open:1 --eventB count>=v", "--p", "'w'"),
    ("bk --n 2 --p 0.5 --eventA open:1 --eventB count>=v", "--eventB", "'v'"),
    ("fit --in {bad}", "--in", "'abc'"),
]


@pytest.mark.parametrize("line, flag, token", PARSE_ERRORS, ids=[c[1] for c in PARSE_ERRORS])
def test_malformed_values_are_usage_errors(tmp_path, capsys, line, flag, token):
    bad = tmp_path / "bad.csv"
    bad.write_text("dist,median\nabc\n")
    assert main(line.format(bad=bad).split()) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error:") and err.count("\n") == 1
    assert flag in err and token in err


# Tail grids are built before the first trial, so a malformed one is refused
# without running any.  (flags after _TAIL, the one-line message)
EARLY_GRID_ERRORS = [
    ("--bound lrp --eps-grid 0.1:x:3", "usage error: --eps-grid: '0.1:x:3' is not lo:hi:count"),
    ("--bound lrp --eps-grid 0.05:0.5:10.7",
     "usage error: --eps-grid: '0.05:0.5:10.7' is not lo:hi:count"),
    ("--bound lrp --eps-grid 0.05:0.5:0",
     "usage error: --eps-grid: '0.05:0.5:0' is not lo:hi:count"),
    ("--bound sfp --c1-grid -1", "invalid arguments: c1 must be positive, got -1.0"),
    # a grid fault now wins over a trial count that the estimator refuses
    ("--bound lrp --trials 0 --eps-grid 0.1:x:3",
     "usage error: --eps-grid: '0.1:x:3' is not lo:hi:count"),
]


@pytest.mark.parametrize("flags, message", EARLY_GRID_ERRORS,
                         ids=[c[0] for c in EARLY_GRID_ERRORS])
def test_a_malformed_tail_grid_is_refused_before_any_trial(monkeypatch, capsys, flags, message):
    def refuse(*args, **kwargs):
        raise AssertionError("mc_tail_grid ran before the grid was checked")

    monkeypatch.setattr("percolate.cli.mc_tail_grid", refuse)
    assert main(f"{_TAIL} --targets 20 --thresholds 1,2 {flags}".split()) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


@pytest.mark.parametrize("line", [
    "fit --in {missing}",
    "distance --in {missing} --source 0 --target 1",
    "generate --model lrp --d 1 --L 8 --alpha 1.5 --lambda 0.1 --seed 1 --out {missing}",
    f"{_TAIL} --targets 20 --thresholds 1 --out {{missing}}",
], ids=["fit-in", "distance-in", "generate-out", "tail-out"])
def test_unusable_files_are_one_line_errors(tmp_path, capsys, line):
    missing = tmp_path / "no-such-dir" / "f.txt"
    assert main(line.format(missing=missing).split()) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("file error:") and err.count("\n") == 1
    assert str(missing) in err


# The graph files that the `distance` runs below read, as `generate` writes them.
_GRAPHS = {
    "lrp": "generate --model lrp --d 1 --L 64 --alpha 1.5 --lambda 0.3 --seed 7",
    "fpp": "generate --model sfp --d 2 --L 8 --alpha 2 --tau 3.5 --lambda 1 --seed 5 --costs fpp",
    "cffp": "generate --model sfp --d 1 --L 40 --alpha 1.5 --tau 6 --lambda 1 --seed 3 "
            "--costs cffp",
}

# (id, command line, exit code, SHA-256 of the summary line without its paths,
#  SHA-256 of the file written to {out}, or None)
CLI_PINS = [
    ("generate-lrp", _GRAPHS["lrp"] + " --out {out}",
     0, "927c91a3fe82abaa3495926064ffe49b9dc0dd13fc356246cdfacba567bd8b4a",
     "9ff8d3f3c4aad70d51a0a3d114f08d44485041117df36d3747fcbd665f044637"),
    ("generate-sfp-fpp", _GRAPHS["fpp"] + " --out {out}",
     0, "e06bc82fca0e3e9c5352ca879ef97ceea95002bd0b0b17baae8f3644ca3c0cc4",
     "5e625cca33b1eca077cd9815dcc12028010ed7ab20ea87c8d6256b1fd1a493c4"),
    ("generate-sfp-cffp", _GRAPHS["cffp"] + " --out {out}",
     0, "0497189c63afc841640dccf75b68bb3d74f70ace61140014bcf22a5433665dc7",
     "7610153e5d2b5772ab65d85d471361cdf0968117c02f87b7cc1734f6f46ff56b"),
    ("generate-girg", "generate --model girg --d 2 --L 6 --alpha 2 --tau 3.5 --lambda 1 "
     "--seed 9 --out {out}",
     0, "a0b26029843b0ffce99aa3e203fadd2c76faa01a8e4eb671214461d91a316f49",
     "f29e4b372a3c198c09a22d6e0d7d6354bf08f1f257b01e6933dc4644b25b57ea"),
    ("distance-hop", "distance --in {lrp} --source 0 --target 63",
     0, "e4ab4f58488166bac666688a91844637d993d5241644266410158a66e540fccb", None),
    ("distance-fpp", "distance --in {fpp} --source 0 --target 63 --cost",
     0, "e2d01c4cad709fea70f34dec06ec0ffd9dc0ffe58e45a50bf6c91b872cf5b312", None),
    ("distance-cffp", "distance --in {cffp} --source 0 --target 39 --cost",
     0, "20db53edd4fb5e6628cfd01a7eaaebdcdd910b2b272df521ded171ff0971738a", None),
    ("tail-lrp-bound", "tail --model lrp --d 1 --L 65 --alpha 1.5 --lambda 0.05 --source 16 "
     "--targets 24,48 --thresholds 1,2,3 --trials 50 --seed 6 --bound lrp --out {out}",
     0, "c5d4902de57cbee8d48ddda302b43d4d4599d2f7176ad9f5e6c0e95c4c05a1df",
     "b7d6890df648e5fbe37fae885ff541cbbcbecdda9ffbc22d58825d88cc4b274a"),
    ("tail-sfp-bound", "tail --model sfp --d 1 --L 65 --alpha 1.5 --tau 3.5 --lambda 1 "
     "--source 16 --targets 24,48 --thresholds 1,2,3 --trials 20 --seed 6 --bound sfp "
     "--c1-grid 0.5,1 --c2-grid 1 --beta-grid 1,2",
     0, "1a578f7730469e3e4c90236bc49e685edc52414f26a49af695c990356c730ca2", None),
    ("growth-fpp", "growth --metric fpp --model sfp --d 2 --L 8 --alpha 2 --tau 3.5 --lambda 1 "
     "--thresholds 0.2,0.4,0.6 --trials 5 --seed 3 --out {out}",
     0, "ef5b38e863334304bbd435cbda998313ad7e7a7b9335b1e9f1bee8833d8336a3",
     "e4e3d2cd1fd69317d9f934789fefd0d92ad309e4584a1e1a5f1bb8abd0c1f524"),
    ("growth-cffp", "growth --metric cffp --model sfp --d 1 --L 21 --alpha 1.5 --tau 4 "
     "--lambda 1 --thresholds 0.1,0.2,0.3,0.4 --trials 10 --seed 3 --h-t 0.3 --selfbound "
     "--out {out}",
     0, "82ef4d94a50394a5fd800aae029baac62f3555ef2bb89c0a493ea4532acd2a93",
     "12dc20df068fce4cce0a14733292163c0608a815552bb0d5df8a92af2bdf88c1"),
    ("shape", "shape --model lrp --d 1 --L 129 --alpha 1.2 --lambda 0.05 --ks 2,3 --trials 20 "
     "--seed 5 --fit-trials 20 --out {out}",
     0, "886007020cf727824a2265e9deaff9bdb833c94efa8abc881568e17a916a0b3f",
     "8cf2ddac1ae5c08648ed932a80cb33996018926774a0fd47f973f56cae67bace"),
    ("coupling-alpha", "coupling --kind alpha --d 1 --L 32 --alpha 1.8 --alpha-prime 1.5 "
     "--tau 4 --lambda 0.3 --seeds 2 --seed 2 --out {out}",
     0, "1eadaa7e0dd74e7d30521e3cc796fb9ca486089b4e4ef5fddbe5e42c3e4a99c4",
     "212c08e22bb7ac352f2b21621a9a025abd056cb4fc7fc9a2a159260f95df78ca"),
    ("coupling-blowup-lrp", "coupling --kind blowup-lrp --d 1 --L 16 --r 2 --alpha 1.5 "
     "--lambda-small 0.05 --lambda-goal 0.1 --seeds 2 --seed 3 --out {out}",
     0, "86765655183ecd20d712f89d119ce813d46338f31bf4a5b4b73fffa1134241a8",
     "355b2f4fa6a045479895e58bd72f57dafd9e7b34ee2142c4c3312d3dac4c5e27"),
    ("coupling-min-exp", "coupling --kind min-exp --seed 1 --out {out}",
     0, "618dfc0bb2313a4030c5cc66e8c8236ab2d4be6122b795b01edf09b43abd98cf",
     "f162fd0446cf250110f165b4ba4b7c6acc8202e38a95db7e55f64a360d68f224"),
    ("coupling-blowup-lrp-flagged", "coupling --kind blowup-lrp --d 2 --L 5 --r 2 --alpha 1.5 "
     "--lambda-small 0.02 --lambda-goal 3 --seeds 2 --seed 3 --out {out}",
     3, "a13eca98c6f2a695988b2954f127dde304217dd2497780f1473446a8ef99d7de",
     "3d2fc5f14e83e27456ec4d9fcfdeb95f7ed78874a69dbe9cb37588d08209b78a"),
    ("coupling-weights", "coupling --kind weights --tau 4 --tau-prime 3.3 --alpha 1 --r 2 "
     "--d 1 --c-agg 0.3 --trials 2000 --seed 4 --out {out}",
     3, "c8c051d4d4d108f9b3a2fd9d7b1e4fb324a77c2d83db14414ade4dfe82e17893",
     "65a247567d3a7e7c5e4d4a1312c7cafc217cea4fd541d8bbd6877e52b8a39ad3"),
    ("coupling-fpp-cffp", "coupling --kind fpp-cffp --wu 1 --wv 1 --dist 2 --t 1 --alpha 1 "
     "--lambda 1 --trials 20000 --seed 8 --out {out}",
     0, "5009ed34927efb88fafdf353cd5001f84e58f15b13610501bfbfee95ea99070a",
     "f6983f028856c4dc6657058a7a5da3abe594bfe06b847afc785f901b5c66be7c"),
    ("bk-two-events", "bk --n 5 --p 0.3,0.5,0.7,0.2,0.6 --eventA any:1,2,3 --eventB count>=2",
     0, "1969d0e717cf228aae494857e5b00c2b44859e4a4dcd535155ebbed7f863d1dc", None),
    ("bk-three-events", "bk --n 4 --p 0.4 --eventA any:1,2 --eventB open:3 --eventC count>=1",
     0, "cee5236c081fe4077d0415adff8ff78747043d18b22a4dd85881863bfe3a384a", None),
    ("fit-samples", "fit --samples 10:5,30:11,100:22,1000:45,10000:90,100000:120 "
     "--alpha 1.5 --tau 4",
     0, "d32c1a52cb2c4f9904de9478cb81ea1dfb39d433c01e183a67e7cb1464997ea0", None),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, line, code, summary_sha, file_sha", CLI_PINS,
                         ids=[case[0] for case in CLI_PINS])
def test_cli_bytes_are_pinned(tmp_path, capsys, name, line, code, summary_sha, file_sha):
    """Stdout and written files of fixed runs, byte for byte."""
    files = {key: tmp_path / f"{key}.txt" for key in _GRAPHS}
    for key, gen in _GRAPHS.items():
        if "{%s}" % key in line:
            assert main([*gen.split(), "--out", str(files[key])]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(line.format(out=out, **files).split()) == code
    summary = json.loads(capsys.readouterr().out)
    summary["config"].pop("out", None)
    summary["config"].pop("infile", None)
    summary["result"].pop("out", None)
    assert _sha(json.dumps(summary, sort_keys=True).encode()) == summary_sha
    assert (_sha(out.read_bytes()) if out.exists() else None) == file_sha
