"""CLI contract: subcommands, exit codes, determinism, config files."""

import json

import pytest

from percolate import BoxSpec, ModelParams, couple_alpha
from percolate.cli import main
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
        # restore default budgets for the rest of the suite
        monkeypatch.delenv("PERCOLATE_BUDGET_VERTICES")
        from percolate.sampler import (
            DEFAULT_COMPLETE_BUDGET,
            DEFAULT_SPARSE_BUDGET,
            set_vertex_budgets,
        )
        set_vertex_budgets(DEFAULT_SPARSE_BUDGET, DEFAULT_COMPLETE_BUDGET)

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
