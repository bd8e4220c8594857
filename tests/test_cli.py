import json

import pytest
from click.testing import CliRunner

from regkit.cli import DEFAULT_RULE, RunConfig, load_rule, main

FAST = {
    "grid": {"shape": [128, 128], "dx": "1/8"},
    "budgets": {"mc_samples": 50},
    "edge_cap": 3,
}


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, tmp_path, command, overrides=None):
    args = [command]
    if overrides is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(overrides))
        args += ["--config", str(path)]
    result = runner.invoke(main, args)
    try:
        report = json.loads(result.output)
    except json.JSONDecodeError:
        report = None
    return result, report


class TestConfig:
    def test_defaults_logged(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "trees", {"edge_cap": 3})
        assert result.exit_code == 0
        assert "degree_cap" in report["meta"]["defaults_used"]
        assert "edge_cap" not in report["meta"]["defaults_used"]

    def test_unknown_key_refused(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "trees", {"speling": 1})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-parse"

    def test_single_mc_sample_refused(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "bphz",
                                {"budgets": {"mc_samples": 1}})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        assert "mc_samples" in report["error"]["detail"]

    def test_corrupted_rule_is_structured_error(self, runner, tmp_path):
        bad = tmp_path / "rule.json"
        bad.write_text('{"scaling": [2, 1], "types": ')
        result, report = invoke(runner, tmp_path, "trees",
                                {"rule": str(bad)})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "rule-parse"

    def test_incomplete_rule_is_structured_error(self, runner, tmp_path):
        bad = tmp_path / "rule.json"
        bad.write_text(json.dumps({"scaling": [2, 1], "kappa": "1/100"}))
        result, report = invoke(runner, tmp_path, "trees",
                                {"rule": str(bad)})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "rule-parse"

    def test_rule_roundtrip(self, tmp_path):
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(DEFAULT_RULE))
        cfg = RunConfig.load(None)
        cfg.data["rule"] = str(path)
        ts, rule = load_rule(cfg)
        assert ts.noise_types == ("Xi",)
        assert ts.kernel_types == ("I",)


class TestReports:
    def test_tree_counts_monotone_in_caps(self, runner, tmp_path):
        totals = []
        for cap in (2, 3, 4):
            _res, report = invoke(runner, tmp_path, "trees",
                                  {"edge_cap": cap})
            totals.append(report["total"])
        assert totals == sorted(totals)
        assert totals[0] < totals[-1]

    def test_coproduct_counts_match_library(self, runner, tmp_path):
        from fractions import Fraction
        from regkit.hopf import delta_plus
        from regkit.rules import generate
        _res, report = invoke(runner, tmp_path, "coproduct", FAST)
        ts, rule = load_rule(RunConfig.load(None))
        uni = generate(rule, Fraction(2), 3)
        direct = {repr(t)[len("DecoratedTree("):-1]: len(delta_plus(t))
                  for t in uni}
        for name, row in report["per_tree"].items():
            assert row["delta_plus"] == direct[name]

    def test_hist_and_age(self, runner, tmp_path):
        _res, hist_rep = invoke(runner, tmp_path, "hist", FAST)
        assert hist_rep["size"] >= hist_rep["seed_size"]
        _res, age_rep = invoke(runner, tmp_path, "age", FAST)
        assert set(age_rep["ages"]) == set(hist_rep["members"])
        assert age_rep["max_age"] == max(age_rep["ages"].values())

    def test_kernels_reassembles(self, runner, tmp_path):
        _res, report = invoke(runner, tmp_path, "kernels", None)
        assert report["reassembly_defect"] <= 1e-10
        assert report["norm"]["value"] > 0

    def test_heat_certificates(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "heat", None)
        assert result.exit_code == 0
        assert report["all_valid"] is True
        assert len(report["certificates"]) >= 1

    def test_model_defects(self, runner, tmp_path):
        _res, report = invoke(runner, tmp_path, "model", FAST)
        assert report["chain_defect"] <= 1e-6
        assert report["cocycle_defect"] <= 1e-8
        assert report["exponents"]

    def test_bphz_values_float(self, runner, tmp_path):
        _res, report = invoke(runner, tmp_path, "bphz", FAST)
        assert report["domain_size"] >= 1
        assert all(isinstance(v, float)
                   for v in report["functional"].values())

    def test_reports_deterministic_modulo_timestamp(self, runner, tmp_path):
        _res1, a = invoke(runner, tmp_path, "model", FAST)
        _res2, b = invoke(runner, tmp_path, "model", FAST)
        a.pop("timestamp"), b.pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestVerify:
    def test_default_passes(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "verify", FAST)
        assert result.exit_code == 0
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_kappa_shift_keeps_algebraic_passes(self, runner, tmp_path):
        spec = dict(DEFAULT_RULE, kappa="1/50")
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(spec))
        result, report = invoke(runner, tmp_path, "verify",
                                dict(FAST, rule=str(path)))
        assert result.exit_code == 0
        algebraic = {c["name"] for c in report["checks"]
                     if c["tolerance"] == 0 and c["passed"]}
        assert {"coassociativity_violations", "comodule_violations",
                "cointeraction_violations", "hist_idempotent_defect",
                "age_decrease_violations"} <= algebraic

    def test_failure_exits_nonzero(self, runner, tmp_path):
        strict = dict(FAST, tolerances={"chain_defect": 0.0})
        result, report = invoke(runner, tmp_path, "verify", strict)
        assert result.exit_code == 1
        assert report["passed"] is False
