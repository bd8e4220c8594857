import gc
import json
import time
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from regkit.cli import (_COPRODUCT_TREES, DEFAULT_RULE, DEFAULTS,
                        ConfigError, RunConfig, _universe, age_report,
                        coproduct_report, hist_report, load_rule, main,
                        model_report, trees_report, verify_report)
from regkit.heatkernel import CoefficientField
from regkit.models import KernelOnGrid

FAST = {
    "grid": {"shape": [128, 128], "dx": "1/8"},
    "budgets": {"mc_samples": 50},
    "edge_cap": 3,
}

CLI_PINS = json.loads(
    (Path(__file__).parent / "cli_report_pins.json").read_text())
DERIVATIVE_PINS = json.loads(
    (Path(__file__).parent / "derivative_rule_pins.json").read_text())


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.text("0123456789./-e", max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=5)


@st.composite
def fuzzed_configs(draw):
    """A config over the keys of DEFAULTS with arbitrary JSON leaves, each
    key present or not; the heat field's strings too, which are read, never
    run."""
    config = {}
    for key, default in DEFAULTS.items():
        if not draw(st.booleans()):
            continue
        if isinstance(default, dict):
            config[key] = {sub: draw(JSON_VALUES | st.just(value))
                           for sub, value in default.items()
                           if draw(st.booleans())}
        else:
            config[key] = draw(JSON_VALUES | st.just(default))
    return config


def _above(value, bound) -> bool:
    if isinstance(value, list):
        return any(_above(v, bound) for v in value)
    try:
        return Fraction(str(value)) > bound
    except (ValueError, ZeroDivisionError):
        return False


def _supplied(config: dict, key: str):
    """The value that a config supplies for a dotted key, or None."""
    section, _, sub = key.partition(".")
    value = config.get(section)
    if sub:
        value = value.get(sub) if isinstance(value, dict) else None
    return value


# the upper bounds on the caps that set the size of the universe, and on
# the grid and budgets that size each report's arrays and loops
BOUNDS = {"degree_cap": 8, "edge_cap": 8, "grid.shape": 1024,
          "budgets.dyadic_levels": 16, "budgets.norm_order": 4,
          "budgets.mc_samples": 10000}


def _mollifier_above_half_axis(config: dict) -> bool:
    """Whether a config's mollifier_cells, supplied or default, is above
    half the space axis of its grid (the default grid's if it supplies no
    integer one)."""
    shape = _supplied(config, "grid.shape")
    axis = (shape[1] if isinstance(shape, list) and len(shape) == 2
            and type(shape[1]) is int else DEFAULTS["grid"]["shape"][1])
    return _above(config.get("mollifier_cells", DEFAULTS["mollifier_cells"]),
                  Fraction(axis, 2))


def any_config():
    """Any JSON object: a fuzzed config over the keys of DEFAULTS, or
    arbitrary keys.  A value above its bound is kept: it must be refused."""
    return fuzzed_configs() | st.dictionaries(st.text(max_size=8),
                                              JSON_VALUES, max_size=3)


class TestConfig:
    @settings(max_examples=300, deadline=None)
    @given(config=fuzzed_configs())
    def test_load_returns_or_refuses(self, tmp_path_factory, config):
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(json.dumps(config))
        try:
            RunConfig.load(str(path))
        except ConfigError as exc:
            assert exc.payload["error"]["kind"] in ("config-parse",
                                                    "config-value")

    @settings(max_examples=20, deadline=None)
    @given(config=fuzzed_configs())
    def test_heat_exits_cleanly(self, tmp_path_factory, config):
        # through a whole subcommand: a report or a structured refusal, as
        # one JSON object, never a traceback
        path = tmp_path_factory.getbasetemp() / "fuzzed_heat.json"
        path.write_text(json.dumps(config))
        result = CliRunner().invoke(main, ["heat", "--config", str(path)])
        assert result.exit_code in (0, 2), result.output
        assert "Traceback" not in result.output
        report = json.loads(result.output)
        assert isinstance(report, dict)
        assert ("all_valid" in report) == (result.exit_code == 0)

    @settings(max_examples=50, deadline=None)
    @given(config=any_config())
    def test_trees_exits_cleanly(self, tmp_path_factory, config):
        # a report or a structured refusal, as one JSON document on stdout;
        # an uncaught exception would also exit 1, so none may escape
        path = tmp_path_factory.getbasetemp() / "fuzzed_trees.json"
        path.write_text(json.dumps(config))
        result = CliRunner().invoke(main, ["trees", "--config", str(path)])
        assert result.exit_code in (0, 1, 2), result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        assert isinstance(json.loads(result.stdout), dict)
        if any(_above(_supplied(config, key), bound)
               for key, bound in BOUNDS.items()) or (
                   _mollifier_above_half_axis(config)):
            assert result.exit_code == 2

    @pytest.mark.parametrize("overrides", [
        {"degree_cap": "1e3", "edge_cap": 3}, {"degree_cap": 1e300},
        {"degree_cap": "1e10000000"}, {"degree_cap": "17/2"},
        {"edge_cap": 9}, {"edge_cap": 10 ** 4000}])
    def test_cap_above_bound_refused_at_once(self, runner, tmp_path,
                                             overrides):
        start = time.perf_counter()
        result, report = invoke(runner, tmp_path, "trees", overrides)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"

    def test_coproduct_work_bounded(self, runner, tmp_path):
        # caps within their bounds whose universe is too large for three
        # coproducts a tree: refused once the universe is built
        caps = {"degree_cap": "6", "edge_cap": 8}
        start = time.perf_counter()
        result, report = invoke(runner, tmp_path, "coproduct", caps)
        refused = time.perf_counter() - start
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        start = time.perf_counter()
        result, report = invoke(runner, tmp_path, "trees", caps)
        assert result.exit_code == 0
        assert report["total"] > _COPRODUCT_TREES
        assert refused < 1.5 * (time.perf_counter() - start) + 1

    @pytest.mark.parametrize("command", ["coproduct", "verify", "tables"])
    def test_large_universe_refused(self, runner, tmp_path, command):
        result, report = invoke(runner, tmp_path, command,
                                {"degree_cap": "5", "edge_cap": 6})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        assert str(_COPRODUCT_TREES) in report["error"]["detail"]

    def test_default_universes_below_coproduct_bound(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(FAST))
        for config in (RunConfig.load(None), RunConfig.load(str(path))):
            assert len(_universe(config)[1]) <= _COPRODUCT_TREES

    def test_caps_at_bound_accepted(self, tmp_path):
        # and the grid and budgets at theirs
        path = tmp_path / "run.json"
        at_bounds = {"degree_cap": "8", "edge_cap": 8, "mollifier_cells": 512,
                     "grid": {"shape": [1024, 1024], "dx": "1/16"},
                     "budgets": {"dyadic_levels": 16, "norm_order": 4,
                                 "mc_samples": 10000}}
        path.write_text(json.dumps(at_bounds))
        data = RunConfig.load(str(path)).data
        assert data["edge_cap"] == 8 and data["mollifier_cells"] == 512
        assert data["grid"] == at_bounds["grid"]
        assert {k: data["budgets"][k] for k in at_bounds["budgets"]} == \
            at_bounds["budgets"]

    def test_defaults_logged(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "trees", {"edge_cap": 3})
        assert result.exit_code == 0
        assert "degree_cap" in report["meta"]["defaults_used"]
        assert "edge_cap" not in report["meta"]["defaults_used"]

    def test_unknown_key_refused(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "trees", {"speling": 1})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-parse"

    def test_removed_heat_terms_refused(self, runner, tmp_path):
        # the heat report never read this budget, so it is no longer a key
        result, report = invoke(runner, tmp_path, "heat",
                                {"budgets": {"heat_terms": 1}})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-parse"
        assert "budgets.heat_terms" in report["error"]["detail"]

    def test_long_integer_refused(self, runner, tmp_path):
        # json raises a plain ValueError past Python's integer digit limit
        path = tmp_path / "run.json"
        path.write_text('{"edge_cap": ' + "9" * 5000 + "}")
        result = runner.invoke(main, ["trees", "--config", str(path)])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"]["kind"] == "config-parse"

    @pytest.mark.parametrize("overrides, exit_code", [
        ({"grid": {"dx": "1e0001"}}, 0), ({"degree_cap": "2e0000"}, 0),
        ({"grid": {"dx": "1e+001"}}, 0), ({"grid": {"dx": "1e1000"}}, 2)])
    def test_exponent_leading_zeros_not_counted(self, runner, tmp_path,
                                                overrides, exit_code):
        # the zeros that lead an exponent add nothing to its size
        result, report = invoke(runner, tmp_path, "trees",
                                {**overrides, "edge_cap": 3})
        assert result.exit_code == exit_code
        if exit_code == 2:
            assert report["error"]["kind"] == "config-value"
            assert "exponent out of range" in report["error"]["detail"]
        elif "degree_cap" in overrides:
            assert report["degree_cap"] == "2"

    def test_section_not_an_object_refused(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "trees", {"grid": 5})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-parse"
        assert "'grid'" in report["error"]["detail"]

    def test_unknown_nested_key_refused(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "verify",
                                {"tolerances": {"chain_defekt": 1}})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-parse"
        assert "tolerances.chain_defekt" in report["error"]["detail"]

    def test_single_mc_sample_refused(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "bphz",
                                {"budgets": {"mc_samples": 1}})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        assert "mc_samples" in report["error"]["detail"]

    @pytest.mark.parametrize("overrides, key", [
        ({"edge_cap": "four"}, "edge_cap"),
        ({"budgets": {"mc_samples": "many"}}, "budgets.mc_samples"),
        ({"grid": {"shape": 5}}, "grid.shape"),
    ])
    def test_mistyped_value_refused(self, runner, tmp_path, overrides, key):
        result, report = invoke(runner, tmp_path, "trees", overrides)
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        assert repr(key) in report["error"]["detail"]

    @pytest.mark.parametrize("overrides, key", [
        ({"degree_cap": "abc"}, "degree_cap"),
        ({"grid": {"dx": "1/0"}}, "grid.dx"),
        ({"heat_field": {"a": "1+"}}, "heat_field.a"),
        ({"heat_field": {"b": "x.real_part"}}, "heat_field.b"),
        ({"heat_field": {"c": "y"}}, "heat_field.c"),
        ({"heat_field": {"a": " "}}, "heat_field.a"),
        ({"heat_field": {"b": "()"}}, "heat_field.b"),
    ])
    def test_unparsable_value_refused(self, runner, tmp_path, overrides, key):
        result, report = invoke(runner, tmp_path, "trees", overrides)
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        assert repr(key) in report["error"]["detail"]

    def test_code_in_coefficient_refused(self, runner, tmp_path):
        # sympify would run this as Python and create the file
        marker = tmp_path / "ran"
        payload = f'1 + 0*len(open("{marker}", "w").name)'
        result, report = invoke(runner, tmp_path, "heat",
                                {"heat_field": {"a": payload}})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        assert "'heat_field.a'" in report["error"]["detail"]
        with pytest.raises(ValueError, match="unexpected"):
            CoefficientField.make(payload)
        assert not marker.exists()

    @pytest.mark.parametrize("command, overrides, key", [
        ("model", {"grid": {"dx": "0"}}, "grid.dx"),
        ("model", {"grid": {"dx": "-1/16"}}, "grid.dx"),
        ("model", {"grid": {"shape": [0, 256]}}, "grid.shape"),
        ("kernels", {"budgets": {"dyadic_levels": 0}},
         "budgets.dyadic_levels"),
        ("model", {"mollifier_cells": 0}, "mollifier_cells"),
        ("heat", {"budgets": {"heat_order": 0}}, "budgets.heat_order"),
        ("heat", {"budgets": {"heat_order": 5}}, "budgets.heat_order"),
        ("kernels", {"budgets": {"norm_order": -3}}, "budgets.norm_order"),
        ("model", {"budgets": {"kernel_order": 0}}, "budgets.kernel_order"),
        ("trees", {"edge_cap": 0}, "edge_cap"),
        ("verify", {"tolerances": {"chain_defect": -1e-6}},
         "tolerances.chain_defect"),
        # above the upper bounds, which hold before anything is allocated
        ("kernels", {"budgets": {"norm_order": 5}}, "budgets.norm_order"),
        ("tables", {"budgets": {"norm_order": 10 ** 9}}, "budgets.norm_order"),
        ("kernels", {"budgets": {"dyadic_levels": 17}},
         "budgets.dyadic_levels"),
        ("model", {"budgets": {"dyadic_levels": 10 ** 12}},
         "budgets.dyadic_levels"),
        ("bphz", {"budgets": {"mc_samples": 10001}}, "budgets.mc_samples"),
        ("bphz", {"budgets": {"mc_samples": 10 ** 15}}, "budgets.mc_samples"),
        ("model", {"grid": {"shape": [1025, 256]}}, "grid.shape"),
        ("verify", {"grid": {"shape": [256, 10 ** 12]}}, "grid.shape"),
        # above half the space axis, where the mollifier wraps the torus
        ("model", {"mollifier_cells": 129}, "mollifier_cells"),
        ("model", {"mollifier_cells": 300}, "mollifier_cells"),
        ("model", {"mollifier_cells": 10 ** 8}, "mollifier_cells"),
        ("bphz", {"grid": {"shape": [256, 63]}, "mollifier_cells": 32},
         "mollifier_cells"),
    ])
    def test_out_of_range_value_refused(self, runner, tmp_path, command,
                                        overrides, key):
        start = time.perf_counter()
        result, report = invoke(runner, tmp_path, command, overrides)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        assert repr(key) in report["error"]["detail"]

    @pytest.mark.parametrize("a", ["-1", "0", "5", "sin(x)", "sqrt(x)",
                                   "log(x)", "1 + sqrt(-1)/9", "2**1100*x"])
    def test_non_parabolic_field_refused(self, runner, tmp_path, a):
        # a must lie in [1/4, 4]; nan, complex values or overflow are out
        # of it, and NumPy warns of none of them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, report = invoke(runner, tmp_path, "heat",
                                    {"heat_field": {"a": a}})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        assert "'heat_field.a' must be parabolic" in report["error"]["detail"]

    @pytest.mark.parametrize("command", ["model", "verify", "bphz"])
    def test_kernel_order_at_sector_order_refused(self, runner, tmp_path,
                                                  command):
        # the FAST sector has order 3: the kernel must control more levels
        overrides = {**FAST, "budgets": {"mc_samples": 50, "kernel_order": 3}}
        result, report = invoke(runner, tmp_path, command, overrides)
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        assert "'budgets.kernel_order'" in report["error"]["detail"]
        assert "sector order 3" in report["error"]["detail"]

    @pytest.mark.parametrize("value", [
        "1 + 0*9**9**9", "(0*x+9)**(9**9)", "9**(x-x+9**9)", "(9**9**9)(2)",
        "sin(sinh(1e9))", "exp(1e2400)"])
    def test_tower_of_powers_refused_quickly(self, runner, tmp_path, value):
        # sympy would evaluate 9**9**9 or 9**387420489 exactly, or sinh(1e9)
        # and exp(1e2400) to the digits of their size, which takes minutes
        # or never finishes: a name that cancels or a call around the tower
        # must not hide it
        started = time.monotonic()
        result, report = invoke(runner, tmp_path, "trees",
                                {"heat_field": {"a": value}})
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 2
        assert report["error"]["kind"] == "config-value"
        assert "'heat_field.a'" in report["error"]["detail"]

    def test_number_for_numeric_string_accepted(self, runner, tmp_path):
        result, report = invoke(runner, tmp_path, "trees",
                                {"degree_cap": 2, "edge_cap": 3})
        assert result.exit_code == 0
        assert report["degree_cap"] == "2"
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps({"grid": {"dx": 0.0625},
                                    "heat_field": {"b": 0}}))
        cfg = RunConfig.load(str(path))
        assert cfg.grid() == RunConfig.load(None).grid()
        fld = CoefficientField.make(**cfg.data["heat_field"])
        assert fld.b_expr == 0

    def test_corrupted_rule_is_structured_error(self, runner, tmp_path):
        bad = tmp_path / "rule.json"
        bad.write_text('{"scaling": [2, 1], "types": ')
        result, report = invoke(runner, tmp_path, "trees",
                                {"rule": str(bad)})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "rule-parse"

    def test_rule_without_witness_is_structured_error(self, runner,
                                                      tmp_path):
        # a noise of degree -4 leaves no subcriticality witness
        rule = json.loads(json.dumps(DEFAULT_RULE))
        rule["types"]["Xi"]["degree"] = "-4"
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(rule))
        result, report = invoke(runner, tmp_path, "trees",
                                {"rule": str(path)})
        assert result.exit_code == 2
        assert report["error"]["kind"] == "rule-value"
        assert "subcriticality" in report["error"]["detail"]

    def test_long_integer_in_rule_is_structured_error(self, runner, tmp_path):
        # json raises a plain ValueError past Python's integer digit limit
        bad = tmp_path / "rule.json"
        bad.write_text('{"scaling": [' + "9" * 5000 + ', 1]}')
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

    @pytest.mark.parametrize("order, terms", [(1, 3), (2, 19), (3, 113),
                                              (4, 331)])
    def test_heat_valid_at_every_order(self, runner, tmp_path, order, terms):
        result, report = invoke(runner, tmp_path, "heat",
                                {"budgets": {"heat_order": order}})
        assert result.exit_code == 0
        assert report["all_valid"] is True
        assert report["expansion_order"] == order
        assert len(report["certificates"]) == terms

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

    def test_equal_branch_fields_share_a_stencil_sum(self):
        with mock.patch.object(KernelOnGrid, "convolve", autospec=True,
                               side_effect=KernelOnGrid.convolve) as conv:
            verify_report(RunConfig.load(None))
        # four distinct inputs: I(Xi(X[0, 1])) and I(X[0, 1]Xi(.)) realise
        # their branches to the same field at each of the three base points
        inputs = {c.args[1].tobytes() for c in conv.call_args_list}
        assert conv.call_count == len(inputs) == 4

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


def test_reports_leave_no_cyclic_garbage():
    """The tree engine recurses without reference cycles, so the default
    reports leave nothing that only the cycle collector could free."""
    config = RunConfig.load(None)
    gc.collect()
    gc.disable()
    try:
        for report in (trees_report, coproduct_report, hist_report,
                       age_report, model_report, verify_report):
            report(config)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestPinnedReports:
    """Every subcommand on FAST reproduces the report pinned in
    ``cli_report_pins.json`` exactly, apart from the timestamp and the path
    of the config file (a refactor of the library must not move them)."""

    def test_pins_cover_every_command_on_fast(self):
        assert CLI_PINS["config"] == FAST
        assert set(CLI_PINS["reports"]) == set(main.commands)

    @pytest.mark.parametrize("command", sorted(CLI_PINS["reports"]))
    def test_report_matches_pin(self, runner, tmp_path, command):
        result, report = invoke(runner, tmp_path, command, FAST)
        assert result.exit_code == 0
        report.pop("timestamp")
        report["meta"].pop("config")
        assert report == CLI_PINS["reports"][command]


class TestPinnedDerivativeRule:
    """The tree reports on a rule with derivative decorations reproduce
    ``derivative_rule_pins.json`` exactly, apart from the timestamp and the
    path of the config file: the default rule decorates no edge, so its
    pins leave decoration transfers and split node decorations thin."""

    @pytest.mark.parametrize("command", sorted(DERIVATIVE_PINS["reports"]))
    def test_report_matches_pin(self, runner, tmp_path, command):
        rule = tmp_path / "rule.json"
        rule.write_text(json.dumps(DERIVATIVE_PINS["rule"]))
        result, report = invoke(runner, tmp_path, command, {"rule": str(rule)})
        assert result.exit_code == 0
        report.pop("timestamp")
        report["meta"].pop("config")
        assert report == DERIVATIVE_PINS["reports"][command]
