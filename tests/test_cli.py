import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle

import numpy as np
import pytest
import yaml

import chmc.cli
from chmc import MassMatrix, StandardNormal, run_chain
from chmc.cli import (
    ConfigError,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_RUNTIME_ERROR,
    ExperimentSpec,
    MethodSpec,
    TargetSpec,
    build_target,
    format_table,
    main,
    run_experiment,
    validate_spec,
)
from support import MultivariateGaussian

MINIMAL = """
target: {{kind: quartic, dimension: 3}}
chains: {chains}
seed: 11
output_dir: {out}
record_stride: 5
defaults: {{iterations: {iterations}, tau: 0.1, total_time: 1.0, delta: 1.0e-8}}
methods:
  - {{name: hmc-lf, method: hmc-leapfrog}}
  - {{name: chmc-j0, method: chmc, jacobian: J0}}
"""


# the shipped four-method table, shrunk: d = 4, 2 chains x 30 iterations
GOLDEN = """
target: {{kind: quartic, dimension: 4}}
chains: 2
seed: 20240811
output_dir: {out}
record_stride: 5
workers: 1
defaults: {{iterations: 30, tau: 0.1, total_time: 1.0, delta: 1.0e-8, max_fpi: 10}}
methods:
  - {{name: hmc-lf, method: hmc-leapfrog}}
  - {{name: chmc-j0, method: chmc, jacobian: J0}}
  - {{name: chmc-j1, method: chmc, jacobian: J1}}
  - {{name: chmc-jfull, method: chmc, jacobian: JFull}}
"""

# the four methods on a Gaussian at d = 3, one chain; one golden run samples
# the N(0, I) that YAML builds, the other hands in a correlated Gaussian
# (``hand_in_gaussian``)
GOLDEN_GAUSSIAN = """
target: {{kind: gaussian, dimension: 3}}
chains: 1
seed: 20240811
output_dir: {out}
record_stride: 5
workers: 1
defaults: {{iterations: 30, tau: 0.1, total_time: 1.0, delta: 1.0e-8, max_fpi: 10}}
methods:
  - {{name: hmc-lf, method: hmc-leapfrog}}
  - {{name: chmc-j0, method: chmc, jacobian: J0}}
  - {{name: chmc-j1, method: chmc, jacobian: J1}}
  - {{name: chmc-jfull, method: chmc, jacobian: JFull}}
"""

# sha256 of each CSV body of GOLDEN and GOLDEN_GAUSSIAN (``csv_digests``),
# the latter with and without the correlated Gaussian handed in.
# A change may move them only if it says which outputs move and why.
GOLDEN_DIGESTS = {
    "summary.csv": "0efc76d604e2312d7cc6a66c44ea9193017581fb9ef826865501fa6ad3d5f2fd",
    "trace_chmc-j0_0.csv": "c70fcb15ec2eaa74b102fee9be2de21b7592a94006616a3f7ceb5856af92d3f4",
    "trace_chmc-j0_1.csv": "72de2f55fb22bdadcb45ae016b0c62cde34c38fd17da88449276de6b4970e119",
    "trace_chmc-j1_0.csv": "85f84e011a170489c151673c19d247d039962ccffa412b4f8ab7791c7180aba8",
    "trace_chmc-j1_1.csv": "3de73d62fba37635b02a1f7757193a6fd578352db882b3b5d215feb5109203d4",
    "trace_chmc-jfull_0.csv": "bae6983a2421e9605cc864e1ce47f38b82648f870499f59e2c4e093fbd380ffa",
    "trace_chmc-jfull_1.csv": "ccf46e02272e193306f8125bff9c529fa919fe7cae46f163c06017e932d48f60",
    "trace_hmc-lf_0.csv": "5bf65ecb49fc21bf9a5578b17778e291e52253268e0c439fb43c223abf4dc8f2",
    "trace_hmc-lf_1.csv": "d695931b259944b978783d38e474a697e49a78162ca7ae022980d8fa7d10be84",
}

GOLDEN_GAUSSIAN_DIGESTS = {
    "summary.csv": "c179adccf36a1025833a24c8ea557903499b4752926bd3fd0b48b492010c79ac",
    "trace_chmc-j0_0.csv": "a5ad7ff811c69b0e498e33d1bc12d8632aa54ef57a52850a98d071adcae40cee",
    "trace_chmc-j1_0.csv": "a850e1e6eaef7142b166767d015017ec6704449bc59a5109b955fbb225b19737",
    "trace_chmc-jfull_0.csv": "601cca442e2614c45e1aa8518069ad032dedea29fca6f82607e6d08ba0f38c31",
    "trace_hmc-lf_0.csv": "2a43a516978c1b91c3b67a68a8d42f96d3c86500a0b1682ec8d3dd689538e24b",
}

GOLDEN_STANDARD_NORMAL_DIGESTS = {
    "summary.csv": "0a7f1b91abd2697159c4a59896ccfb7192b78bbe745e458c915b16528a1e7eef",
    "trace_chmc-j0_0.csv": "ae45cca22b1555cd736184fd80fc647c7b062b932ed2aa40d1833374ce664047",
    "trace_chmc-j1_0.csv": "55ba08568ee599277fba35ba8cea06c06776b9d717904c9ef4173fd7a599a9e2",
    "trace_chmc-jfull_0.csv": "59c43cf0c8f444619fff170f979c13ed900380e45acdc4f17009b40299b03d73",
    "trace_hmc-lf_0.csv": "29f1862550fe1f2bb3b3965cfdab1f2908c2d2e687ac87e91f04b419c89669b1",
}


def csv_digests(out):
    """sha256 of each CSV body in ``out``, summary.csv without wall_time_s."""
    found = {}
    for path in sorted(out.glob("*.csv")):
        data = path.read_bytes()
        if path.name == "summary.csv":
            rows = list(csv.reader(io.StringIO(data.decode())))
            col = rows[0].index("wall_time_s")
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(r[:col] + r[col + 1:] for r in rows)
            data = buf.getvalue().encode()
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


def hand_in_gaussian(monkeypatch, mean, cov):
    """Make ``run_experiment`` sample N(mean, cov) where the spec builds N(0, I)."""
    mean, cov = np.array(mean, dtype=float), np.array(cov, dtype=float)
    monkeypatch.setattr(chmc.cli, "build_target",
                        lambda spec: (MultivariateGaussian(mean, cov), cov))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# the columns ``chmc table`` reads from summary.csv
SUMMARY_HEADER = ("method,d,tau,T,delta,chain,mean_acceptance_pct,mean_energy_error,"
                  "mean_force_evals,wall_time_s")


class TestValidateSpec:
    def test_zero_tau_names_field(self):
        with pytest.raises(ConfigError) as err:
            validate_spec(MINIMAL.format(chains=1, iterations=1, out="x")
                          .replace("tau: 0.1", "tau: 0.0"))
        assert any("tau" in e for e in err.value.errors)

    @pytest.mark.parametrize("tau", ["0.0", "-0.1"])
    def test_bad_tau_reported_once_per_method(self, tau):
        # the solver and the sampler both refuse it, in the same words
        with pytest.raises(ConfigError) as err:
            validate_spec(MINIMAL.format(chains=1, iterations=1, out="x")
                          .replace("tau: 0.1", f"tau: {tau}"))
        assert err.value.errors == ["methods[0]: tau must be finite and positive",
                                    "methods[1]: tau must be finite and positive"]

    @pytest.mark.parametrize("key", ["delta", "dd_guard"])
    def test_non_finite_chmc_knob_reported_once(self, key):
        # the field check names the YAML key; the dataclass check is not reached
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "jacobian: J0}", f"jacobian: J0, {key}: .inf}}")
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        assert err.value.errors == [f"methods[1].{key}: must be finite, got inf"]

    def test_non_integral_steps(self):
        with pytest.raises(ConfigError) as err:
            validate_spec(MINIMAL.format(chains=1, iterations=1, out="x")
                          .replace("total_time: 1.0", "total_time: 3.95"))
        assert any("n_steps not integral" in e for e in err.value.errors)

    def test_minimal_config_fills_defaults(self):
        spec = validate_spec(MINIMAL.format(chains=1, iterations=1, out="x"))
        assert spec.covariance_mode == "auto"
        assert spec.record_stride == 5
        assert spec.methods[0].max_fpi is None
        assert spec.methods[1].max_fpi == 10
        assert spec.methods[1].jacobian == "J0"
        assert spec.methods[1].delta == 1e-8

    def test_all_violations_reported(self):
        bad = """
target: {kind: banana, dimension: -1}
chains: 0
output_dir: ''
methods: []
"""
        with pytest.raises(ConfigError) as err:
            validate_spec(bad)
        text = "\n".join(err.value.errors)
        for needle in ("target.kind", "target.dimension", "chains", "output_dir", "methods"):
            assert needle in text
        assert len(err.value.errors) >= 5

    @pytest.mark.parametrize("top", ["", "target: {kind: quartic, dimension: 3}\noutput_dir: o\n"])
    def test_failed_entries_alone_explain_the_methods_list(self, top):
        with pytest.raises(ConfigError) as err:
            validate_spec(top + "methods: [{name: a, method: chmc}]\n")
        assert "methods[0].tau: required" in err.value.errors
        assert "methods: required non-empty list" not in err.value.errors

    @pytest.mark.parametrize("text", ['target: !!map "quartic"\n', "target: !!map [1]\n",
                                      "target: [\n", "{[1]: 2}\n"],
                             ids=["scalar", "sequence", "unclosed", "unhashable-key"])
    def test_malformed_yaml_is_one_config_error(self, text):
        # the duplicate-key check leaves a node that is no mapping to YAML's own error
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith("config is not valid YAML: ")

    @pytest.mark.parametrize("text", ["", "3\n", "[1, 2]\n"], ids=["empty", "scalar", "list"])
    def test_config_that_is_no_mapping_is_one_error(self, text):
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        assert err.value.errors == ["config must be a mapping"]

    @pytest.mark.parametrize("section, value, error", [
        ("target", 3, "target: expected a mapping"),
        ("defaults", 3, "defaults: expected a mapping"),
        ("methods", [3], "methods[0]: expected a mapping"),
    ], ids=["target", "defaults", "methods-entry"])
    def test_section_that_is_no_mapping_is_one_error(self, section, value, error):
        # it builds nothing, so nothing built from it reports a missing field
        raw = yaml.safe_load(MINIMAL.format(chains=1, iterations=1, out="x"))
        with pytest.raises(ConfigError) as err:
            validate_spec(yaml.safe_dump(dict(raw, **{section: value})))
        assert err.value.errors == [error]

    def test_merge_key_is_no_duplicate(self):
        # a key an entry spells out wins over the one YAML's << merges in
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "  - {name: chmc-j0, method: chmc, jacobian: J0}",
            "  - &j0 {name: chmc-j0, method: chmc, jacobian: J0}\n"
            "  - {<<: *j0, name: chmc-j1, jacobian: J1}")
        spec = validate_spec(text)
        assert [(m.name, m.method, m.jacobian) for m in spec.methods[1:]] == [
            ("chmc-j0", "chmc", "J0"), ("chmc-j1", "chmc", "J1")]

    @pytest.mark.parametrize("entry", ["iterations: 100", "burn_in: 10"],
                             ids=["iterations", "burn_in"])
    def test_top_level_method_values_are_unknown_fields(self, entry):
        # shared method values live in defaults alone: at the top level,
        # defaults' iterations would win over this one without a word
        with pytest.raises(ConfigError) as err:
            validate_spec(MINIMAL.format(chains=1, iterations=50, out="x") + entry + "\n")
        assert err.value.errors == [f"config.{entry.partition(':')[0]}: unknown field"]

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate_spec(MINIMAL.format(chains=1, iterations=1, out="x")
                          + "\nstep_count: 4\n")
        assert any("unknown field" in e for e in err.value.errors)

    def test_full_covariance_refused_in_high_dimensions(self):
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "dimension: 3", "dimension: 4096")
        with pytest.raises(ConfigError) as err:
            validate_spec(text + "\ncovariance_mode: full\n")
        assert any("covariance_mode" in e for e in err.value.errors)

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        text = MINIMAL.format(chains=1, iterations=1, out=tmp_path / "o").replace(
            "seed: 11", "seed: -3")
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        assert any(e.startswith("seed:") for e in err.value.errors)
        cfg = tmp_path / "neg.yaml"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == EXIT_CONFIG_ERROR
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entry", [
        "jacobian: J1", "jacobian_source: analytic",
        "delta: 0.5", "max_fpi: 3", "dd_guard: 1.0e-6", "init_mode: position-euler",
    ])
    def test_chmc_fields_on_leapfrog_entry_rejected(self, entry):
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "{name: hmc-lf, method: hmc-leapfrog}",
            "{name: hmc-lf, method: hmc-leapfrog, %s}" % entry)
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        key = entry.split(":")[0]
        assert err.value.errors == [f"methods[0].{key}: only applies to chmc"]

    def test_defaults_still_apply_to_every_method(self):
        # every method takes the shared keys, only chmc the chmc-only ones
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "delta: 1.0e-8}", "delta: 1.0e-8, max_fpi: 3, init_mode: position-euler}")
        spec = validate_spec(text)
        assert [m.total_time for m in spec.methods] == [1.0, 1.0]
        assert [m.max_fpi for m in spec.methods] == [None, 3]
        assert [m.init_mode for m in spec.methods] == [None, "position-euler"]
        assert spec.methods[1].sampler_config(seed=0).solver.max_fpi == 3

    def test_gaussian_target_is_standard_normal(self):
        spec = validate_spec(MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "quartic", "gaussian"))
        target, variance = build_target(spec)
        assert (type(target), target.dim, variance) == (StandardNormal, 3, 1.0)

    def test_gaussian_target_pickles_without_a_matrix(self):
        # the process pool pickles the built target once per task
        spec = validate_spec(MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "{kind: quartic, dimension: 3}", "{kind: gaussian, dimension: 512}"))
        assert len(pickle.dumps(build_target(spec))) < 64 * 1024

    @pytest.mark.parametrize("kind", ["J1", "JFull"])
    def test_gaussian_target_takes_the_separable_route(self, kind):
        # one chord update per step, and finite-difference probes in one
        # colour: 2 forces per step, not 2d
        spec = validate_spec(f"""
target: {{kind: gaussian, dimension: 320}}
output_dir: x
defaults: {{iterations: 2, tau: 0.1, total_time: 1.0}}
methods:
  - {{name: chmc, method: chmc, jacobian: {kind}}}
""")
        target, _ = build_target(spec)
        cfg = spec.methods[0].sampler_config(spec.seed)
        seen = []
        run_chain(cfg, target, MassMatrix.identity(320),
                  sinks=[lambda i, outcome, theta: seen.append(outcome)])
        assert [(o.fpi_iterations_total, o.jacobian_force_evals) for o in seen] == [
            (cfg.n_steps, 2 * cfg.n_steps)] * 2

    def test_chmc_only_defaults_need_a_chmc_entry(self):
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "  - {name: chmc-j0, method: chmc, jacobian: J0}\n", "")
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        assert err.value.errors == ["defaults.delta: only applies to chmc, and no method is chmc"]

    def test_leapfrog_spec_built_in_code_refuses_chmc_fields(self):
        with pytest.raises(ConfigError) as err:
            MethodSpec(name="x", method="hmc-leapfrog", tau=0.1, total_time=1.0,
                       iterations=10, max_fpi=3, jacobian="JFull")
        assert err.value.errors == ["jacobian: only applies to chmc",
                                    "max_fpi: only applies to chmc"]
        leapfrog = MethodSpec(name="x", method="hmc-leapfrog", tau=0.1, total_time=1.0,
                              iterations=10)
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(leapfrog, dd_guard=1e-6)
        assert err.value.errors == ["dd_guard: only applies to chmc"]
        chmc = dataclasses.replace(leapfrog, method="chmc")
        assert (chmc.jacobian, chmc.max_fpi) == ("J0", 10)
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(chmc, method="hmc-leapfrog")
        assert len(err.value.errors) == 6

    def test_removed_init_mode_rejected(self):
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "delta: 1.0e-8}", "delta: 1.0e-8, init_mode: gradient-euler}")
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        assert err.value.errors == [
            "methods[1].init_mode: expected one of ['position-euler'], got 'gradient-euler'"]

    def test_jacobian_typos_reported_under_their_keys(self):
        # both are collected, the source's too, named by their YAML paths
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "jacobian: J0}", "jacobian: J2, jacobian_source: magic}")
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        assert err.value.errors == [
            "methods[1].jacobian: expected one of ['J0', 'J1', 'JFull'], got 'J2'",
            "methods[1].jacobian_source: expected one of ['analytic', 'finite-difference'], "
            "got 'magic'"]

    def test_range_errors_come_from_dataclasses_all_collected(self):
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace(
            "delta: 1.0e-8}", "delta: 1.0e-8, max_fpi: 0}").replace(
            "total_time: 1.0", "total_time: 3.95")
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        # the solver and Jacobian messages only on the chmc entry
        assert [e.partition(" must")[0] for e in err.value.errors] == [
            "methods[0]: n_steps not integral: total_time / tau",
            "methods[1]: max_fpi",
            "methods[1]: n_steps not integral: total_time / tau"]

    def test_output_dir_with_nul_refused(self):
        # validate agrees with run, which cannot make such a directory
        with pytest.raises(ConfigError) as err:
            validate_spec(MINIMAL.format(chains=1, iterations=1, out='"o\\0x"'))
        assert err.value.errors == ["output_dir: must not contain NUL, got 'o\\x00x'"]

    def test_duplicate_method_names(self):
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace("chmc-j0", "hmc-lf")
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        assert any("unique" in e for e in err.value.errors)

    def test_direct_construction_lists_every_violation(self):
        with pytest.raises(ConfigError) as err:
            MethodSpec(name="", method="chmc", tau=0.1, total_time=3.95, iterations=5,
                       delta="tight")
        assert err.value.errors == ["name: required non-empty string",
                                    "delta: expected a number, got 'tight'"]
        with pytest.raises(ConfigError) as err:
            MethodSpec(name="a", method="chmc", tau=0.1, total_time=3.95, iterations=5,
                       max_fpi=0)
        assert err.value.errors == [
            "max_fpi must be >= 1, got 0",
            "n_steps not integral: total_time / tau must be a positive integer"]
        method = MethodSpec(name="a", method="chmc", tau=0.1, total_time=4, iterations=5)
        assert isinstance(method.total_time, float)
        with pytest.raises(ConfigError) as err:
            TargetSpec(kind="banana", dimension=0)
        assert err.value.errors == [
            "target.kind: expected one of ['quartic', 'gaussian'], got 'banana'",
            "target.dimension: must be >= 1, got 0"]
        with pytest.raises(ConfigError) as err:
            ExperimentSpec(target=TargetSpec(kind="quartic", dimension=1),
                           methods=(method, method), output_dir="o", chains=0, seed=-1,
                           workers=True)
        assert err.value.errors == [
            "chains: must be >= 1, got 0",
            "seed: must be >= 0, got -1",
            "workers: expected an integer, got True",
            "methods: names must be unique",
        ]

    def test_non_integer_counts_give_only_the_field_error(self):
        # the field check refuses them before the dataclasses' own integer checks
        with pytest.raises(ConfigError) as err:
            MethodSpec(name="a", method="chmc", tau=0.1, total_time=4.0, iterations=5.0,
                       burn_in=2.5, max_fpi=2.5)
        assert err.value.errors == ["iterations: expected an integer, got 5.0",
                                    "burn_in: expected an integer, got 2.5",
                                    "max_fpi: expected an integer, got 2.5"]
        spec = validate_spec(MINIMAL.format(chains=1, iterations=3, out="x"))
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(spec.target, dimension=3.0)
        assert err.value.errors == ["target.dimension: expected an integer, got 3.0"]
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(spec, record_stride=2.5)
        assert err.value.errors == ["record_stride: expected an integer, got 2.5"]

    def test_replace_runs_the_same_checks(self):
        spec = validate_spec(MINIMAL.format(chains=1, iterations=3, out="x"))
        assert dataclasses.replace(spec, chains=4).chains == 4
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(spec, chains=0, record_stride=0)
        assert err.value.errors == ["chains: must be >= 1, got 0",
                                    "record_stride: must be >= 1, got 0"]
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(spec.methods[0], iterations=0)
        assert err.value.errors == ["iterations must be >= 1, got 0"]


class TestRunExperiment:
    def test_minimal_run_row_count(self, tmp_path):
        out = tmp_path / "run"
        spec = validate_spec(MINIMAL.format(chains=1, iterations=1, out=out))
        run_experiment(spec)
        rows = read_csv(out / "summary.csv")
        data_rows = [r for r in rows if r["chain"] != "mean"]
        mean_rows = [r for r in rows if r["chain"] == "mean"]
        assert len(data_rows) == 2 and len(mean_rows) == 2

    def test_file_layout_and_meta(self, tmp_path):
        out = tmp_path / "run"
        spec = validate_spec(MINIMAL.format(chains=2, iterations=4, out=out))
        run_experiment(spec)
        files = sorted(os.listdir(out))
        assert files == ["meta.json", "summary.csv",
                         "trace_chmc-j0_0.csv", "trace_chmc-j0_1.csv",
                         "trace_hmc-lf_0.csv", "trace_hmc-lf_1.csv"]
        meta = json.loads((out / "meta.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["covariance_mode"] == "full"
        assert meta["seed"] == 11
        assert meta["spec"]["target"]["dimension"] == 3

    def test_meta_records_null_chmc_fields_for_leapfrog(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(validate_spec(MINIMAL.format(chains=1, iterations=2, out=out)))
        leapfrog, chmc = json.loads((out / "meta.json").read_text())["spec"]["methods"]
        chmc_only = ("jacobian", "jacobian_source", "delta", "max_fpi", "dd_guard",
                     "init_mode")
        assert [leapfrog[k] for k in chmc_only] == [None] * 6
        assert [chmc[k] for k in chmc_only] == [
            "J0", "finite-difference", 1e-8, 10, 1e-8, "position-euler"]

    def test_trace_columns_and_length(self, tmp_path):
        out = tmp_path / "run"
        spec = validate_spec(MINIMAL.format(chains=1, iterations=12, out=out))
        run_experiment(spec)
        rows = read_csv(out / "trace_chmc-j0_0.csv")
        assert len(rows) == 12
        assert list(rows[0].keys()) == ["iteration", "cov_error", "delta_H", "alpha",
                                        "accepted", "force_evals", "fpi_iterations",
                                        "jacobian_product", "all_converged"]
        recorded = [r for r in rows if r["cov_error"] != ""]
        assert len(recorded) == 2  # strides 5 and 10 within 12 iterations

    def test_summary_recomputable_from_traces(self, tmp_path):
        out = tmp_path / "run"
        spec = validate_spec(MINIMAL.format(chains=2, iterations=25, out=out))
        run_experiment(spec)
        for row in read_csv(out / "summary.csv"):
            if row["chain"] == "mean":
                continue
            trace = read_csv(out / f"trace_{row['method']}_{row['chain']}.csv")
            acc = 100.0 * sum(int(r["accepted"]) for r in trace) / len(trace)
            energy = math.fsum(abs(float(r["delta_H"])) for r in trace) / len(trace)
            n_steps = round(float(row["T"]) / float(row["tau"]))
            force = math.fsum(float(r["force_evals"]) for r in trace) / (len(trace) * n_steps)
            assert acc == pytest.approx(float(row["mean_acceptance_pct"]), abs=1e-9)
            assert energy == pytest.approx(float(row["mean_energy_error"]), abs=1e-9)
            assert force == pytest.approx(float(row["mean_force_evals"]), abs=1e-9)

    def test_rerun_byte_identical_modulo_walltime(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            spec = validate_spec(MINIMAL.format(chains=2, iterations=10, out=out))
            run_experiment(spec)
            outs.append(out)

        def strip_walltime(path):
            rows = read_csv(path)
            for r in rows:
                r.pop("wall_time_s", None)
            return rows

        assert strip_walltime(outs[0] / "summary.csv") == strip_walltime(outs[1] / "summary.csv")
        for name in ("trace_hmc-lf_0.csv", "trace_hmc-lf_1.csv",
                     "trace_chmc-j0_0.csv", "trace_chmc-j0_1.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        meta0 = json.loads((outs[0] / "meta.json").read_text())
        meta1 = json.loads((outs[1] / "meta.json").read_text())
        meta0["spec"]["output_dir"] = meta1["spec"]["output_dir"] = ""
        assert meta0 == meta1

    def test_worker_count_does_not_change_results(self, tmp_path):
        outs = []
        for name, workers in (("w1", 1), ("w2", 2)):
            out = tmp_path / name
            spec = validate_spec(MINIMAL.format(chains=2, iterations=8, out=out))
            run_experiment(spec, workers=workers)
            outs.append(out)
        for name in ("trace_hmc-lf_0.csv", "trace_hmc-lf_1.csv",
                     "trace_chmc-j0_0.csv", "trace_chmc-j0_1.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_golden_outputs(self, tmp_path):
        run_experiment(validate_spec(GOLDEN.format(out=tmp_path)))
        assert csv_digests(tmp_path) == GOLDEN_DIGESTS

    def test_golden_standard_normal_outputs(self, tmp_path):
        run_experiment(validate_spec(GOLDEN_GAUSSIAN.format(out=tmp_path)))
        assert csv_digests(tmp_path) == GOLDEN_STANDARD_NORMAL_DIGESTS

    def test_golden_gaussian_outputs(self, tmp_path, monkeypatch):
        hand_in_gaussian(monkeypatch, [0.5, -0.25, 1.0],
                         [[1.5, 0.2, 0.0], [0.2, 0.8, -0.1], [0.0, -0.1, 0.6]])
        run_experiment(validate_spec(GOLDEN_GAUSSIAN.format(out=tmp_path / "o")))
        assert csv_digests(tmp_path / "o") == GOLDEN_GAUSSIAN_DIGESTS

    @pytest.mark.parametrize("template", [GOLDEN, GOLDEN_GAUSSIAN, MINIMAL],
                             ids=["golden", "golden-gaussian", "minimal"])
    def test_meta_spec_loads_back_as_the_spec_that_ran(self, tmp_path, template):
        # meta.json's spec has the YAML's keys and nesting; MINIMAL's leapfrog
        # entry records its chmc-only fields as null
        text = template.format(out=tmp_path / "o", chains=2, iterations=3)
        spec = validate_spec(text)
        run_experiment(spec)
        meta = json.loads((tmp_path / "o" / "meta.json").read_text())
        assert validate_spec(yaml.safe_dump(meta["spec"])) == spec

    def test_gaussian_target_with_files(self, tmp_path, monkeypatch):
        hand_in_gaussian(monkeypatch, [0.5, -0.25], [[1.5, 0.2], [0.2, 0.8]])
        text = f"""
target: {{kind: gaussian, dimension: 2}}
chains: 1
seed: 2
output_dir: {tmp_path / 'gout'}
defaults: {{iterations: 10, tau: 0.1, total_time: 1.0}}
methods:
  - {{name: chmc-jfull, method: chmc, jacobian: JFull, jacobian_source: analytic}}
"""
        spec = validate_spec(text)
        run_experiment(spec)
        rows = read_csv(tmp_path / "gout" / "trace_chmc-jfull_0.csv")
        # volume-preserving quadratic target: every jacobian product is 1
        for r in rows:
            assert float(r["jacobian_product"]) == pytest.approx(1.0, abs=1e-10)


class TestMainEntry:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "ok.yaml"
        cfg.write_text(MINIMAL.format(chains=1, iterations=1, out=tmp_path / "o"))
        assert main(["validate", str(cfg)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_validate_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("target: {kind: quartic, dimension: 0}\n")
        assert main(["validate", str(cfg)]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_run_and_table(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = tmp_path / "ok.yaml"
        cfg.write_text(MINIMAL.format(chains=1, iterations=3, out=out))
        assert main(["run", str(cfg)]) == EXIT_OK
        assert main(["table", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "hmc-lf" in text and "chmc-j0" in text

    def test_unwritable_output_dir_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL.format(chains=1, iterations=1, out=blocker / "sub"))
        assert main(["run", str(cfg)]) == EXIT_RUNTIME_ERROR

    def test_output_dir_without_write_access_is_runtime_error(self, tmp_path, capsys,
                                                              monkeypatch):
        # a root user may write anywhere, so the refusal is simulated
        out = tmp_path / "o"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL.format(chains=1, iterations=1, out=out))
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        assert main(["run", str(cfg)]) == EXIT_RUNTIME_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"run failed: output directory {str(out)!r} is not writable"]
        assert os.listdir(out) == []

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_flag_below_one_is_config_error(self, tmp_path, capsys, workers):
        out = tmp_path / "o"
        cfg = tmp_path / "ok.yaml"
        cfg.write_text(MINIMAL.format(chains=1, iterations=3, out=out))
        assert main(["run", str(cfg), "--workers", str(workers)]) == EXIT_CONFIG_ERROR
        assert f"config error: workers: must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_flag_leaves_meta_spec_value(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "ok.yaml"
        cfg.write_text(MINIMAL.format(chains=2, iterations=3, out=out))
        assert main(["run", str(cfg), "--workers", "2"]) == EXIT_OK
        assert json.loads((out / "meta.json").read_text())["spec"]["workers"] == 1

    @pytest.mark.parametrize("first, second", [
        ("seed: 1", "seed: 2"),
        ("  tau: 0.1", "  tau: 0.2"),
        ("    jacobian: J1", "    jacobian: JFull"),
    ], ids=["top", "defaults", "methods"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_duplicate_key_is_config_error(self, tmp_path, capsys, command, first, second):
        # YAML loaders keep the last of two equal keys, so a spec with one
        # would run a value that another reader of the file takes as unset
        out = tmp_path / "o"
        lines = ["target:", "  kind: quartic", "  dimension: 2", "seed: 1", f"output_dir: {out}",
                 "defaults:", "  iterations: 3", "  tau: 0.1", "  total_time: 1.0",
                 "methods:", "  - name: chmc", "    method: chmc", "    jacobian: J1"]
        cfg = tmp_path / "dup.yaml"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(cfg)]) == EXIT_OK
        capsys.readouterr()
        line = lines.index(first) + 1
        lines.insert(line, second)
        cfg.write_text("\n".join(lines) + "\n")
        assert main([command, str(cfg)]) == EXIT_CONFIG_ERROR
        key = first.strip().partition(":")[0]
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {key}: duplicate key at line {line + 1} (first at line {line})"]
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a/b", "a\\0b"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_method_name_that_is_no_file_name_is_config_error(self, tmp_path, capsys,
                                                               command, name):
        # the name is part of each trace file's name
        out = tmp_path / "o"
        cfg = tmp_path / "name.yaml"
        cfg.write_text(MINIMAL.format(chains=1, iterations=1, out=out).replace(
            "name: chmc-j0", f'name: "{name}"'))
        assert main([command, str(cfg)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: methods[1].name: must not contain '/' or NUL")
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["jacobian_h_fd: 1.0e-6", "initial_state: standard-normal"],
                             ids=["jacobian_h_fd", "initial_state"])
    @pytest.mark.parametrize("where, path", [
        ("delta: 1.0e-8}", "defaults"),
        ("jacobian: J0}", "methods[1]"),
    ], ids=["defaults", "methods"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_removed_keys_are_no_fields(self, tmp_path, capsys, command, where, path, entry):
        # the probes' step is fixed at sqrt(eps), and spec chains start
        # standard-normal: a spec can set neither
        out = tmp_path / "o"
        cfg = tmp_path / "removed.yaml"
        cfg.write_text(MINIMAL.format(chains=1, iterations=1, out=out).replace(
            where, f"{where[:-1]}, {entry}}}"))
        assert main([command, str(cfg)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        key = entry.partition(":")[0]
        assert err == [f"config error: {path}.{key}: unknown field"]
        assert not out.exists()

    @pytest.mark.parametrize("where, entry, error", [
        ("target", "mean_path: mean.npy", "target.mean_path: unknown field"),
        ("target", "cov_path: cov.csv", "target.cov_path: unknown field"),
        ("config", "covariance_mode: full",
         "covariance_mode: expected one of ['auto'], got 'full'"),
        ("config", "covariance_mode: diagonal",
         "covariance_mode: expected one of ['auto'], got 'diagonal'"),
    ], ids=["mean_path", "cov_path", "full", "diagonal"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_gaussian_files_and_covariance_modes_are_refused(self, tmp_path, capsys, command,
                                                             where, entry, error):
        # a spec's Gaussian is N(0, I), and the tracker's shape follows d alone
        out = tmp_path / "o"
        text = MINIMAL.format(chains=1, iterations=1, out=out).replace("quartic", "gaussian")
        if where == "target":
            text = text.replace("dimension: 3}", f"dimension: 3, {entry}}}")
        cfg = tmp_path / "removed.yaml"
        cfg.write_text(text + (entry + "\n" if where == "config" else ""))
        assert main([command, str(cfg)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [f"config error: {error}"]
        assert not out.exists()

    @pytest.mark.parametrize("where, nulls, keys", [
        ("delta: 1.0e-8}", "delta: null, max_fpi: null}", ["defaults.delta", "defaults.max_fpi"]),
        ("jacobian: J0}", "jacobian: null, jacobian_source: null}",
         ["methods[1].jacobian", "methods[1].jacobian_source"]),
    ], ids=["defaults", "methods"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_null_chmc_knob_is_config_error(self, tmp_path, capsys, command, where, nulls, keys):
        # a null would run the default, unlike what the spec seems to say;
        # only a leapfrog entry, as meta.json records it, may give one
        out = tmp_path / "o"
        cfg = tmp_path / "null.yaml"
        cfg.write_text(MINIMAL.format(chains=1, iterations=1, out=out).replace(where, nulls))
        assert main([command, str(cfg)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {key}: a chmc method needs a value, got null" for key in keys]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_that_is_no_utf8_is_unreadable(self, tmp_path, capsys, command):
        # a Latin-1 comment: the byte 0xE9 starts no UTF-8 sequence here
        out = tmp_path / "o"
        cfg = tmp_path / "latin1.yaml"
        cfg.write_bytes(("# caf\u00e9\n" + MINIMAL.format(chains=1, iterations=1, out=out))
                        .encode("latin-1"))
        assert main([command, str(cfg)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("cannot read config: 'utf-8' codec can't decode byte 0xe9")
        assert not out.exists()

    def test_output_dir_with_nul_is_config_error(self, tmp_path, capsys):
        # no directory can have the name, so the run would fail after validation
        out = str(tmp_path / "o") + "\0x"
        cfg = tmp_path / "nul.yaml"
        cfg.write_text(MINIMAL.format(chains=1, iterations=1, out=f'"{tmp_path / "o"}\\0x"'))
        assert main(["run", str(cfg)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"config error: output_dir: must not contain NUL, got {out!r}"]
        assert os.listdir(tmp_path) == ["nul.yaml"]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG_ERROR

    def test_table_missing_dir(self, tmp_path):
        assert main(["table", str(tmp_path / "missing")]) == EXIT_RUNTIME_ERROR

    @pytest.mark.parametrize("body, reason", [
        ("method,d,tau,T,delta,mean_acceptance_pct,mean_energy_error,mean_force_evals,"
         "wall_time_s\nhmc-lf,3,0.1,1,,90,0.1,1,0.5\n", "no column 'chain'"),
        (f"{SUMMARY_HEADER}\nhmc-lf,3,0.1,1,,mean,n/a,0.1,1,0.5\n",
         "could not convert string to float: 'n/a'"),
        # a summary cut short before its mean rows (a killed run) is no finished run
        ("", "no method-mean rows"),
        (f"{SUMMARY_HEADER}\n", "no method-mean rows"),
        (f"{SUMMARY_HEADER}\nhmc-lf,3,0.1,1,,0,90,0.1,1,0.5\n", "no method-mean rows"),
        # csv refuses a field over its 131,072-character limit
        (f"{SUMMARY_HEADER}\nhmc-lf,3,0.1,1,,mean,{'9' * 131073},0.1,1,0.5\n",
         "field larger than field limit (131072)"),
    ], ids=["no-chain-column", "not-a-number", "empty", "header-only", "no-mean-row",
            "field-over-csv-limit"])
    def test_table_on_malformed_summary_is_runtime_error(self, tmp_path, capsys, body, reason):
        (tmp_path / "summary.csv").write_text(body)
        assert main(["table", str(tmp_path)]) == EXIT_RUNTIME_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"cannot read summary: {reason}"]
        assert captured.out == ""


class TestFormatTable:
    def test_contains_method_means(self, tmp_path):
        out = tmp_path / "run"
        spec = validate_spec(MINIMAL.format(chains=2, iterations=5, out=out))
        run_experiment(spec)
        table = format_table(str(out))
        assert "hmc-lf" in table and "chmc-j0" in table
        assert "mean acc %" in table
