import csv
import json
import math
import os

import numpy as np
import pytest

from chmc.cli import (
    ConfigError,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_RUNTIME_ERROR,
    format_table,
    main,
    run_experiment,
    validate_spec,
)

MINIMAL = """
target: {{kind: quartic, dimension: 3}}
chains: {chains}
iterations: {iterations}
seed: 11
output_dir: {out}
record_stride: 5
defaults: {{tau: 0.1, total_time: 1.0, delta: 1.0e-8}}
methods:
  - {{name: hmc-lf, method: hmc-leapfrog}}
  - {{name: chmc-j0, method: chmc, jacobian: J0}}
"""


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestValidateSpec:
    def test_zero_tau_names_field(self):
        with pytest.raises(ConfigError) as err:
            validate_spec(MINIMAL.format(chains=1, iterations=1, out="x")
                          .replace("tau: 0.1", "tau: 0.0"))
        assert any("tau" in e for e in err.value.errors)

    def test_non_integral_steps(self):
        with pytest.raises(ConfigError) as err:
            validate_spec(MINIMAL.format(chains=1, iterations=1, out="x")
                          .replace("total_time: 1.0", "total_time: 3.95"))
        assert any("n_steps not integral" in e for e in err.value.errors)

    def test_minimal_config_fills_defaults(self):
        spec = validate_spec(MINIMAL.format(chains=1, iterations=1, out="x"))
        assert spec.covariance_mode == "auto"
        assert spec.record_stride == 5
        assert spec.methods[0].max_fpi == 10
        assert spec.methods[1].jacobian_kind == "J0"
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

    def test_initial_state_reaches_sampler_and_meta(self, tmp_path):
        out = tmp_path / "run"
        text = MINIMAL.format(chains=1, iterations=1, out=out).replace(
            "delta: 1.0e-8}", "delta: 1.0e-8, initial_state: zeros}")
        spec = validate_spec(text)
        for method in spec.methods:
            assert method.initial_state == "zeros"
            assert method.sampler_config(seed=0).initial_state_mode == "zeros"
        run_experiment(spec)
        meta = json.loads((out / "meta.json").read_text())
        assert [m["initial_state"] for m in meta["spec"]["methods"]] == ["zeros", "zeros"]

    def test_duplicate_method_names(self):
        text = MINIMAL.format(chains=1, iterations=1, out="x").replace("chmc-j0", "hmc-lf")
        with pytest.raises(ConfigError) as err:
            validate_spec(text)
        assert any("unique" in e for e in err.value.errors)


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
        assert meta["spec"]["dimension"] == 3

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

    def test_gaussian_target_with_files(self, tmp_path):
        mean = np.array([0.5, -0.25])
        cov = np.array([[1.5, 0.2], [0.2, 0.8]])
        np.save(tmp_path / "mean.npy", mean)
        np.savetxt(tmp_path / "cov.csv", cov, delimiter=",")
        text = f"""
target:
  kind: gaussian
  dimension: 2
  mean_path: {tmp_path / 'mean.npy'}
  cov_path: {tmp_path / 'cov.csv'}
chains: 1
iterations: 10
seed: 2
output_dir: {tmp_path / 'gout'}
defaults: {{tau: 0.1, total_time: 1.0}}
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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG_ERROR

    def test_table_missing_dir(self, tmp_path):
        assert main(["table", str(tmp_path / "missing")]) == EXIT_RUNTIME_ERROR


class TestFormatTable:
    def test_contains_method_means(self, tmp_path):
        out = tmp_path / "run"
        spec = validate_spec(MINIMAL.format(chains=2, iterations=5, out=out))
        run_experiment(spec)
        table = format_table(str(out))
        assert "hmc-lf" in table and "chmc-j0" in table
        assert "mean acc %" in table
