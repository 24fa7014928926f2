"""Experiment harness: config parsing, runners, replication, artifacts, CLI."""

import base64
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bifid import beam
from bifid.cli import main
from bifid.datasets import Dataset, read_csv, write_csv
from bifid.errors import ConfigurationError, NormalizationError
from bifid.harness import (
    METHODS,
    NN_METHODS,
    REFERENCE_MEANS,
    ArchConfig,
    DataConfig,
    ExperimentConfig,
    ReplicationConfig,
    compare_methods,
    config_from_dict,
    config_from_file,
    load_artifact,
    log_histogram,
    make_pool,
    make_problem,
    nh_sweep,
    pool_split_indices,
    predict_from_artifact,
    replicate_datasets,
    replicate_inits,
    rmse,
    run_single,
    save_artifact,
    split_pool,
)
from bifid.network import init_params, params_from_bytes, predict_batch
from bifid.seeding import DATA, INIT, stream


def tiny_cfg(method: str = "standard_hf", **overrides) -> ExperimentConfig:
    # small sizes / few steps keep each runner test in the sub-second range
    defaults = dict(
        method=method, master_seed=11, n_l=40, n_h=8, n_v=10,
        network=ArchConfig((6, 6), ("elu", "elu")),
        head=ArchConfig((4,), ("elu",)),
        lf_steps=200, hf_steps=200, loss_stride=50,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(autouse=True)
def serial_workers(monkeypatch):
    monkeypatch.setenv("BIFID_THREADS", "1")


class TestRmse:
    def test_perfect_prediction_is_zero(self):
        y = np.array([1.0, -2.0, 3.5])
        assert rmse(y, y) == 0.0

    def test_unit_error_against_unit_truth(self):
        # sqrt(sum(1)/sum(1)) = 1 regardless of length
        assert rmse(np.zeros(4), np.ones(4)) == 1.0

    def test_matches_manual_formula(self):
        rng = stream(3, 0)
        truth = rng.normal(size=20)
        pred = truth + rng.normal(size=20) * 0.1
        expected = np.sqrt(np.sum((truth - pred) ** 2) / np.sum(truth**2))
        np.testing.assert_allclose(rmse(pred, truth), expected, rtol=1e-15)

    def test_scale_invariance(self):
        rng = stream(4, 0)
        truth = rng.normal(size=15)
        pred = truth + rng.normal(size=15)
        np.testing.assert_allclose(
            rmse(1e6 * pred, 1e6 * truth), rmse(pred, truth), rtol=1e-12)

    def test_zero_truth_rejected(self):
        with pytest.raises(NormalizationError):
            rmse(np.ones(3), np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            rmse(np.ones(3), np.ones(4))


class TestConfigParsing:
    def base(self) -> dict:
        return {"method": "standard_hf", "master_seed": 5}

    def test_defaults(self):
        cfg = config_from_dict(self.base())
        assert cfg.n_l == 250 and cfg.n_h == 20 and cfg.n_v == 50
        assert cfg.network.hidden_widths == (15, 15)
        assert cfg.network.activations == ("elu", "elu")
        assert cfg.resolved_rates() == (1e-3, 1e-4)
        assert cfg.resolved_beta() == -0.25
        assert cfg.standardize_nn is True
        assert cfg.standardize_gp_inputs is False

    def test_rates_follow_method(self):
        for method, (lf, hf) in (("bftl1", (4e-4, 1e-4)), ("bftl2", (1e-3, 1e-4)),
                                 ("bfwl", (1e-3, 2e-4))):
            cfg = config_from_dict({"method": method, "master_seed": 0})
            assert cfg.resolved_rates() == (lf, hf)

    def test_explicit_rate_overrides_default(self):
        cfg = config_from_dict({**self.base(), "hf_eta": 5e-5})
        assert cfg.resolved_rates() == (1e-3, 5e-5)

    def test_method_defaults_are_the_dataclass_defaults(self):
        # the dataclass declarations are the one source of every default
        for method in METHODS:
            assert (config_from_dict({"method": method, "master_seed": 0})
                    == ExperimentConfig(method=method, master_seed=0))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="config: unknown key 'typo'"):
            config_from_dict({**self.base(), "typo": 1})

    def test_unknown_nested_keys(self):
        with pytest.raises(ConfigurationError, match="config.data: unknown key"):
            config_from_dict({**self.base(), "data": {"sources": "beam"}})
        with pytest.raises(ConfigurationError, match="config.replication: unknown key"):
            config_from_dict({**self.base(), "replication": {"count": 3}})
        with pytest.raises(ConfigurationError, match="config.network: unknown key"):
            config_from_dict({**self.base(), "network": {"widths": [4]}})

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="config.method"):
            config_from_dict({"method": "mlp", "master_seed": 0})

    def test_missing_required_fields(self):
        with pytest.raises(ConfigurationError, match="config.method: required"):
            config_from_dict({"master_seed": 0})
        with pytest.raises(ConfigurationError, match="config.master_seed: required"):
            config_from_dict({"method": "bfwl"})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigurationError, match="config.n_h: expected an integer"):
            config_from_dict({**self.base(), "n_h": True})

    def test_size_and_step_bounds(self):
        for key in ("n_l", "n_h", "n_v"):
            with pytest.raises(ConfigurationError, match=f"config.{key}"):
                config_from_dict({**self.base(), key: 0})
        with pytest.raises(ConfigurationError, match="config.lf_steps"):
            config_from_dict({**self.base(), "lf_steps": -1})
        with pytest.raises(ConfigurationError, match="config.loss_stride"):
            config_from_dict({**self.base(), "loss_stride": 0})
        # zero steps is a legal stage (train nothing)
        assert config_from_dict({**self.base(), "hf_steps": 0}).hf_steps == 0

    def test_n_adapt_layers_bounded_by_network_depth(self):
        for value in (0, 3):
            with pytest.raises(ConfigurationError,
                               match=r"config.n_adapt_layers: must lie in \[1, 2\]"):
                config_from_dict({**self.base(), "n_adapt_layers": value})
        deep = {"hidden_widths": [6, 6, 6], "activations": ["elu"] * 3}
        assert config_from_dict({**self.base(), "network": deep,
                                 "n_adapt_layers": 3}).n_adapt_layers == 3

    def test_csv_source_requires_paths(self):
        with pytest.raises(ConfigurationError, match="config.data.lf_path: required"):
            config_from_dict({**self.base(), "data": {"source": "csv"}})

    def test_network_arch_parsing(self):
        cfg = config_from_dict({**self.base(),
                                "network": {"hidden_widths": [8, 8, 8],
                                            "activations": ["relu", "relu", "elu"],
                                            "skips": [[1, 3]]}})
        assert cfg.network.hidden_widths == (8, 8, 8)
        assert cfg.network.skips == ((1, 3),)
        with pytest.raises(ConfigurationError, match="config.network.activations"):
            config_from_dict({**self.base(),
                              "network": {"hidden_widths": [8, 8], "activations": ["elu"]}})
        with pytest.raises(ConfigurationError, match="config.network"):
            config_from_dict({**self.base(),
                              "network": {"hidden_widths": [8], "activations": ["sigmoid"]}})

    def test_partial_arch_keeps_its_field_defaults(self):
        # a key left out of "head" takes the head's default, not the network's
        for head in ({}, {"skips": []}):
            assert (config_from_dict({**self.base(), "head": head}).head
                    == ArchConfig((20,), ("elu",)))
        assert (config_from_dict({**self.base(), "head": {"hidden_widths": [30]}}).head
                == ArchConfig((30,), ("elu",)))
        assert (config_from_dict({**self.base(), "network": {"skips": [[1, 2]]}}).network
                == ArchConfig((15, 15), ("elu", "elu"), ((1, 2),)))

    def test_kernel_and_bounds_parsing(self):
        cfg = config_from_dict({**self.base(),
                                "gp_kernel": {"kind": "rbf", "amplitude": 2.0, "length": 0.5},
                                "gp_noise_bounds": [1e-8, 1e-2],
                                "rho_bounds": [-2, 2]})
        assert cfg.gp_kernel.amplitude == 2.0
        assert cfg.gp_noise_bounds == (1e-8, 1e-2)
        assert cfg.rho_bounds == (-2.0, 2.0)
        assert config_from_dict(self.base()).gp_kernel is None
        with pytest.raises(ConfigurationError, match="config.gp_noise_bounds"):
            config_from_dict({**self.base(), "gp_noise_bounds": [1e-8]})

    def test_replication_parsing(self):
        cfg = config_from_dict({**self.base(),
                                "replication": {"mode": "nh_sweep",
                                                "nh_values": [5, 10, 40], "n_seeds": 3}})
        assert cfg.replication.nh_values == (5, 10, 40)
        assert cfg.replication.n_seeds == 3
        with pytest.raises(ConfigurationError, match="config.replication.mode"):
            config_from_dict({**self.base(), "replication": {"mode": "bootstrap"}})
        with pytest.raises(ConfigurationError, match="config.replication.n:"):
            config_from_dict({**self.base(), "replication": {"n": 0}})

    def test_config_from_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.base(), "n_h": 12}), encoding="utf-8")
        assert config_from_file(path).n_h == 12
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            config_from_file(bad)
        with pytest.raises(ConfigurationError, match="cannot read"):
            config_from_file(tmp_path / "missing.json")
        # Python refuses to read an integer literal this long
        bad.write_text('{"method": "bfwl", "master_seed": 1' + "0" * 5000 + "}",
                       encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            config_from_file(bad)


class TestProblemAssembly:
    def test_beam_problem_sizes_and_determinism(self):
        cfg = tiny_cfg()
        p1 = make_problem(cfg)
        p2 = make_problem(cfg)
        assert (len(p1.data_l), len(p1.data_h), len(p1.data_v)) == (40, 8, 10)
        np.testing.assert_array_equal(p1.data_l.inputs, p2.data_l.inputs)
        np.testing.assert_array_equal(p1.data_v.outputs, p2.data_v.outputs)

    def test_fidelity_labels_match_models(self):
        p = make_problem(tiny_cfg())
        geom = beam.BeamGeometry()
        row = p.data_l.inputs[0]
        assert p.data_l.outputs[0] == beam.beam_lowfi_tip(beam.BeamInputs.from_si_row(row), geom)
        row = p.data_h.inputs[0]
        assert p.data_h.outputs[0] == beam.beam_highfi_surrogate(
            beam.BeamInputs.from_si_row(row), geom)

    def test_csv_problem(self, tmp_path):
        src = make_problem(tiny_cfg())
        paths = {}
        for name, data in (("lf", src.data_l), ("hf", src.data_h), ("val", src.data_v)):
            paths[name] = tmp_path / f"{name}.csv"
            write_csv(data, paths[name])
        cfg = tiny_cfg(data=DataConfig(source="csv", lf_path=str(paths["lf"]),
                                       hf_path=str(paths["hf"]), val_path=str(paths["val"])))
        loaded = make_problem(cfg)
        np.testing.assert_allclose(loaded.data_h.outputs, src.data_h.outputs, rtol=1e-15)

    def test_csv_input_column_counts_must_match(self, tmp_path):
        src = make_problem(tiny_cfg())
        write_csv(src.data_l, tmp_path / "lf.csv")
        write_csv(Dataset(src.data_h.inputs[:, :3], src.data_h.outputs), tmp_path / "hf.csv")
        cfg = tiny_cfg(data=DataConfig(source="csv", lf_path=str(tmp_path / "lf.csv"),
                                       hf_path=str(tmp_path / "hf.csv"),
                                       val_path=str(tmp_path / "lf.csv")))
        with pytest.raises(ConfigurationError, match="have 4, 3 and 4 input columns"):
            make_problem(cfg)

    def test_pool_split_disjoint_and_sized(self):
        cfg = tiny_cfg(data=DataConfig(pool_size=70))
        idx_l, idx_h, idx_v = pool_split_indices(cfg, 70, rep=0)
        assert (len(idx_l), len(idx_h), len(idx_v)) == (40, 8, 10)
        combined = np.concatenate([idx_l, idx_h, idx_v])
        assert len(np.unique(combined)) == len(combined)

    def test_pool_splits_differ_between_replicates(self):
        cfg = tiny_cfg(data=DataConfig(pool_size=70))
        a = pool_split_indices(cfg, 70, rep=0)[0]
        b = pool_split_indices(cfg, 70, rep=1)[0]
        assert not np.array_equal(a, b)

    def test_exact_size_pool_uses_every_row(self):
        cfg = tiny_cfg()  # pool_size defaults to n_l + n_h + n_v
        pool = make_pool(cfg)
        assert pool.inputs.shape == (58, 4)
        idx = np.concatenate(pool_split_indices(cfg, 58, rep=2))
        np.testing.assert_array_equal(np.sort(idx), np.arange(58))

    def test_pool_too_small_rejected(self):
        cfg = tiny_cfg(data=DataConfig(pool_size=57))
        with pytest.raises(ConfigurationError, match="pool_size"):
            make_pool(cfg)

    def test_split_pool_labels_match_fidelity(self):
        cfg = tiny_cfg()
        pool = make_pool(cfg)
        problem = split_pool(cfg, pool, rep=1)
        geom = beam.BeamGeometry()
        row = problem.data_h.inputs[3]
        assert problem.data_h.outputs[3] == beam.beam_highfi_surrogate(
            beam.BeamInputs.from_si_row(row), geom)
        row = problem.data_l.inputs[5]
        assert problem.data_l.outputs[5] == beam.beam_lowfi_tip(
            beam.BeamInputs.from_si_row(row), geom)


class TestRunners:
    def test_every_method_produces_finite_rmse(self):
        problem = make_problem(tiny_cfg())
        for method in METHODS:
            result = run_single(tiny_cfg(method=method), problem=problem)
            assert np.isfinite(result.rmse) and result.rmse > 0, method
            assert result.method == method
            assert (result.n_l, result.n_h, result.n_v) == (40, 8, 10)

    def test_zero_step_standard_hf_equals_untrained_network(self):
        # with no training the artifact must hold the raw initialization
        cfg = tiny_cfg(hf_steps=0, standardize_nn=False)
        problem = make_problem(cfg)
        result = run_single(cfg, problem=problem)
        spec = cfg.network.to_spec(4)
        params = init_params(spec, stream(cfg.master_seed, INIT, 0))
        expected = predict_batch(spec, params, problem.data_v.inputs)
        np.testing.assert_array_equal(
            predict_from_artifact(result.artifact, problem.data_v.inputs), expected)

    def test_gp_interpolates_its_own_training_points(self, tmp_path):
        # validation == training -> noiseless GP reproduces the labels
        src = make_problem(tiny_cfg())
        paths = {}
        for name, data in (("lf", src.data_l), ("hf", src.data_h), ("hf2", src.data_h)):
            paths[name] = tmp_path / f"{name}.csv"
            write_csv(data, paths[name])
        cfg = tiny_cfg(method="gp_only",
                       data=DataConfig(source="csv", lf_path=str(paths["lf"]),
                                       hf_path=str(paths["hf"]), val_path=str(paths["hf2"])))
        result = run_single(cfg)
        assert result.rmse <= 1e-6

    def test_deterministic_reruns(self):
        for method in ("standard_hf", "bfwl"):
            cfg = tiny_cfg(method=method, lf_steps=100, hf_steps=100)
            a = run_single(cfg)
            b = run_single(cfg)
            assert a.rmse == b.rmse
            assert a.artifact == b.artifact

    def test_replicates_differ(self):
        cfg = tiny_cfg()
        problem = make_problem(cfg)
        a = run_single(cfg, rep=0, problem=problem)
        b = run_single(cfg, rep=1, problem=problem)
        assert a.rmse != b.rmse

    def test_seed_column_uses_label_override(self):
        cfg = tiny_cfg()
        result = run_single(cfg, rep=0, problem=make_problem(cfg), label_seed=9)
        assert result.seed == 9

    def test_history_keys_per_method(self):
        problem = make_problem(tiny_cfg())
        assert set(run_single(tiny_cfg(), problem=problem).history) == {"hf"}
        assert set(run_single(tiny_cfg(method="bftl1"), problem=problem).history) == {"lf", "hf"}
        assert run_single(tiny_cfg(method="gp_only"), problem=problem).history == {}


class TestArtifacts:
    def assert_round_trip(self, result, problem, tmp_path, tol=0.0):
        direct = predict_from_artifact(result.artifact, problem.data_v.inputs)
        path = tmp_path / "model.json"
        save_artifact(path, result.artifact)
        loaded = load_artifact(path)
        reloaded = predict_from_artifact(loaded, problem.data_v.inputs)
        if tol == 0.0:
            np.testing.assert_array_equal(reloaded, direct)
        else:
            np.testing.assert_allclose(reloaded, direct, rtol=tol)

    @pytest.mark.parametrize("method", ["standard_hf", "bftl1", "bftl2", "bfwl"])
    def test_network_artifacts_bitwise_stable(self, method, tmp_path):
        cfg = tiny_cfg(method=method, lf_steps=60, hf_steps=60)
        problem = make_problem(cfg)
        result = run_single(cfg, problem=problem)
        # byte-serialized float64 weights survive JSON exactly
        self.assert_round_trip(result, problem, tmp_path, tol=0.0)

    def test_stacked_artifact_predicts_the_composition(self):
        # identity scalers, so the artifact's output is the raw head-over-base pass
        cfg = tiny_cfg(method="bftl2", lf_steps=60, hf_steps=60, standardize_nn=False)
        problem = make_problem(cfg)
        artifact = run_single(cfg, problem=problem).artifact
        base_spec, head_spec = cfg.network.to_spec(4), cfg.head.to_spec(1)
        base = params_from_bytes(base_spec, base64.b64decode(artifact["base"]["params_b64"]))
        head = params_from_bytes(head_spec, base64.b64decode(artifact["head"]["params_b64"]))
        X = problem.data_v.inputs
        manual = predict_batch(head_spec, head, predict_batch(base_spec, base, X)[:, None])
        np.testing.assert_array_equal(predict_from_artifact(artifact, X), manual)

    @pytest.mark.parametrize("method", ["gp_only", "cokriging"])
    def test_gp_artifacts_round_trip(self, method, tmp_path):
        cfg = tiny_cfg(method=method)
        problem = make_problem(cfg)
        result = run_single(cfg, problem=problem)
        # data matrices pass through JSON decimal text: refit agrees to ~1e-12
        self.assert_round_trip(result, problem, tmp_path, tol=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown model artifact kind"):
            predict_from_artifact({"kind": "mystery", "x_scaler": {"mean": [0], "scale": [1]},
                                   "y_scaler": {"mean": [0], "scale": [1]}}, np.zeros((1, 1)))

    def test_load_artifact_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot load"):
            load_artifact(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="no 'kind' field"):
            load_artifact(bad)


class TestReplication:
    def test_replicate_inits_summary(self):
        cfg = tiny_cfg(lf_steps=60, hf_steps=60)
        results, summary = replicate_inits(cfg, n=5)
        assert len(results) == 5
        assert [r.seed for r in results] == [0, 1, 2, 3, 4]
        rmses = np.array([r.rmse for r in results])
        np.testing.assert_allclose(summary.mean, rmses.mean(), rtol=1e-15)
        np.testing.assert_allclose(summary.sd, rmses.std(ddof=1), rtol=1e-15)
        assert sum(summary.counts) == 5
        assert summary.metadata["mode"] == "init_replicates"
        # shared datasets: replicate variation comes from init/SGD streams only
        assert len(set(rmses)) == 5

    def test_replicate_inits_deterministic(self):
        cfg = tiny_cfg(lf_steps=60, hf_steps=60)
        r1, s1 = replicate_inits(cfg, n=3)
        r2, s2 = replicate_inits(cfg, n=3)
        assert [r.rmse for r in r1] == [r.rmse for r in r2]
        assert s1.mean == s2.mean

    def test_replicate_datasets_varies_splits(self):
        cfg = tiny_cfg(lf_steps=60, hf_steps=60, data=DataConfig(pool_size=80))
        results, summary = replicate_datasets(cfg, n=3)
        assert len({r.rmse for r in results}) == 3
        assert summary.metadata["mode"] == "dataset_replicates"

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = tiny_cfg(lf_steps=60, hf_steps=60)
        monkeypatch.setenv("BIFID_THREADS", "1")
        serial, _ = replicate_inits(cfg, n=4)
        monkeypatch.setenv("BIFID_THREADS", "2")
        parallel, _ = replicate_inits(cfg, n=4)
        assert [r.rmse for r in serial] == [r.rmse for r in parallel]
        assert [r.seed for r in parallel] == [0, 1, 2, 3]

    def test_bad_thread_env_rejected(self, monkeypatch):
        cfg = tiny_cfg(lf_steps=60, hf_steps=60)
        monkeypatch.setenv("BIFID_THREADS", "zero")
        with pytest.raises(ConfigurationError, match="BIFID_THREADS"):
            replicate_inits(cfg, n=2)

    def test_nh_sweep_table(self):
        cfg = tiny_cfg(lf_steps=60, hf_steps=60)
        results, table = nh_sweep(cfg, nh_values=(4, 8), n_seeds=2)
        assert [nh for nh, _ in table] == [4, 8]
        assert len(results) == 4
        by_nh = {nh: [r.rmse for r in results if r.n_h == nh] for nh in (4, 8)}
        np.testing.assert_allclose(table[0][1], np.mean(by_nh[4]), rtol=1e-15)
        np.testing.assert_allclose(table[1][1], np.mean(by_nh[8]), rtol=1e-15)

    def test_nh_sweep_single_value_matches_run_single(self):
        cfg = tiny_cfg(lf_steps=60, hf_steps=60)
        results, table = nh_sweep(cfg, nh_values=(8,), n_seeds=1)
        direct = run_single(replace(cfg, n_h=8))
        assert results[0].rmse == direct.rmse
        assert table == [(8, direct.rmse)]

    def test_nh_sweep_requires_values(self):
        with pytest.raises(ConfigurationError, match="nh_values"):
            nh_sweep(tiny_cfg(), nh_values=())

    def test_compare_methods_rows(self):
        cfg = tiny_cfg(lf_steps=60, hf_steps=60)
        results, rows = compare_methods(cfg, methods=("standard_hf", "bftl1", "gp_only"), n=2)
        assert [row["method"] for row in rows] == ["standard_hf", "bftl1", "gp_only"]
        assert [row["n"] for row in rows] == [2, 2, 1]  # GP family has no init seed
        assert len(results) == 5
        for row in rows:
            assert np.isfinite(row["mean_rmse"])

    def test_log_histogram_counts_and_degenerate_range(self):
        edges, counts = log_histogram([1e-3, 1e-2, 1e-1], n_bins=4)
        assert len(edges) == 5 and sum(counts) == 3
        np.testing.assert_allclose(edges[0], -3.0)
        np.testing.assert_allclose(edges[-1], -1.0)
        edges, counts = log_histogram([1e-2, 1e-2], n_bins=4)
        assert sum(counts) == 2  # identical values still land inside padded bins
        np.testing.assert_allclose(edges[0], -2.5)
        np.testing.assert_allclose(edges[-1], -1.5)


class TestCli:
    def write_config(self, tmp_path, **overrides) -> Path:
        obj = {
            "method": "standard_hf", "master_seed": 11,
            "n_l": 40, "n_h": 8, "n_v": 10,
            "network": {"hidden_widths": [6, 6], "activations": ["elu", "elu"]},
            "head": {"hidden_widths": [4], "activations": ["elu"]},
            "lf_steps": 120, "hf_steps": 120, "loss_stride": 50,
        }
        obj.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return path

    def test_generate_data_writes_csvs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["generate-data", "--config", str(cfg),
                     "--out", str(tmp_path / "data")]) == 0
        loaded = read_csv(tmp_path / "data" / "highfi.csv")
        assert len(loaded) == 8 and loaded.dim == 4
        assert "8" in capsys.readouterr().out

    def test_train_then_evaluate(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        data_dir, run_dir = tmp_path / "data", tmp_path / "run"
        assert main(["generate-data", "--config", str(cfg), "--out", str(data_dir)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "standard_hf rmse" in out
        results = (run_dir / "results.csv").read_text(encoding="utf-8").splitlines()
        assert results[0] == "method,seed,n_l,n_h,n_v,rmse"
        assert results[1].startswith("standard_hf,0,40,8,10,")
        assert (run_dir / "timings.csv").read_text(encoding="utf-8").startswith(
            "method,seed,wall_time_s")

        model = run_dir / "models" / "standard_hf.json"
        eval_dir = tmp_path / "eval"
        assert main(["evaluate", "--model", str(model),
                     "--data", str(data_dir / "validation.csv"),
                     "--out", str(eval_dir), "--format", "json"]) == 0
        payload = json.loads((eval_dir / "evaluation.json").read_text(encoding="utf-8"))
        reported = float(results[1].rsplit(",", 1)[1])
        np.testing.assert_allclose(payload["rmse"], reported, rtol=1e-12)

    def test_method_and_seed_overrides(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--method", "bftl1",
                     "--seed", "3", "--out", str(run_dir)]) == 0
        assert "bftl1 rmse" in capsys.readouterr().out
        assert (run_dir / "models" / "bftl1.json").exists()

    def test_replicate_outputs_and_reruns_byte_identical(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, replication={"mode": "init_replicates", "n": 3})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["replicate", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["replicate", "--config", str(cfg), "--out", str(out_b)]) == 0
        bytes_a = (out_a / "results.csv").read_bytes()
        assert bytes_a == (out_b / "results.csv").read_bytes()
        assert bytes_a.decode("utf-8").count("\n") == 4  # header + one line per replicate
        summary = json.loads((out_a / "summary.json").read_text(encoding="utf-8"))
        assert summary["n"] == 3
        assert (out_a / "histogram.csv").exists()
        assert "mean rmse" in capsys.readouterr().out

    def test_sweep_nh_writes_table(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, replication={"mode": "nh_sweep", "nh_values": [4, 8], "n_seeds": 2})
        out = tmp_path / "sweep"
        assert main(["sweep-nh", "--config", str(cfg), "--out", str(out)]) == 0
        table = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert table[0] == "n_h,mean_rmse"
        assert table[1].startswith("4,") and table[2].startswith("8,")

    def test_compare_writes_reference_footer(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, compare_methods=["standard_hf", "gp_only"],
                                replication={"mode": "single", "n": 2})
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "kind,method,n,mean_rmse,sd_rmse"
        measured = [ln for ln in lines if ln.startswith("measured,")]
        footer = [ln for ln in lines if ln.startswith("published_reference_not_reproduced,")]
        assert len(measured) == 2 and len(footer) == len(REFERENCE_MEANS)
        payload = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        assert "not reproduced" in payload["reference_note"]

    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"method": "nope", "master_seed": 0}), encoding="utf-8")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replicate_errors_exit_2_with_workers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIFID_THREADS", "2")
        data_dir = tmp_path / "data"
        assert main(["generate-data", "--config", str(self.write_config(tmp_path)),
                     "--out", str(data_dir)]) == 0
        hf = read_csv(data_dir / "highfi.csv")
        write_csv(Dataset(hf.inputs[:, :3], hf.outputs), data_dir / "highfi3.csv")
        capsys.readouterr()
        reps = {"mode": "init_replicates", "n": 2}
        cases = [
            # rejected while parsing the config
            ({"n_adapt_layers": 5}, "config.n_adapt_layers: must lie in [1, 2]"),
            # rejected while loading the data, before any worker starts
            ({"data": {"source": "csv", "lf_path": str(data_dir / "lowfi.csv"),
                       "hf_path": str(data_dir / "highfi3.csv"),
                       "val_path": str(data_dir / "validation.csv")}},
             "have 4, 3 and 4 input columns"),
            # raised inside each worker and passed through unchanged (the parser
            # refuses a reversed pair, but not a zero lower bound)
            ({"method": "gp_only", "gp_noise_bounds": [0, 1e-4]},
             "noise lower bound must be positive"),
        ]
        for overrides, message in cases:
            cfg = self.write_config(tmp_path, replication=reps, **overrides)
            assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err, err

    @pytest.mark.parametrize("overrides, message", [
        ({"rho_bounds": [5, -5]}, "config.rho_bounds: lower bound 5.0 exceeds upper bound -5.0"),
        ({"gp_noise_bounds": [1e-4, -1]}, "config.gp_noise_bounds[1]: must be >= 0"),
        ({"beta": float("nan")}, "config.beta: must be finite"),
        ({"lf_eta": float("inf")}, "config.lf_eta: must be finite"),
        ({"beta": 10**400}, "config.beta: must be finite"),
        ({"gp_kernel": {"kind": "rbf", "amplitude": "x"}},
         "config.gp_kernel.amplitude: expected a number"),
        ({"gp_kernel": {"kind": "rbf", "amplitude": True}},
         "config.gp_kernel.amplitude: expected a number"),
    ])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, overrides, message):
        cfg = self.write_config(tmp_path, **overrides)
        for cmd in ("train", "replicate"):
            assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--method", "bogus"], "config.method: 'bogus' is not one of"),
        (["--seed", "-1"], "config.master_seed: must be >= 0"),
    ])
    def test_bad_override_flags_exit_2(self, tmp_path, capsys, flags, message):
        # the flags pass through the same parser as the config file
        cfg = self.write_config(tmp_path)
        for cmd in ("train", "replicate"):
            assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "r"), *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}"), err

    def test_evaluate_rejects_bad_artifacts_and_data(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        saved = json.loads((tmp_path / "run" / "models" / "standard_hf.json").read_text())
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,x3,x4,y\n1,2,3,4,5\n", encoding="utf-8")
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("x1,y\n1,5\n", encoding="utf-8")

        def without(d, *keys):
            d = json.loads(json.dumps(d))
            target = d
            for key in keys[:-1]:
                target = target[key]
            del target[keys[-1]]
            return d

        blob = base64.b64decode(saved["params_b64"])
        cases = [
            (without(saved, "x_scaler"), data, "artifact.x_scaler: required"),
            ({**saved, "x_scaler": "x"}, data, "artifact.x_scaler: expected an object"),
            ({**saved, "params_b64": "not base64!"}, data, "params_b64: not base64"),
            ({**saved, "params_b64": base64.b64encode(blob[:-8]).decode()}, data,
             "params payload has"),
            (without(saved, "arch", "activations"), data,
             "artifact.arch.activations: required"),
            (saved, narrow, "query has shape (1, 1); the model takes 4 input columns"),
            (saved, tmp_path / "missing.csv", f"{tmp_path / 'missing.csv'}: cannot read"),
        ]
        model = tmp_path / "model.json"
        for artifact, csv, message in cases:
            model.write_text(json.dumps(artifact), encoding="utf-8")
            assert main(["evaluate", "--model", str(model), "--data", str(csv)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err, err
        model.write_text(json.dumps(saved), encoding="utf-8")
        assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 0

    def test_evaluate_rejects_malformed_csv(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        model = run_dir / "models" / "standard_hf.json"
        capsys.readouterr()
        good = "x1,x2,x3,x4,y\n1,2,3,4,5\n"
        for body, message in (("1,2,3,5\n", "line 3 has 4 cells, the header has 5"),
                              ("1,2,abc,4,5\n", "line 3 has a non-numeric cell")):
            data = tmp_path / "bad.csv"
            data.write_text(good + body, encoding="utf-8")
            assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"{data}: {message}" in err, err
