"""End-to-end CLI runs on the synthetic dataset."""

import copy
import os

import numpy as np
import pytest
from scipy.sparse import issparse

import gdcn.cli as cli
from gdcn.cli import main
from gdcn.config import load_config
from gdcn.tape import constant

from conftest import CHECKPOINT_VALUE_FAULTS, small_checkpoint, with_float

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def write_config(path, content, cites, outdir, **overrides):
    model = {
        "hidden_dims": "16",
        "regularizer": "gdc",
        "learned": "true",
        "estimator": "concrete",
        "n_blocks": "1,2",
    }
    train = {
        "epochs": "25",
        "lr": "0.02",
        "l2_factor": "0.0001",
        "warmup_ramp": "10",
        "patience": "25",
        "seeds": "0,1",
    }
    data = {"per_class_train": "2", "n_val": "4", "n_test": "6"}
    sweep = {}
    for key, val in overrides.items():
        section, name = key.split(".")
        {"data": data, "model": model, "train": train,
         "sweep": sweep}[section][name] = val
    lines = ["[data]", f"content = {content}", f"cites = {cites}"]
    lines += [f"{k} = {v}" for k, v in data.items()]
    lines += ["", "[model]"]
    lines += [f"{k} = {v}" for k, v in model.items()]
    lines += ["", "[train]"]
    lines += [f"{k} = {v}" for k, v in train.items()]
    if sweep:
        lines += ["", "[sweep]"]
        lines += [f"{k} = {v}" for k, v in sweep.items()]
    lines += ["", "[output]", f"dir = {outdir}", ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    return str(path)


@pytest.fixture
def config(tmp_path, synthetic_files):
    content, cites = synthetic_files
    out = tmp_path / "out"
    return write_config(tmp_path / "run.ini", content, cites, out), str(out)


class TestConfigErrors:
    def test_missing_config_exit_2(self, capsys):
        rc = main(["train", "--config", "/nonexistent/run.ini"])
        assert rc == 2
        assert "/nonexistent/run.ini" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, synthetic_files, capsys):
        content, cites = synthetic_files
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[data]\ncontent = {content}\ncites = {cites}\n"
                       "[model]\nhiden_dims = 16\n", encoding="utf-8")
        rc = main(["train", "--config", str(cfg)])
        assert rc == 2
        assert "hiden_dims" in capsys.readouterr().err

    def test_learned_without_estimator_exit_2(self, tmp_path, synthetic_files,
                                              capsys):
        content, cites = synthetic_files
        cfg = write_config(tmp_path / "bad.ini", content, cites,
                           tmp_path / "o", **{"model.estimator": "none"})
        rc = main(["train", "--config", cfg])
        assert rc == 2

    def test_unknown_regularizer_exit_2(self, tmp_path, synthetic_files,
                                        capsys):
        content, cites = synthetic_files
        cfg = write_config(tmp_path / "bad.ini", content, cites,
                           tmp_path / "o", **{"model.regularizer": "Dropout"})
        rc = main(["train", "--config", cfg])
        assert rc == 2
        assert ("model.regularizer: unknown kind 'Dropout'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("which", [0, 1])
    def test_invalid_utf8_input_exit_2(self, tmp_path, synthetic_files,
                                       capsys, which):
        paths = []
        for i, src in enumerate(synthetic_files):
            data = open(src, "rb").read()
            if i == which:
                data = data[:40] + b"\xff" + data[40:]
            paths.append(tmp_path / os.path.basename(src))
            paths[-1].write_bytes(data)
        cfg = write_config(tmp_path / "run.ini", *paths, tmp_path / "o")
        rc = main(["train", "--config", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[which]}: not valid UTF-8")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["per_class_train", "n_val", "n_test"])
    def test_split_size_zero_exit_2(self, tmp_path, synthetic_files, capsys,
                                    key):
        # An empty split would train on no loss, select on no validation
        # accuracy or report a NaN test accuracy.
        content, cites = synthetic_files
        cfg = write_config(tmp_path / "bad.ini", content, cites,
                           tmp_path / "o", **{f"data.{key}": "0"})
        rc = main(["train", "--config", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {key} must be at least 1, got 0\n"
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("overrides, message", [
        ({"model.keep_prob": "1.5"}, "keep_prob must lie in [0, 1]"),
        ({"model.dropout_keep": "2"}, "dropout_keep must lie in [0, 1]"),
        ({"model.dropout_keep": "abc"},
         "model.dropout_keep: expected a number"),
        ({"model.n_blocks": "0"}, "n_blocks must be >= 1"),
        ({"model.regularizer": "dropout"},
         "learned keep probabilities apply to edge masks (dropedge/gdc) only"),
        ({"model.temperature": "0"}, "relaxed masks require temperature > 0"),
        ({"model.estimator": "reinforce"}, "unknown estimator 'reinforce'"),
        ({"model.learned": "false"},
         "an estimator is needed exactly when a layer learns its drop rate"),
        # Only GDC splits its features into blocks: any other kind would
        # train one block whatever the count says.
        ({"model.regularizer": "dropedge"},
         "block counts [1, 2] need model.regularizer = gdc, got dropedge"),
        ({"model.regularizer": "dropout", "model.learned": "false",
          "model.estimator": "none", "model.keep_prob": "0.5",
          "model.n_blocks": "4"},
         "block counts [4, 4] need model.regularizer = gdc, got dropout"),
    ])
    def test_invalid_model_value_exit_2(self, tmp_path, synthetic_files,
                                        capsys, overrides, message):
        # The base config learns GDC drop rates with the concrete estimator.
        content, cites = synthetic_files
        cfg = write_config(tmp_path / "bad.ini", content, cites,
                           tmp_path / "o", **overrides)
        rc = main(["train", "--config", cfg])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("flag", ["symmetric", "protect_self_loops"])
    def test_edge_flag_on_dropout_exit_2(self, tmp_path, synthetic_files,
                                         capsys, flag):
        # DropOut masks never read the flag: the run would equal one
        # without it.
        content, cites = synthetic_files
        cfg = write_config(tmp_path / "bad.ini", content, cites,
                           tmp_path / "o", **{
                               "model.regularizer": "dropout",
                               "model.keep_prob": "0.5",
                               "model.learned": "false",
                               "model.estimator": "none",
                               f"model.{flag}": "true"})
        rc = main(["train", "--config", cfg])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {flag} applies to dropedge/gdc masks only, got dropout\n")
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", "0", "train.epochs must be at least 1, got 0"),
        ("epochs", "-3", "train.epochs must be at least 1, got -3"),
        ("warmup_ramp", "-4", "train.warmup_ramp must be >= 0, got -4"),
    ])
    def test_invalid_train_value_exit_2(self, tmp_path, synthetic_files,
                                        capsys, key, value, message):
        content, cites = synthetic_files
        cfg = write_config(tmp_path / "bad.ini", content, cites,
                           tmp_path / "o", **{f"train.{key}": value})
        rc = main(["train", "--config", cfg])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(tmp_path / "o")

    # Each once ended in a traceback or trained on a value outside its
    # domain; ``16,,16`` read as ``16,16``.
    @pytest.mark.parametrize("key, value, message", [
        ("train.lr", "nan", "train.lr: expected a finite number, got 'nan'"),
        ("train.lr", "inf", "train.lr: expected a finite number, got 'inf'"),
        ("train.l2_factor", "nan",
         "train.l2_factor: expected a finite number, got 'nan'"),
        ("train.l2_factor", "-1", "l2_factor must be non-negative, got -1.0"),
        ("train.seeds", "-1", "train.seeds must be non-negative, got [-1]"),
        ("model.beta_prior_c", "0", "beta_prior_c must be > 0, got 0.0"),
        ("model.beta_prior_c", "nan",
         "model.beta_prior_c: expected a finite number, got 'nan'"),
        ("model.kuma_init_b", "0", "kuma_init_b must be > 0, got 0.0"),
        ("model.kuma_init_b", "nan",
         "model.kuma_init_b: expected a finite number, got 'nan'"),
        ("model.kuma_init_b", "1e308",
         "kuma_init_b 1e+308 puts the median initial keep draw on its "
         "clamp, where it has no gradient"),
        ("model.kuma_init_b", "1e-308",
         "kuma_init_b 1e-308 puts the median initial keep draw on its "
         "clamp, where it has no gradient"),
        ("model.temperature", "nan",
         "model.temperature: expected a finite number, got 'nan'"),
        ("model.hidden_dims", "16,,16",
         "model.hidden_dims: expected comma-separated integers, "
         "got '16,,16'"),
    ])
    def test_invalid_number_exit_2(self, tmp_path, synthetic_files, capsys,
                                   key, value, message):
        content, cites = synthetic_files
        cfg = write_config(tmp_path / "bad.ini", content, cites,
                           tmp_path / "o", **{key: value})
        rc = main(["train", "--config", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert key.split(".")[1] in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "o")

    def test_empty_list_value_is_empty(self, tmp_path, synthetic_files):
        content, cites = synthetic_files
        cfg = load_config(write_config(tmp_path / "run.ini", content, cites,
                                       tmp_path / "o",
                                       **{"sweep.blocks": " "}))
        assert cfg.sweep_blocks == []

    def test_non_ascii_feature_exit_2(self, tmp_path, synthetic_files,
                                      capsys):
        content, cites = synthetic_files
        lines = open(content, encoding="utf-8").read().split("\n")
        fields = lines[1].split("\t")
        fields[1] = "\u0661"  # Arabic-Indic one; float() reads it as 1.0
        lines[1] = "\t".join(fields)
        bad = tmp_path / os.path.basename(content)
        bad.write_text("\n".join(lines), encoding="utf-8")
        cfg = write_config(tmp_path / "run.ini", bad, cites, tmp_path / "o")
        rc = main(["train", "--config", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: non-numeric feature")
        assert "Traceback" not in err


class TestFlags:
    @pytest.mark.parametrize("command, value, message", [
        ("uq", "0", "must be at least 1, got 0"),
        ("eval", "-1", "must be at least 0, got -1"),
        ("eval", "five", "expected an integer, got 'five'"),
    ])
    def test_samples_out_of_range_exit_2(self, config, capsys, command,
                                         value, message):
        cfg, _ = config
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--checkpoint", "c.bin",
                  "--samples", value])
        assert exc.value.code == 2
        assert f"--samples: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "uq", "diagnose",
                                         "sweep-blocks"])
    def test_negative_seed_override_exit_2(self, config, capsys, command):
        # numpy's generators take no negative seed
        cfg, _ = config
        checkpoint = ["--checkpoint", "c.bin"] if command in ("eval",
                                                             "uq") else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--seed-override", "-1"]
                 + checkpoint)
        assert exc.value.code == 2
        assert ("--seed-override: must be at least 0, got -1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["train", "diagnose", "sweep-blocks"])
    def test_samples_only_where_read(self, config, capsys, command):
        cfg, _ = config
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--samples", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, output", [
        ("sweep-blocks", {"sweep.blocks": "1,2"}, "block_sweep.csv"),
        ("diagnose", {"sweep.depths": "2,3"}, "depth_sweep.csv"),
    ])
    def test_sweeps_take_the_seed_override(self, tmp_path, synthetic_files,
                                           command, section, output):
        # A sweep run with --seed-override 1 is the run whose config lists
        # seed 1 alone; with seeds 0 and 1 it would average both.
        content, cites = synthetic_files
        base = {"train.epochs": "4", "train.patience": "4", **section}
        runs = {}
        for name, seeds, extra in (("override", "0,1", ["--seed-override",
                                                        "1"]),
                                   ("config", "1", []),
                                   ("other", "1", ["--seed-override", "2"])):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.ini", content, cites, out,
                               **base, **{"train.seeds": seeds})
            assert main([command, "--config", cfg] + extra) == 0
            runs[name] = (out / output).read_bytes()
        assert runs["override"] == runs["config"]
        assert runs["other"] != runs["config"]


class TestTrain:
    # Each once ended in a traceback (train.lr = 1e6: ZeroDivisionError in
    # kuma_mean) or exited 0 after three non-finite epochs (l2_factor).
    # lr = 1e39 takes a weight outside float32's range in one Adam step.
    @pytest.mark.parametrize("overrides, message", [
        ({"train.lr": "1e6"}, "gives no positive finite (a, b) (epoch 0)"),
        ({"train.l2_factor": "1e308"},
         "non-finite loss for 3 consecutive epochs (epoch 2)"),
        ({"train.lr": "1e39", "model.regularizer": "dropout",
          "model.learned": "false", "model.estimator": "none",
          "model.n_blocks": "1"},
         "layer 0: a weight left float32's range (epoch 0)"),
    ])
    def test_large_value_diverges_exit_3(self, tmp_path, synthetic_files,
                                         capsys, overrides, message):
        content, cites = synthetic_files
        cfg = write_config(tmp_path / "run.ini", content, cites,
                           tmp_path / "o", **{"train.epochs": "3",
                                              "train.seeds": "0",
                                              **overrides})
        assert main(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("training diverged: ") and message in err
        assert "Traceback" not in err

    def test_artifacts_and_summary(self, config, capsys):
        cfg, out = config
        assert main(["train", "--config", cfg]) == 0
        printed = capsys.readouterr().out
        assert "+/-" in printed
        summary = open(os.path.join(out, "summary.csv")).read().splitlines()
        assert summary[0] == "seed,best_val_acc,test_acc,stop_reason"
        assert len(summary) == 3
        for seed in (0, 1):
            assert os.path.exists(os.path.join(out, f"epochs_seed{seed}.csv"))
            assert os.path.exists(os.path.join(out, f"ckpt_seed{seed}.bin"))
        assert os.path.exists(os.path.join(out, "config_resolved.ini"))

    def test_summary_stop_reason(self, tmp_path, synthetic_files):
        content, cites = synthetic_files
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "run.ini", content, cites, out,
                           **{"train.epochs": "3", "train.patience": "3"})
        assert main(["train", "--config", cfg]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0", "1"]
        for row in rows[1:]:
            assert row.split(",")[-1] in ("max_epochs", "patience")

    def test_deterministic_rerun_bitwise(self, config):
        cfg, out = config
        assert main(["train", "--config", cfg]) == 0
        first = open(os.path.join(out, "summary.csv"), "rb").read()
        assert main(["train", "--config", cfg]) == 0
        second = open(os.path.join(out, "summary.csv"), "rb").read()
        assert first == second

    def test_rerun_from_resolved_config(self, config, tmp_path):
        cfg, out = config
        assert main(["train", "--config", cfg]) == 0
        first = open(os.path.join(out, "summary.csv"), "rb").read()
        resolved = os.path.join(out, "config_resolved.ini")
        out2 = str(tmp_path / "out2")
        assert main(["train", "--config", resolved, "--out", out2]) == 0
        second = open(os.path.join(out2, "summary.csv"), "rb").read()
        assert first == second

    def test_seed_override_single_row(self, config):
        cfg, out = config
        assert main(["train", "--config", cfg, "--seed-override", "7"]) == 0
        rows = open(os.path.join(out, "summary.csv")).read().splitlines()
        assert len(rows) == 2 and rows[1].startswith("7,")


class TestEvalUq:
    @pytest.fixture
    def trained(self, config):
        cfg, out = config
        assert main(["train", "--config", cfg]) == 0
        return cfg, out, os.path.join(out, "ckpt_seed0.bin")

    def test_eval_zero_samples_is_deterministic_only(self, trained):
        cfg, out, ckpt = trained
        assert main(["eval", "--config", cfg, "--checkpoint", ckpt,
                     "--samples", "0"]) == 0
        rows = open(os.path.join(out, "eval.csv")).read().splitlines()
        assert [r.split(",")[0] for r in rows] == ["mode", "deterministic"]

    def test_eval_writes_accuracies(self, trained, capsys):
        cfg, out, ckpt = trained
        assert main(["eval", "--config", cfg, "--checkpoint", ckpt,
                     "--samples", "5"]) == 0
        rows = open(os.path.join(out, "eval.csv")).read().splitlines()
        assert rows[0] == "mode,accuracy"
        assert len(rows) == 3

    def test_uq_files_and_frac_one_equals_accuracy(self, trained):
        cfg, out, ckpt = trained
        assert main(["uq", "--config", cfg, "--checkpoint", ckpt,
                     "--samples", "10"]) == 0
        rows = open(os.path.join(out, "pavpu.csv")).read().splitlines()
        assert rows[0] == "threshold_frac,pavpu,p_acc_given_cert,p_cert_given_inacc"
        assert len(rows) == 7  # fracs 0.5 .. 1.0
        ent = open(os.path.join(out, "entropy.csv")).read().splitlines()[1:]
        correct = np.array([int(r.split(",")[2]) for r in ent])
        last = rows[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(correct.mean())

    def test_train_and_uq_on_raw_features(self, tmp_path, synthetic_files):
        # Without row normalization the features stay the loader's bools.
        content, cites = synthetic_files
        out = tmp_path / "raw"
        cfg = write_config(tmp_path / "raw.ini", content, cites, out,
                           **{"data.row_normalize": "false"})
        assert main(["train", "--config", cfg]) == 0
        assert main(["uq", "--config", cfg, "--checkpoint",
                     str(out / "ckpt_seed0.bin"), "--samples", "5"]) == 0
        assert (out / "pavpu.csv").exists()

    def test_uq_dim_mismatch_exit_2(self, trained, tmp_path, synthetic_files,
                                    capsys):
        cfg, out, ckpt = trained
        content, cites = synthetic_files
        other = write_config(tmp_path / "other.ini", content, cites,
                             tmp_path / "o2", **{"model.hidden_dims": "8"})
        rc = main(["uq", "--config", other, "--checkpoint", ckpt])
        assert rc == 2
        assert "dims" in capsys.readouterr().err


    def test_eval_keep_prob_mismatch_exit_2(self, tmp_path, synthetic_files,
                                            capsys):
        content, cites = synthetic_files
        fixed = {"model.regularizer": "dropout", "model.learned": "false",
                 "model.estimator": "none", "model.n_blocks": "1",
                 "train.epochs": "1", "train.seeds": "0"}
        trained = write_config(tmp_path / "a.ini", content, cites,
                               tmp_path / "a", **fixed,
                               **{"model.keep_prob": "0.5"})
        assert main(["train", "--config", trained]) == 0
        other = write_config(tmp_path / "b.ini", content, cites,
                             tmp_path / "b", **fixed,
                             **{"model.keep_prob": "0.8"})
        rc = main(["eval", "--config", other, "--checkpoint",
                   str(tmp_path / "a" / "ckpt_seed0.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "keep probability 0.5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw, message", [
        (b"GDCN\x01\x00", "truncated"),
        (None, "cannot read checkpoint"),
    ])
    def test_eval_bad_checkpoint_exit_2(self, config, tmp_path, capsys, raw,
                                        message):
        cfg, _ = config
        ckpt = tmp_path / "model.bin"
        if raw is not None:
            ckpt.write_bytes(raw)
        rc = main(["eval", "--config", cfg, "--checkpoint", str(ckpt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("offset, value, message", CHECKPOINT_VALUE_FAULTS)
    def test_eval_bad_checkpoint_value_exit_2(self, config, tmp_path, capsys,
                                              offset, value, message):
        cfg, _ = config
        ckpt = tmp_path / "model.bin"
        ckpt.write_bytes(with_float(small_checkpoint(tmp_path), offset, value))
        rc = main(["eval", "--config", cfg, "--checkpoint", str(ckpt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestFeatureInput:
    """``eval``, ``uq`` and ``diagnose`` hand the model the dataset's CSR
    features, and get what the dense features give."""

    @pytest.mark.parametrize("normalize", ["true", "false"])
    def test_commands_pass_csr_features(self, tmp_path, synthetic_files,
                                        monkeypatch, normalize):
        content, cites = synthetic_files
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "run.ini", content, cites, out,
                           **{"data.row_normalize": normalize,
                              "train.epochs": "3", "train.seeds": "0"})
        assert main(["train", "--config", cfg]) == 0
        ckpt = str(out / "ckpt_seed0.bin")
        real = {"forward_deterministic": cli.forward_deterministic,
                "predict_mc": cli.predict_mc}
        calls = []

        def spy(name):
            def wrapper(params, x, graph, config, *args, **kwargs):
                state = [copy.deepcopy(a.bit_generator.state) for a in args
                         if isinstance(a, np.random.Generator)]
                res = real[name](params, x, graph, config, *args, **kwargs)
                calls.append((name, params, x, graph, config, args, kwargs,
                              state, res))
                return res
            return wrapper

        for name in real:
            monkeypatch.setattr(cli, name, spy(name))
        for command in (["eval", "--samples", "3"], ["uq", "--samples", "3"],
                        ["diagnose"]):
            assert main(command + ["--config", cfg, "--checkpoint",
                                   ckpt]) == 0
        assert [c[0] for c in calls] == ["forward_deterministic",
                                         "predict_mc", "predict_mc",
                                         "forward_deterministic"]
        ds, _ = cli._load_dataset(load_config(cfg))
        dense = constant(ds.features)
        for name, params, x, graph, config, args, kwargs, state, res in calls:
            assert issparse(x.data)
            if state:
                rng = np.random.default_rng()
                rng.bit_generator.state = state[0]
                args = args[:-1] + (rng,)
            want = real[name](params, dense, graph, config, *args, **kwargs)
            got_arrays, want_arrays = _arrays(res), _arrays(want)
            assert len(got_arrays) == len(want_arrays) > 0
            for a, b in zip(got_arrays, want_arrays):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _arrays(result) -> list:
    """The arrays of a model call's result (a Tensor, an array, or a tuple
    or list of them), in order."""
    if isinstance(result, (tuple, list)):
        return [a for r in result for a in _arrays(r)]
    return [result if isinstance(result, np.ndarray) else result.data]


class TestDiagnose:
    def test_tracking_mode_tracks_all_hidden_layers(self, tmp_path,
                                                    synthetic_files):
        content, cites = synthetic_files
        out = str(tmp_path / "diag")
        cfg = write_config(tmp_path / "diag.ini", content, cites, out,
                           **{"model.hidden_dims": "12,12",
                              "model.n_blocks": "1,2,2",
                              "train.epochs": "6",
                              "train.seeds": "0"})
        assert main(["diagnose", "--config", cfg]) == 0
        rows = open(os.path.join(out, "tv.csv")).read().splitlines()
        assert rows[0] == "epoch,layer,tv_normalized"
        body = [r.split(",") for r in rows[1:]]
        # 6 epochs x 2 hidden layers
        assert len(body) == 12
        for epoch in range(6):
            layers = sorted(int(r[1]) for r in body if int(r[0]) == epoch)
            assert layers == [0, 1]

    def test_single_shot_with_checkpoint(self, config):
        cfg, out = config
        assert main(["train", "--config", cfg]) == 0
        ckpt = os.path.join(out, "ckpt_seed0.bin")
        assert main(["diagnose", "--config", cfg, "--checkpoint", ckpt]) == 0
        rows = open(os.path.join(out, "tv.csv")).read().splitlines()
        assert len(rows) == 2  # one hidden layer

    def test_depth_sweep_rows(self, tmp_path, synthetic_files):
        content, cites = synthetic_files
        out = str(tmp_path / "depth")
        cfg = write_config(tmp_path / "depth.ini", content, cites, out,
                           **{"train.epochs": "5", "train.seeds": "0",
                              "model.n_blocks": "1,2",
                              "sweep.depths": "2,3"})
        assert main(["diagnose", "--config", cfg]) == 0
        rows = open(os.path.join(out, "depth_sweep.csv")).read().splitlines()
        assert rows[0] == "depth,mean_acc,std_acc"
        assert len(rows) == 3
        assert rows[1].startswith("2,") and rows[2].startswith("3,")


    def test_graph_without_edges_exit_2(self, tmp_path, synthetic_files,
                                        capsys):
        content, _ = synthetic_files
        cites = tmp_path / "self.cites"
        cites.write_text("n0\tn0\n", encoding="utf-8")  # dropped
        out = tmp_path / "diag"
        cfg = write_config(tmp_path / "diag.ini", content, cites, out,
                           **{"train.epochs": "2", "train.seeds": "0"})
        rc = main(["diagnose", "--config", cfg])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {cites}: the graph has no edge; total variation needs "
            f"at least one\n")
        assert not os.path.exists(out)

    def test_config_error_exit_2_creates_nothing(self, tmp_path,
                                                 synthetic_files, capsys):
        content, cites = synthetic_files
        out = tmp_path / "diag"
        cfg = write_config(tmp_path / "diag.ini", content, cites, out,
                           **{"train.epochs": "0"})
        rc = main(["diagnose", "--config", cfg])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: train.epochs must be at least 1, got 0\n")
        assert not os.path.exists(out)

    def test_shallow_sweep_depth_exit_2_before_training(
            self, tmp_path, synthetic_files, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr("gdcn.cli.train", no_training)
        monkeypatch.setattr("gdcn.cli.run_seeds", no_training)
        content, cites = synthetic_files
        out = tmp_path / "diag"
        cfg = write_config(tmp_path / "diag.ini", content, cites, out,
                           **{"train.seeds": "0", "sweep.depths": "2,1"})
        rc = main(["diagnose", "--config", cfg])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: sweep.depths entries must be >= 2 layers\n")
        assert not os.path.exists(out)


class TestSweepBlocks:
    def test_one_row_per_setting(self, tmp_path, synthetic_files, capsys):
        content, cites = synthetic_files
        out = str(tmp_path / "blocks")
        cfg = write_config(tmp_path / "blocks.ini", content, cites, out,
                           **{"train.epochs": "5", "train.seeds": "0",
                              "sweep.blocks": "1,2,4"})
        assert main(["sweep-blocks", "--config", cfg]) == 0
        rows = open(os.path.join(out, "block_sweep.csv")).read().splitlines()
        assert rows[0] == "n_blocks,mean_acc,std_acc"
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "4"]

    def test_other_kind_exit_2_before_training(self, tmp_path,
                                               synthetic_files, capsys,
                                               monkeypatch):
        # DropOut draws one mask whatever the block count: the sweep would
        # write identical rows under different labels.
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr("gdcn.cli.run_seeds", no_training)
        content, cites = synthetic_files
        out = tmp_path / "blocks"
        cfg = write_config(tmp_path / "blocks.ini", content, cites, out,
                           **{"model.regularizer": "dropout",
                              "model.learned": "false",
                              "model.estimator": "none",
                              "model.keep_prob": "0.5",
                              "model.n_blocks": "1",
                              "sweep.blocks": "1,2,4"})
        rc = main(["sweep-blocks", "--config", cfg])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: block counts [1, 2] need model.regularizer = gdc, "
            "got dropout\n")
        assert not os.path.exists(out)

    def test_requires_sweep_section(self, config, capsys):
        cfg, out = config
        rc = main(["sweep-blocks", "--config", cfg])
        assert rc == 2

    def test_config_error_exit_2_creates_nothing(self, tmp_path,
                                                 synthetic_files, capsys):
        content, cites = synthetic_files
        out = tmp_path / "blocks"
        cfg = write_config(tmp_path / "blocks.ini", content, cites, out,
                           **{"train.warmup_ramp": "-4",
                              "sweep.blocks": "1,2"})
        rc = main(["sweep-blocks", "--config", cfg])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: train.warmup_ramp must be >= 0, got -4\n")
        assert not os.path.exists(out)
