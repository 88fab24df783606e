"""Command-line pipeline: artifacts, manifests, overrides, exit codes."""

import hashlib
import inspect
import json
import os
import pathlib
import re
import shutil

import numpy as np
import pytest
from _oracles import bank_tensors

import sixgan
import sixgan.cli as cli
from sixgan.addr import load_alias_file, load_seed_file, parse_prefix
from sixgan.classify import read_labels_file
from sixgan.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from sixgan.gan import train_6gan
from sixgan.nn import DivergenceError, load_checkpoint, save_checkpoint

UNIVERSE = {
    "hash_key": 1234,
    "families": [
        {"name": "low", "pattern": "Low-byte",
         "prefixes": ["2001:db8:1::/48"], "density": 0.6},
        {"name": "ieee", "pattern": "IEEE-derived",
         "prefixes": ["2001:db8:2::/48"], "density": 0.6},
        {"name": "pat", "pattern": "Pattern-bytes",
         "prefixes": ["2001:db8:3::/48"], "density": 0.6},
    ],
    "aliased_prefixes": ["2001:db8:ff::/48"],
}


def tiny_config(out_dir, extra=None):
    cfg = {
        "seed": 0,
        "n_seeds": 240,
        "budget": 60,
        "seeds_file": os.path.join(out_dir, "seeds.txt"),
        "alias_file": os.path.join(out_dir, "aliased_prefixes.txt"),
        "reward": {"rollouts": 3},
        "schedule": {
            "g_pretrain": 8, "d_pretrain": 2, "g_steps": 2, "d_steps": 1,
            "adversarial_rounds": 2, "batch_size": 16,
        },
        "nn": {"embed_dim": 24, "hidden_dim": 24, "n_filters": 6,
               "lr_gen": 1e-3, "lr_disc": 1e-4},
    }
    if extra:
        cfg.update(extra)
    return cfg


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return str(path)


def run_pipeline(root, out_name="out"):
    out = root / out_name
    out.mkdir()
    spec = write_json(root / f"spec_{out_name}.json", UNIVERSE)
    cfg_path = write_json(root / f"config_{out_name}.json", tiny_config(str(out)))
    base = ["--config", cfg_path, "--out", str(out)]
    assert main(["synth", *base, "--spec", spec]) == EXIT_OK
    assert main(["classify", *base]) == EXIT_OK
    assert main(["train", *base]) == EXIT_OK
    assert main(["generate", *base]) == EXIT_OK
    assert main(["evaluate", *base, "--spec", spec,
                 str(out / "candidates.txt")]) == EXIT_OK
    assert main(["alias-check", *base, str(out / "candidates.txt")]) == EXIT_OK
    gold_cfg = write_json(root / f"gold_{out_name}.json",
                          tiny_config(str(out),
                                      {"gold_labels_file": str(out / "labels.tsv")}))
    assert main(["discriminate", "--config", gold_cfg, "--out", str(out),
                 str(out / "seeds.txt")]) == EXIT_OK
    return out, spec


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out, spec = run_pipeline(root)
    return {"root": root, "out": out, "spec": spec}


class TestPipelineArtifacts:
    def test_synth_outputs(self, pipeline):
        out = pipeline["out"]
        seeds = load_seed_file(str(out / "seeds.txt"))
        assert len(seeds) == 240
        assert len({s.nybbles for s in seeds}) == 240
        aliased = load_alias_file(str(out / "aliased_prefixes.txt"))
        assert aliased == [parse_prefix("2001:db8:ff::/48")]
        universe = json.loads((out / "universe.json").read_text())
        assert universe["hash_key"] == 1234

    def test_labels_format_and_coverage(self, pipeline):
        out = pipeline["out"]
        lines = (out / "labels.tsv").read_text().splitlines()
        assert len(lines) == 240
        for line in lines:
            addr, method, class_id, class_name = line.split("\t")
            assert method == "RfcBased"
            assert class_id.isdigit()
            assert class_name
        corpus = read_labels_file(str(out / "labels.tsv"))
        assert corpus.k == 3
        assert all(len(idx) > 0 for idx in corpus.class_index)

    def test_train_outputs(self, pipeline):
        out = pipeline["out"]
        for i in range(3):
            assert (out / f"generator_{i:02d}.ckpt").exists()
        assert (out / "discriminator.ckpt").exists()
        records = [json.loads(l) for l in
                   (out / "train_log.jsonl").read_text().splitlines()]
        kinds = [r["kind"] for r in records]
        assert kinds.count("g_pretrain") == 8 * 3
        assert kinds.count("d_pretrain") == 2
        assert kinds.count("g_step") == 2 * 2 * 3
        assert kinds.count("d_step") == 2

    def test_generate_outputs(self, pipeline):
        out = pipeline["out"]
        merged = load_seed_file(str(out / "candidates.txt"))
        assert len(merged) <= 60
        assert len({c.nybbles for c in merged}) == len(merged)
        seeds = {s.nybbles for s in load_seed_file(str(out / "seeds.txt"))}
        assert not seeds & {c.nybbles for c in merged}
        parts = []
        for i in range(3):
            part = load_seed_file(str(out / f"candidates_pattern_{i:02d}.txt"))
            assert len(part) == 20
            parts.extend(part)
        assert {c.nybbles for c in merged} <= {p.nybbles for p in parts}

    def test_evaluate_report(self, pipeline):
        out = pipeline["out"]
        report = json.loads((out / "report.json").read_text())
        for key in ("n_candidates", "hit_rate", "generation_rate",
                    "aliased_pct", "diversity", "loss"):
            assert key in report
        assert report["n_candidates"] == len(
            load_seed_file(str(out / "candidates.txt")))
        assert (out / "report.csv").read_text().count("\n") == 2

    def test_discriminate_scores_and_confusion(self, pipeline):
        out = pipeline["out"]
        lines = (out / "scores.tsv").read_text().splitlines()
        assert lines[0].startswith("# address\tpredicted")
        assert len(lines) == 1 + 240
        for line in lines[1:]:
            cols = line.split("\t")
            assert len(cols) == 2 + 4  # address, prediction, k+1 class columns
            probs = [float(c) for c in cols[2:]]
            assert sum(probs) == pytest.approx(1.0, abs=1e-5)
        doc = json.loads((out / "confusion.json").read_text())
        assert 0.0 <= doc["accuracy"] <= 1.0
        matrix = doc["confusion"]
        assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
        assert sum(sum(row) for row in matrix) == 240

    def test_alias_check_partition(self, pipeline):
        out = pipeline["out"]
        kept = load_seed_file(str(out / "kept.txt"))
        removed = load_seed_file(str(out / "removed.txt"))
        merged = load_seed_file(str(out / "candidates.txt"))
        assert len(kept) + len(removed) == len(merged)
        aliased = parse_prefix("2001:db8:ff::/48")
        assert all(aliased.matches(r) for r in removed)
        assert not any(aliased.matches(k) for k in kept)

    def test_manifests(self, pipeline):
        out, spec = pipeline["out"], pipeline["spec"]
        for cmd in ("synth", "classify", "train", "generate",
                    "evaluate", "discriminate", "alias-check"):
            doc = json.loads((out / f"manifest_{cmd}.json").read_text())
            assert doc["command"] == cmd
            assert set(doc) == {"command", "config", "inputs", "outputs", "versions"}
            assert doc["versions"] == {"sixgan": sixgan.__version__, "numpy": np.__version__}
            for digest in {**doc["inputs"], **doc["outputs"]}.values():
                assert len(digest) == 64 and int(digest, 16) >= 0
        synth = json.loads((out / "manifest_synth.json").read_text())
        expected = hashlib.sha256(open(spec, "rb").read()).hexdigest()
        assert synth["inputs"][os.path.basename(spec)] == expected
        assert os.path.basename(str(out / "seeds.txt")) in synth["outputs"]

    def test_rerun_is_byte_identical(self, pipeline):
        out2, _ = run_pipeline(pipeline["root"], out_name="again")
        out = pipeline["out"]
        names = ["seeds.txt", "aliased_prefixes.txt", "labels.tsv",
                 "discriminator.ckpt", "candidates.txt", "train_log.jsonl",
                 "kept.txt", "removed.txt", "scores.tsv"]
        names += [f"generator_{i:02d}.ckpt" for i in range(3)]
        for name in names:
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def refused_checkpoint(pipeline, tmp_path, capsys, name, tensors):
    """Replace checkpoint name in a copy of the trained --out with tensors,
    run the command that reads it, and return its stderr: one `invalid
    input` line, with exit 2 and every file in --out unchanged."""
    out = tmp_path / "out"
    out.mkdir()
    for kept in ["labels.tsv", "discriminator.ckpt", "generator_00.ckpt", "generator_01.ckpt",
                 "generator_02.ckpt"]:
        shutil.copy(pipeline["out"] / kept, out / kept)
    save_checkpoint(str(out / name), tensors)
    before = snapshot(out)
    if name == "discriminator.ckpt":
        argv = ["discriminate", "--out", str(out), str(pipeline["out"] / "seeds.txt")]
    else:
        argv = ["generate", "--out", str(out), "--budget", "6"]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1, err
    assert snapshot(out) == before
    return err


class TestAtomicWrites:
    @pytest.mark.parametrize("command, failing", [("synth", "aliased_prefixes.txt"),
                                                  ("discriminate", "scores.tsv"),
                                                  ("discriminate", "confusion.json")])
    def test_write_failing_part_way_keeps_previous_file(self, pipeline, tmp_path, disk_full_on,
                                                        command, failing):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("discriminator.ckpt", "labels.tsv"):
            shutil.copy(pipeline["out"] / name, out / name)
        cfg = write_json(tmp_path / "c.json", {"gold_labels_file": str(out / "labels.tsv")})
        argv = {"synth": ["synth", "--spec", pipeline["spec"]],
                "discriminate": ["discriminate", str(pipeline["out"] / "seeds.txt")]}[command]
        argv += ["--config", cfg, "--out", str(out)]
        assert main(argv) == EXIT_OK
        before = snapshot(out)
        disk_full_on(failing)
        with pytest.raises(OSError, match="disk full"):
            main([*argv, "--seed", "1"])
        assert (out / failing).read_bytes() == before[failing]
        assert set(snapshot(out)) == set(before)


class TestOverrides:
    def test_env_overrides_config(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        spec = write_json(tmp_path / "spec.json", UNIVERSE)
        cfg = write_json(tmp_path / "config.json", tiny_config(str(out)))
        monkeypatch.setenv("SIXGAN_N_SEEDS", "50")
        assert main(["synth", "--config", cfg, "--out", str(out),
                     "--spec", spec]) == EXIT_OK
        assert len(load_seed_file(str(out / "seeds.txt"))) == 50
        manifest = json.loads((out / "manifest_synth.json").read_text())
        assert manifest["config"]["n_seeds"] == 50

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        spec = write_json(tmp_path / "spec.json", UNIVERSE)
        monkeypatch.setenv("SIXGAN_SEED", "5")
        assert main(["synth", "--spec", spec, "--out", str(out),
                     "--seed", "9"]) == EXIT_OK
        manifest = json.loads((out / "manifest_synth.json").read_text())
        assert manifest["config"]["seed"] == 9

    def test_nested_env_key(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        spec = write_json(tmp_path / "spec.json", UNIVERSE)
        monkeypatch.setenv("SIXGAN_SCHEDULE_BATCH_SIZE", "8")
        assert main(["synth", "--spec", spec, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest_synth.json").read_text())
        assert manifest["config"]["schedule"]["batch_size"] == 8

    def test_float_key_takes_integer_and_optional_key_takes_null(self, tmp_path, monkeypatch):
        spec = write_json(tmp_path / "spec.json", UNIVERSE)
        monkeypatch.setenv("SIXGAN_REWARD_LAM", "10")
        monkeypatch.setenv("SIXGAN_K", "null")
        assert main(["synth", "--spec", spec, "--out", str(tmp_path)]) == EXIT_OK
        config = json.loads((tmp_path / "manifest_synth.json").read_text())["config"]
        assert config["reward"]["lam"] == 10 and config["k"] is None

    @pytest.mark.parametrize("command, env, raw, key", [
        ("synth", "SIXGAN_N_SEEDS", "null", "n_seeds"),
        ("generate", "SIXGAN_BUDGET", "null", "budget"),
        ("train", "SIXGAN_REWARD_ALPHA", "null", "reward.alpha"),
        ("synth", "SIXGAN_N_SEEDS", "2.7", "n_seeds"),
        ("train", "SIXGAN_SCHEDULE_BATCH_SIZE", "2.5", "schedule.batch_size"),
        ("generate", "SIXGAN_BUDGET", "10.9", "budget"),
        ("generate", "SIXGAN_RATES", "5", "rates"),
        ("generate", "SIXGAN_RATES", '[1, "a"]', "rates"),
        ("train", "SIXGAN_NN_EMBED_DIM", "x", "nn.embed_dim"),
        ("synth", "SIXGAN_SEED", "true", "seed"),
    ])
    def test_malformed_value_names_key(self, pipeline, tmp_path, monkeypatch, capsys,
                                       command, env, raw, key):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = write_json(tmp_path / "config.json", tiny_config(str(out)))
        spec = ["--spec", pipeline["spec"]] if command == "synth" else []
        monkeypatch.setenv(env, raw)
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(out), *spec]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key {key} must be ")
        assert err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


    @pytest.mark.parametrize("command, env, raw, flags, key, bound", [
        ("synth", "SIXGAN_N_SEEDS", "-5", [], "n_seeds", ">= 1, got -5"),
        ("synth", "SIXGAN_N_SEEDS", "0", [], "n_seeds", ">= 1, got 0"),
        ("generate", "SIXGAN_BUDGET", "-1", [], "budget", ">= 0, got -1"),
        ("generate", None, None, ["--budget", "-3"], "budget", ">= 0, got -3"),
        ("classify", None, None, ["--method", "entropy", "--k", "0"], "k", ">= 1, got 0"),
        ("classify", "SIXGAN_K", "-2", [], "k", ">= 1, got -2"),
        ("classify", "SIXGAN_MIN_GROUP", "-1", [], "min_group", ">= 1, got -1"),
        ("classify", "SIXGAN_MIN_GROUP", "0", [], "min_group", ">= 1, got 0"),
        ("classify", "SIXGAN_FP_PREFIX_LEN", "0", [], "fp_prefix_len", "in [1, 32], got 0"),
        ("classify", "SIXGAN_FP_PREFIX_LEN", "33", [], "fp_prefix_len", "in [1, 32], got 33"),
    ])
    def test_out_of_range_value_names_key(self, pipeline, tmp_path, monkeypatch, capsys,
                                          command, env, raw, flags, key, bound):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = write_json(tmp_path / "config.json", tiny_config(str(out)))
        spec = ["--spec", pipeline["spec"]] if command == "synth" else []
        if env:
            monkeypatch.setenv(env, raw)
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(out), *spec, *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: config key {key} must be {bound}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("key, value", [("n_seeds", 1), ("budget", 0), ("k", 1),
                                            ("min_group", 1), ("fp_prefix_len", 1),
                                            ("fp_prefix_len", 32)])
    def test_range_limits_are_inclusive(self, tmp_path, key, value):
        cfg = write_json(tmp_path / "config.json", {key: value})
        args = cli.build_parser().parse_args(["synth", "--config", cfg])
        assert cli.resolve_config(args, environ={})[key] == value

    def test_string_key_takes_raw_environment_value(self, pipeline, tmp_path, monkeypatch):
        # "123" is valid JSON, but a file key is a string: the file named 123
        shutil.copy(pipeline["out"] / "seeds.txt", tmp_path / "123")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SIXGAN_SEEDS_FILE", "123")
        monkeypatch.setenv("SIXGAN_OUT_DIR", "007")
        assert main(["classify"]) == EXIT_OK
        manifest = json.loads((tmp_path / "007" / "manifest_classify.json").read_text())
        assert manifest["config"]["seeds_file"] == "123"
        assert manifest["config"]["out_dir"] == "007"
        assert manifest["inputs"] == {"123": cli._sha256(str(tmp_path / "123"))}

    def test_manifest_write_failing_part_way_keeps_previous(self, tmp_path, monkeypatch):
        spec = write_json(tmp_path / "spec.json", UNIVERSE)
        args = ["synth", "--spec", spec, "--out", str(tmp_path / "out")]
        assert main(args) == EXIT_OK
        manifest = tmp_path / "out" / "manifest_synth.json"
        before = manifest.read_bytes()

        real_dump = json.dump

        def dump_half(doc, fh, **kwargs):  # fails only on the manifest, part-way
            if "command" not in doc:
                return real_dump(doc, fh, **kwargs)
            fh.write(json.dumps(doc, **kwargs)[:40])
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", dump_half)
        with pytest.raises(OSError, match="disk full"):
            main([*args, "--seed", "1"])
        assert manifest.read_bytes() == before
        assert sorted(p.name for p in manifest.parent.iterdir()) == [
            "aliased_prefixes.txt", "manifest_synth.json", "seeds.txt", "universe.json"]


class TestDefaults:
    def test_nn_defaults_are_train_6gan_defaults(self):
        params = inspect.signature(train_6gan).parameters
        assert cli.DEFAULTS["nn"] == {key: params[key].default for key in cli.DEFAULTS["nn"]}
        assert set(cli.DEFAULTS["nn"]) == {
            key for key, p in params.items() if p.default not in (p.empty, None)
        }

    def test_readme_lists_every_key_with_its_default(self):
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
        section = section.split("\n## ")[0]
        rows = dict(re.findall(r"^\| `([\w.]+)` \| ([^|]*?) \|", section, re.M))
        flat = {}
        for key, val in cli.DEFAULTS.items():
            if isinstance(val, dict):
                flat.update({f"{key}.{sub}": v for sub, v in val.items()})
            else:
                flat[key] = val
        assert set(rows) == set(flat)
        for key, val in flat.items():
            if type(val) in (int, float):
                assert float(rows[key]) == val, key
            elif type(val) is str:
                assert rows[key] == f"`{val}`", key


class TestExitCodes:
    def test_main_runs_the_command_found_on_the_module(self, tmp_path, monkeypatch):
        # main looks the command up when it runs, so one replaced on the
        # module (as a tracer does) is the one called
        written = tmp_path / "x.txt"
        written.write_text("x\n")
        calls = []

        def fake(cfg, args):
            calls.append(args.addresses)
            return [], [str(written)]

        monkeypatch.setattr(cli, "cmd_alias_check", fake)
        assert main(["alias-check", "--out", str(tmp_path), "addrs.txt"]) == EXIT_OK
        assert calls == ["addrs.txt"]
        manifest = json.loads((tmp_path / "manifest_alias-check.json").read_text())
        assert manifest["inputs"] == {}
        assert manifest["outputs"] == {"x.txt": hashlib.sha256(b"x\n").hexdigest()}

    def test_missing_seeds_file(self, tmp_path):
        assert main(["classify", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"n_seedz": 10})
        assert main(["synth", "--config", cfg,
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_config_file_not_an_object(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", [1, 2])
        capsys.readouterr()
        assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config file {cfg} must hold a JSON object\n"

    def test_unknown_nested_key(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"schedule": {"warmup": 5}})
        assert main(["synth", "--config", cfg,
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_entropy_method_requires_k(self, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("2001:db8::1\n2001:db8::2\n")
        cfg = write_json(tmp_path / "c.json", {"seeds_file": str(seeds)})
        assert main(["classify", "--config", cfg, "--method", "entropy",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_bad_rates_string(self, tmp_path):
        assert main(["generate", "--rates", "a,b",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_candidates_file(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", UNIVERSE)
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("2001:db8::1\n")
        cfg = write_json(tmp_path / "c.json", {"seeds_file": str(seeds)})
        assert main(["evaluate", "--config", cfg, "--spec", spec,
                     "--out", str(tmp_path),
                     str(tmp_path / "nope.txt")]) == EXIT_CONFIG

    def test_divergence_exit_code(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        spec = write_json(tmp_path / "spec.json", UNIVERSE)
        cfg = write_json(tmp_path / "config.json", tiny_config(str(out)))
        base = ["--config", cfg, "--out", str(out)]
        assert main(["synth", *base, "--spec", spec]) == EXIT_OK
        assert main(["classify", *base]) == EXIT_OK
        capsys.readouterr()

        # diverges before the first checkpoint: nothing of this run is on disk
        def blow_up(*args, **kwargs):
            raise DivergenceError("non-finite values in lstm logits")

        monkeypatch.setattr(cli, "train_6gan", blow_up)
        assert main(["train", *base]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "non-finite values in lstm logits" in err
        assert "no checkpoint was written" in err
        assert "retained" not in err
        assert not (out / "generator_00.ckpt").exists()
        assert (out / "train_log.jsonl").read_text() == ""

        # diverges after a checkpoint: that one is named, and the log,
        # already on disk while training runs, holds every record up to it
        monkeypatch.undo()
        real_train = cli.train_6gan
        k = read_labels_file(str(out / "labels.tsv")).k
        schedule = tiny_config(str(out))["schedule"]
        pretrain_kinds = ["g_pretrain"] * (k * schedule["g_pretrain"])
        pretrain_kinds += ["d_pretrain"] * schedule["d_pretrain"]
        round_kinds = ["g_step"] * (k * schedule["g_steps"]) + ["d_step"] * schedule["d_steps"]

        def logged_kinds():
            lines = (out / "train_log.jsonl").read_text().splitlines()
            return [json.loads(line)["kind"] for line in lines]

        for fail_round, when, kinds in (
            (-1, "pretraining", pretrain_kinds),
            (0, "adversarial round 0", pretrain_kinds + round_kinds),
        ):
            logged_while_training = []

            def diverge_after(*args, on_round, **kwargs):
                def save_then_fail(rnd, gens, disc):
                    on_round(rnd, gens, disc)
                    if rnd == fail_round:
                        logged_while_training.extend(logged_kinds())
                        raise DivergenceError("non-finite values in lstm logits")

                return real_train(*args, on_round=save_then_fail, **kwargs)

            monkeypatch.setattr(cli, "train_6gan", diverge_after)
            assert main(["train", *base]) == EXIT_DIVERGED
            err = capsys.readouterr().err
            assert f"last finite checkpoint retained in {out}: after {when}" in err
            assert "no checkpoint was written" not in err
            assert (out / "generator_00.ckpt").exists()
            assert (out / "discriminator.ckpt").exists()
            assert logged_while_training == kinds
            assert logged_kinds() == kinds

    def test_non_finite_checkpoint_is_malformed_input(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        tensors = load_checkpoint(str(pipeline["out"] / "generator_00.ckpt"))
        tensors["w_out"][0, 0] = np.inf
        save_checkpoint(str(out / "generator_00.ckpt"), tensors)
        capsys.readouterr()
        assert main(["generate", "--out", str(out), "--budget", "5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "malformed value in generate input: non-finite values in lstm logits" in err
        assert "training diverged" not in err
        assert not (out / "candidates.txt").exists()

    def test_generate_rejects_gap_in_generator_numbering(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("generator_00.ckpt", "generator_02.ckpt"):
            (out / name).write_bytes((pipeline["out"] / name).read_bytes())
        capsys.readouterr()
        assert main(["generate", "--out", str(out)]) == EXIT_CONFIG
        assert "missing generator_01.ckpt" in capsys.readouterr().err
        assert not (out / "candidates.txt").exists()

    def test_generate_finds_generators_past_64(self, pipeline, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        tensors = load_checkpoint(str(pipeline["out"] / "generator_00.ckpt"))
        for i in range(66):
            tensors["meta_pattern_id"] = np.array([float(i)])
            save_checkpoint(str(out / f"generator_{i:02d}.ckpt"), tensors)
        assert main(["generate", "--out", str(out), "--budget", "66"]) == EXIT_OK
        assert len(load_seed_file(str(out / "candidates_pattern_65.txt"))) == 1

    def test_bad_seed_line_is_malformed_input(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("2001:db8::1\nnot-an-address\n")
        cfg = write_json(tmp_path / "c.json", {"seeds_file": str(seeds)})
        capsys.readouterr()
        assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"invalid input: {seeds}:2: " in capsys.readouterr().err
        assert not (tmp_path / "labels.tsv").exists()

    def test_garbage_generator_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "generator_00.ckpt"
        path.write_bytes(b"not a checkpoint")
        capsys.readouterr()
        assert main(["generate", "--out", str(tmp_path), "--budget", "5"]) == EXIT_CONFIG
        assert f"invalid input: {path}: bad checkpoint magic" in capsys.readouterr().err
        assert not (tmp_path / "candidates.txt").exists()

    def test_truncated_generator_checkpoint(self, pipeline, tmp_path, capsys):
        path = tmp_path / "generator_00.ckpt"
        path.write_bytes((pipeline["out"] / "generator_00.ckpt").read_bytes()[:30])
        capsys.readouterr()
        assert main(["generate", "--out", str(tmp_path), "--budget", "5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {path}: truncated ")
        assert err.count("\n") == 1
        assert not (tmp_path / "candidates.txt").exists()

    def test_four_bank_generator_checkpoint(self, pipeline, tmp_path, capsys):
        # the layout with one tensor per gate bank, which generators no longer read
        tensors = load_checkpoint(str(pipeline["out"] / "generator_00.ckpt"))
        h = tensors["w_out"].shape[0]
        w_gates, b_gates = tensors.pop("w_gates"), tensors.pop("b_gates")
        for k, gate in enumerate("ifog"):
            tensors[f"w_{gate}"] = w_gates[:, k * h:(k + 1) * h]
            tensors[f"b_{gate}"] = b_gates[k * h:(k + 1) * h]
        path = tmp_path / "generator_00.ckpt"
        save_checkpoint(str(path), tensors)
        capsys.readouterr()
        assert main(["generate", "--out", str(tmp_path), "--budget", "5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"invalid input: {path}: missing tensor w_gates, b_gates" in err
        assert not (tmp_path / "candidates.txt").exists()

    def test_per_bank_discriminator_checkpoint(self, pipeline, tmp_path, capsys):
        # the layout with one tensor per conv bank, which discriminate no longer reads
        tensors = load_checkpoint(str(pipeline["out"] / "discriminator.ckpt"))
        per_bank = {**bank_tensors(tensors), "meta_k": tensors["meta_k"]}
        assert len(per_bank) == 40
        err = refused_checkpoint(pipeline, tmp_path, capsys, "discriminator.ckpt", per_bank)
        assert err.endswith("discriminator.ckpt: missing tensor conv_w, conv_b\n")

    @pytest.mark.parametrize("name, tensor, shape, why", [
        ("discriminator.ckpt", "emb", (3, 24), "tensor emb has shape (3, 24), expected (17, 24)"),
        ("discriminator.ckpt", "conv_b", (1,), "tensor conv_b has shape (1,), expected (16, 6)"),
        ("generator_01.ckpt", "b_out", (1,), "tensor b_out has shape (1,), expected (16,)"),
        ("generator_01.ckpt", "emb", (3, 24), "tensor emb has shape (3, 24), expected (17, 24)"),
    ])
    def test_checkpoint_tensor_of_wrong_shape(self, pipeline, tmp_path, capsys, name, tensor,
                                              shape, why):
        tensors = load_checkpoint(str(pipeline["out"] / name))
        tensors[tensor] = np.zeros(shape)
        err = refused_checkpoint(pipeline, tmp_path, capsys, name, tensors)
        assert err.endswith(f"{name}: {why}\n")

    @pytest.mark.parametrize("name, meta", [("discriminator.ckpt", "meta_k"),
                                            ("generator_01.ckpt", "meta_pattern_id")])
    @pytest.mark.parametrize("value, got", [([], "0 values"), ([np.inf], "inf"),
                                            ([np.nan], "nan"), ([1.5], "1.5"),
                                            ([1.0, 1.0], "2 values")])
    def test_checkpoint_meta_not_one_finite_integer(self, pipeline, tmp_path, capsys, name,
                                                    meta, value, got):
        tensors = load_checkpoint(str(pipeline["out"] / name))
        tensors[meta] = np.array(value)
        err = refused_checkpoint(pipeline, tmp_path, capsys, name, tensors)
        assert err.endswith(f"{name}: tensor {meta} must hold one finite integer, got {got}\n")

    def test_three_field_labels_file(self, tmp_path, capsys):
        labels = tmp_path / "labels.tsv"
        labels.write_text("2001:db8::1\trfc\t0\n")
        capsys.readouterr()
        assert main(["train", "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"invalid input: {labels}:1: expected 4 tab-separated fields" in err

    @pytest.mark.parametrize("line, why", [
        ("2001:zz8::1\trfc\t0\tlow", "'2001:zz8::1': invalid character 'z' at position 5"),
        ("2001:db8::2\trfc\tx\tlow", "invalid literal for int() with base 10: 'x'"),
    ])
    def test_bad_labels_line_names_file_and_line(self, tmp_path, capsys, line, why):
        labels = tmp_path / "labels.tsv"
        labels.write_text(f"2001:db8::1\trfc\t0\tlow\n{line}\n")
        capsys.readouterr()
        assert main(["train", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"invalid input: {labels}:2: {why}\n"

    def test_zero_rollouts(self, pipeline, tmp_path, monkeypatch, capsys):
        (tmp_path / "labels.tsv").write_bytes((pipeline["out"] / "labels.tsv").read_bytes())
        monkeypatch.setenv("SIXGAN_REWARD_ROLLOUTS", "0")
        capsys.readouterr()
        assert main(["train", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "invalid input: alpha, lambda must be >= 0 and rollouts >= 1" in capsys.readouterr().err
        assert not (tmp_path / "generator_00.ckpt").exists()
