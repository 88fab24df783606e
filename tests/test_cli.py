"""Command-line pipeline: artifacts, manifests, overrides, exit codes."""

import hashlib
import json
import os

import numpy as np
import pytest

import sixgan
import sixgan.cli as cli
from sixgan.addr import load_alias_file, load_seed_file, parse_prefix
from sixgan.classify import read_labels_file
from sixgan.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
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


class TestExitCodes:
    def test_missing_seeds_file(self, tmp_path):
        assert main(["classify", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"n_seedz": 10})
        assert main(["synth", "--config", cfg,
                     "--out", str(tmp_path)]) == EXIT_CONFIG

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
