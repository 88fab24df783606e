"""Command-line pipeline: artifacts, manifests, overrides, exit codes."""

import dataclasses
import hashlib
import inspect
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from _oracles import bank_tensors, row_scatter_ipv62vec_embed

import sixgan
import sixgan.classify as classify
import sixgan.cli as cli
from sixgan.addr import load_alias_file, load_seed_file, parse_prefix
from sixgan.classify import read_labels_file
from sixgan.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from sixgan.gan import DiscriminatorModel, Generators, NetConfig, train_6gan
from sixgan.nn import DivergenceError, LstmParams, load_checkpoint, save_checkpoint

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
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        versions = {"sixgan": sixgan.__version__, "numpy": np.__version__,
                    "blas": blas["name"], "blas_version": blas["version"],
                    **{var: "not applied" if var in sixgan.BLAS_VARS_NOT_APPLIED
                       else os.environ[var] for var in sixgan.BLAS_THREAD_VARS}}
        for cmd in ("synth", "classify", "train", "generate",
                    "evaluate", "discriminate", "alias-check"):
            doc = json.loads((out / f"manifest_{cmd}.json").read_text())
            assert doc["command"] == cmd
            assert set(doc) == {"command", "config", "inputs", "outputs", "versions"}
            assert doc["versions"] == versions
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


# one family per pattern under /32, /48 and /64 prefixes, one aliased /52
PINNED_UNIVERSE = {
    "hash_key": 1234,
    "families": [
        {"name": "v4", "pattern": "Embedded-IPv4",
         "prefixes": ["2001:db8:1::/48", "2001:db8:7::/64"], "density": 0.6},
        {"name": "port", "pattern": "Embedded-port",
         "prefixes": ["2001:db8:2::/48"], "density": 0.9},
        {"name": "ieee", "pattern": "IEEE-derived",
         "prefixes": ["2001:db8:3::/48"], "density": 0.6},
        {"name": "low", "pattern": "Low-byte",
         "prefixes": ["2001:db8:4::/48"], "density": 0.6},
        {"name": "pat", "pattern": "Pattern-bytes",
         "prefixes": ["2001:db8:5::/48"], "density": 0.6},
        {"name": "rand", "pattern": "Randomized",
         "prefixes": ["2001:db9::/32"], "density": 0.6},
    ],
    "aliased_prefixes": ["2001:db8:1:f000::/52"],
}


class TestPinnedSeedBytes:
    """`synth` and `classify --method rfc` write the same bytes from one
    version to the next.  Both are integer and hash code only, so the
    digests do not depend on the CPU or the BLAS build."""

    SEEDS_SHA256 = "ab7125f98d58f8106cc5236145848e127547f50cdd298741743cd8a1c8b05850"
    LABELS_SHA256 = "2fc8159958d0664642d313d23e3511472270f541a423a9f1c47106e74ec547e5"

    def test_seeds_and_rfc_labels_digests(self, tmp_path):
        out = tmp_path / "out"
        spec = write_json(tmp_path / "spec.json", PINNED_UNIVERSE)
        cfg = write_json(tmp_path / "config.json",
                         {"seed": 3, "n_seeds": 300, "seeds_file": str(out / "seeds.txt")})
        base = ["--config", cfg, "--out", str(out)]
        assert main(["synth", *base, "--spec", spec]) == EXIT_OK
        assert main(["classify", *base, "--method", "rfc"]) == EXIT_OK
        names = {line.split("\t")[3] for line in (out / "labels.tsv").read_text().splitlines()}
        assert len(names) == 6
        digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                  for name in ("seeds.txt", "labels.tsv")}
        assert digest == {"seeds.txt": self.SEEDS_SHA256, "labels.tsv": self.LABELS_SHA256}


class TestIpv62vecAtWorkloadScale:
    """`classify --method ipv62vec` on the pinned universe's 250 seeds at the
    default dim 100, the size of the benchmark's classify workload."""

    K = 6

    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ipv62vec")
        spec = write_json(root / "spec.json", PINNED_UNIVERSE)
        cfg = write_json(root / "config.json",
                         {"seed": 3, "n_seeds": 250, "seeds_file": str(root / "seeds.txt")})
        assert main(["synth", "--config", cfg, "--out", str(root), "--spec", spec]) == EXIT_OK
        return root, cfg

    def test_labels_match_row_form(self, config, monkeypatch):
        seeds = load_seed_file(str(config[0] / "seeds.txt"))
        assert len(seeds) == 250
        got = classify.classify_ipv62vec(seeds, target_k=self.K, seed=3)
        monkeypatch.setattr(classify, "ipv62vec_embed", row_scatter_ipv62vec_embed)
        want = classify.classify_ipv62vec(seeds, target_k=self.K, seed=3)
        assert got.labels == want.labels
        assert len({lab.class_id for lab in got.labels}) > 1

    def test_rerun_writes_same_labels(self, config):
        root, cfg = config
        labels = []
        for name in ("first", "second"):
            argv = ["classify", "--config", cfg, "--out", str(root / name),
                    "--method", "ipv62vec", "--k", str(self.K)]
            assert main(argv) == EXIT_OK
            labels.append((root / name / "labels.tsv").read_bytes())
        assert labels[0] == labels[1]
        assert len(labels[0].splitlines()) == 250


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# the walkthrough's commands with the entropy labels, whose prefix groups
# are held in dicts keyed by address bytes
_HASH_SEED_COMMANDS = [
    ["synth", "--spec", "universe.json"],
    ["classify", "--method", "entropy", "--k", "3"],
    ["train"],
    ["generate"],
    ["alias-check", "out/candidates.txt"],
    ["evaluate", "--spec", "universe.json", "out/candidates.txt"],
]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # an address's set and dict key is bytes, whose hash differs from one
    # process to the next, so no output may follow such a set's order
    src = pathlib.Path(sixgan.__file__).resolve().parent.parent
    code = ("import json, sys\nfrom sixgan.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if main(argv + ['--config', 'config.json', '--out', 'out']):\n"
            "        sys.exit(f'{argv[0]} failed')\n")
    trees = []
    for hash_seed in ("0", "1"):
        run = tmp_path / hash_seed
        run.mkdir()
        write_json(run / "universe.json", UNIVERSE)
        write_json(run / "config.json", tiny_config("out", {"fp_prefix_len": 12}))
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code, json.dumps(_HASH_SEED_COMMANDS)], cwd=run,
                       env=env, check=True, capture_output=True)
        trees.append(snapshot(run / "out"))
    assert {"labels.tsv", "candidates.txt", "kept.txt", "report.json"} <= trees[0].keys()
    assert trees[0].keys() == trees[1].keys()
    assert [f for f in trees[0] if trees[0][f] != trees[1][f]] == []


def test_train_bytes_do_not_depend_on_blas_thread_variables(pipeline, tmp_path):
    # a threaded BLAS can sum a product in another order; unless the caller
    # sets a thread count, sixgan sets one thread before NumPy loads, so
    # `train` at the default widths writes the same files with the
    # variables unset as with them at 1
    src = pathlib.Path(sixgan.__file__).resolve().parent.parent
    schedule = {"g_pretrain": 2, "d_pretrain": 1, "g_steps": 1, "d_steps": 1,
                "adversarial_rounds": 1, "batch_size": 16}
    trees = []
    for name, threads in (("unset", None), ("one", "1")):
        out = tmp_path / name / "out"
        out.mkdir(parents=True)
        for kept in ("labels.tsv", "aliased_prefixes.txt"):
            shutil.copy(pipeline["out"] / kept, out / kept)
        write_json(tmp_path / name / "config.json", {
            "alias_file": "out/aliased_prefixes.txt", "reward": {"rollouts": 2},
            "schedule": schedule})
        env = {k: v for k, v in os.environ.items() if k not in sixgan.BLAS_THREAD_VARS}
        if threads is not None:
            env.update(dict.fromkeys(sixgan.BLAS_THREAD_VARS, threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "sixgan.cli", "train", "--config", "config.json",
                        "--out", "out"], cwd=tmp_path / name, env=env, check=True,
                       capture_output=True)
        trees.append(snapshot(out))
    assert trees[0].keys() == trees[1].keys()
    assert [f for f in trees[0] if trees[0][f] != trees[1][f]] == []


@pytest.mark.parametrize("first, threads, recorded", [
    ("sixgan", None, "1"), ("numpy", None, "not applied"), ("numpy", "2", "2")])
def test_manifest_thread_settings_follow_import_order(first, threads, recorded):
    # BLAS reads the thread variables once, when NumPy loads: the ones sixgan
    # sets apply only if it loads first, and the manifest records which did;
    # a variable the caller set before the process started applies either way
    src = pathlib.Path(sixgan.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k not in sixgan.BLAS_THREAD_VARS}
    if threads is not None:
        env.update(dict.fromkeys(sixgan.BLAS_THREAD_VARS, threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = f"import {first}, json, sixgan.cli; print(json.dumps(sixgan.cli._versions()))"
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    versions = json.loads(done.stdout)
    assert {var: versions[var] for var in sixgan.BLAS_THREAD_VARS} == dict.fromkeys(
        sixgan.BLAS_THREAD_VARS, recorded)


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
    def test_nn_defaults_are_net_config_defaults(self):
        assert cli.DEFAULTS["nn"] == dataclasses.asdict(NetConfig())
        # train_6gan takes the whole section, and the optimisers' default
        # rates are NetConfig's
        net = inspect.signature(train_6gan).parameters["net"]
        assert net.annotation in (NetConfig, "NetConfig") and net.default is net.empty
        assert Generators.__dataclass_fields__["opt"].default_factory().lr == NetConfig.lr_gen
        assert (DiscriminatorModel.__dataclass_fields__["opt"].default_factory().lr
                == NetConfig.lr_disc)

    @staticmethod
    def readme_key_table():
        """(key, default) of each row of the table in README "Configuration"."""
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
        lines = [line for line in section.split("\n## ")[0].splitlines() if line.startswith("|")]
        assert lines[:2] == ["| key | default | meaning |", "|---|---|---|"]
        return [tuple(cell.strip() for cell in line.split("|")[1:3]) for line in lines[2:]]

    @staticmethod
    def flat_defaults():
        """cli.DEFAULTS with each section's keys written as section.key."""
        flat = {}
        for key, val in cli.DEFAULTS.items():
            if isinstance(val, dict):
                flat.update({f"{key}.{sub}": v for sub, v in val.items()})
            else:
                flat[key] = val
        return flat

    def test_readme_key_table_is_exactly_the_config_keys(self):
        # every row names one key, once: a key added, renamed or dropped on
        # either side fails here
        keys = [key for key, _ in self.readme_key_table()]
        assert all(re.fullmatch(r"`[a-z_]+(\.[a-z_]+)?`", key) for key in keys), keys
        assert sorted(key.strip("`") for key in keys) == sorted(self.flat_defaults())

    def test_readme_lists_every_key_with_its_default(self):
        rows = {key.strip("`"): default for key, default in self.readme_key_table()}
        flat = self.flat_defaults()
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
        assert capsys.readouterr().err == (
            f"config error: config file {cfg} must be a JSON object, got [1, 2]\n")

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

    def test_non_finite_later_generator_writes_nothing(self, pipeline, tmp_path, capsys):
        # every generator samples before the first candidates file is written
        out = tmp_path / "out"
        out.mkdir()
        for i in range(3):
            tensors = load_checkpoint(str(pipeline["out"] / f"generator_{i:02d}.ckpt"))
            if i == 2:
                tensors["w_out"][0, 0] = np.inf
            save_checkpoint(str(out / f"generator_{i:02d}.ckpt"), tensors)
        before = snapshot(out)
        capsys.readouterr()
        assert main(["generate", "--out", str(out), "--budget", "6"]) == EXIT_CONFIG
        assert "malformed value in generate input" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_generate_rejects_gap_in_generator_numbering(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("generator_00.ckpt", "generator_02.ckpt"):
            (out / name).write_bytes((pipeline["out"] / name).read_bytes())
        capsys.readouterr()
        assert main(["generate", "--out", str(out)]) == EXIT_CONFIG
        assert "missing generator_01.ckpt" in capsys.readouterr().err
        assert not (out / "candidates.txt").exists()

    def test_generate_rejects_generators_of_other_widths(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(pipeline["out"] / "generator_00.ckpt", out / "generator_00.ckpt")
        narrow = LstmParams.init(np.random.default_rng(0), embed_dim=8, hidden_dim=8)
        save_checkpoint(str(out / "generator_01.ckpt"),
                        {**narrow.tensors(), "meta_pattern_id": np.array([1.0])})
        before = snapshot(out)
        capsys.readouterr()
        assert main(["generate", "--out", str(out), "--budget", "4"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"config error: {out / 'generator_01.ckpt'} holds a generator of other "
                       f"widths than {out / 'generator_00.ckpt'}\n")
        assert snapshot(out) == before

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

    def test_gold_labels_lacking_addresses_write_nothing(self, pipeline, tmp_path, capsys):
        # the gold labels are checked before scores.tsv is written
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(pipeline["out"] / "discriminator.ckpt", out / "discriminator.ckpt")
        gold = tmp_path / "gold.tsv"
        gold.write_text("".join((pipeline["out"] / "labels.tsv").read_text().splitlines(True)[:5]))
        cfg = write_json(tmp_path / "c.json", {"gold_labels_file": str(gold)})
        before = snapshot(out)
        capsys.readouterr()
        assert main(["discriminate", "--config", cfg, "--out", str(out),
                     str(pipeline["out"] / "seeds.txt")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: 235 addresses missing from gold labels\n"
        assert snapshot(out) == before
        assert not (out / "scores.tsv").exists()
        assert not (out / "manifest_discriminate.json").exists()

    @pytest.mark.parametrize("command", ["synth", "evaluate"])
    @pytest.mark.parametrize("spec, why", [
        pytest.param([1, 2], "universe spec must be a JSON object, got [1, 2]", id="list"),
        pytest.param({}, "universe spec lacks key hash_key", id="empty"),
        pytest.param({"hash_key": 1}, "universe spec lacks key families", id="no-families"),
        pytest.param({**UNIVERSE, "hash_key": None},
                     "universe spec key hash_key must be an integer, got null",
                     id="null-hash-key"),
        pytest.param({**UNIVERSE, "hash_key": -1},
                     "universe spec key hash_key must be in [0, 2^128), got -1",
                     id="negative-hash-key"),
        pytest.param({**UNIVERSE, "families": [{"name": "low", "pattern": "Low-byte",
                                                "prefixes": ["2001:db8:1::/48"]}]},
                     "universe spec lacks key families[0].density", id="no-density"),
        pytest.param({**UNIVERSE, "families": [UNIVERSE["families"][0],
                                               {**UNIVERSE["families"][1], "density": "0.6"}]},
                     'universe spec key families[1].density must be a finite number, got "0.6"',
                     id="string-density"),
        pytest.param({**UNIVERSE, "families": {"low": 1}},
                     'universe spec key families must be a list of objects, got {"low": 1}',
                     id="families-object"),
        pytest.param({**UNIVERSE, "aliased_prefixes": "2001:db8:ff::/48"},
                     "universe spec key aliased_prefixes must be a list of strings, "
                     'got "2001:db8:ff::/48"', id="aliased-string"),
        pytest.param({**UNIVERSE, "families": [UNIVERSE["families"][0],
                                               {**UNIVERSE["families"][1],
                                                "prefixes": ["2001:db8:1::/64"]}]},
                     "family prefixes overlap: 2001:db8:1::/48 (low) and 2001:db8:1::/64 (ieee)",
                     id="overlapping-prefixes"),
    ])
    def test_malformed_universe_spec(self, tmp_path, capsys, command, spec, why):
        spec_path = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "out"
        argv = [command, "--spec", spec_path, "--out", str(out)]
        if command == "evaluate":
            seeds = tmp_path / "seeds.txt"
            seeds.write_text("2001:db8:1::1\n")
            argv += ["--config", write_json(tmp_path / "c.json", {"seeds_file": str(seeds)}),
                     str(seeds)]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"invalid input: {spec_path}: {why}\n"
        assert not out.exists()

    def test_synth_empty_families(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "spec.json", {**UNIVERSE, "families": []})
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["synth", "--spec", spec_path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "invalid input: universe spec families is empty: no family to sample seeds from\n")
        assert not out.exists()

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
        assert capsys.readouterr().err == (
            "config error: config key reward.rollouts must be >= 1, got 0\n")
        assert not (tmp_path / "generator_00.ckpt").exists()


# ---------------------------------------------------------------------------
# Exit 2 leaves --out as it was: every exit-2 case of README "Exit codes",
# run through each command it applies to.
# ---------------------------------------------------------------------------

# the arguments each command takes after --config and --out; {p} is the
# trained walkthrough's out, {t} the case's own directory
_ARGS = {"synth": ["--spec", "{spec}"], "classify": [], "train": [], "generate": [],
         "evaluate": ["--spec", "{spec}", "{p}/candidates.txt"],
         "discriminate": ["{p}/seeds.txt"], "alias-check": ["{p}/candidates.txt"]}


def _ckpt(name, change):
    """An edit of checkpoint name in --out: change(tensors) alters its tensors."""
    def edit(out):
        tensors = load_checkpoint(str(out / name))
        change(tensors)
        save_checkpoint(str(out / name), tensors)
    return edit


def _narrow_generator(out):
    narrow = LstmParams.init(np.random.default_rng(0), embed_dim=8, hidden_dim=8)
    save_checkpoint(str(out / "generator_01.ckpt"),
                    {**narrow.tensors(), "meta_pattern_id": np.array([1.0])})


def _six_class_gold(out):
    """g.tsv in out: every seed of labels.tsv, in six classes, more than
    the trained discriminator's k + 1 = 4."""
    addrs = [line.split("\t")[0] for line in (out / "labels.tsv").read_text().splitlines()
             if line and not line.startswith("#")]
    (out / "g.tsv").write_text("".join(f"{a}\trfc\t{i % 6}\tc{i % 6}\n" for i, a in enumerate(addrs)))


def _case(command, name, says, config=None, env=None, args=None, out="copy", files=None,
          edit=None):
    """One exit-2 case.  --out is a copy of the trained out ("copy"), an
    empty directory ("empty") or no directory ("absent").  The config is
    tiny_config with config's keys over it (a section's key by key); files
    are written under the case's directory (text, or JSON for anything
    else) after the config, and edit(out) changes the copy before the run.
    The one line printed must contain says."""
    return pytest.param(command, says, config or {}, env or {},
                        _ARGS[command] if args is None else args, out, files or {}, edit,
                        id=f"{command}-{name}")


_BAD_ADDRESS = "2001:db8::1\nnot-an-address\n"
# class 0 with a second name, then a second method
_TWO_NAMES = "::1\trfc\t0\tLow-byte\n::2\trfc\t0\tIEEE-derived\n::3\tentropy\t1\tcluster-1\n"
_TWO_METHODS = "::1\trfc\t0\tLow-byte\n# another method\n::3\tentropy\t1\tcluster-1\n"
_NO_FAMILIES = {**UNIVERSE, "families": []}
_OVERLAP = {**UNIVERSE, "families": [UNIVERSE["families"][0],
                                     {**UNIVERSE["families"][1], "prefixes": ["2001:db8:1::/64"]}]}
_MISSPELT = {"hash_key": 1234, "families": UNIVERSE["families"],
             "aliased_prefixs": UNIVERSE["aliased_prefixes"]}
_MISSPELT_IN_FAMILY = {**UNIVERSE, "families": [
    UNIVERSE["families"][0],
    {"name": "ieee", "pattern": "IEEE-derived", "prefix": ["2001:db8:2::/48"], "density": 0.6}]}
_INPUTS_IN_P = {"labels_file": "{p}/labels.tsv", "alias_file": "{p}/aliased_prefixes.txt"}
_NN_CASES = [("embed_dim", 0), ("hidden_dim", 0), ("n_filters", 0), ("lr_gen", 0), ("lr_gen", -1),
             ("lr_disc", 0), ("lr_disc", -1)]

EXIT_2_CASES = [
    # the config, the same for every command
    *(case for command in _ARGS for case in (
        _case(command, "unknown-key", "unknown config key: n_seedz", config={"n_seedz": 10}),
        _case(command, "wrong-type", "config key schedule.batch_size must be an integer",
              env={"SIXGAN_SCHEDULE_BATCH_SIZE": "2.5"}),
        _case(command, "out-of-range", "config key budget must be >= 0, got -1",
              env={"SIXGAN_BUDGET": "-1"}, out="absent"),
        _case(command, "unknown-method", "unknown method 'x'", env={"SIXGAN_METHOD": "x"}),
        _case(command, "config-not-object", "must be a JSON object", files={"c.json": [1, 2]}),
        _case(command, "config-not-json", "c.json: not valid JSON", files={"c.json": "{"},
              out="absent"),
    )),
    # the reward and schedule sections, checked by every command: here two
    # that do not train, with a value from the file and from the environment
    *(_case(command, f"{section}-{key}-0-{source}",
            f"config key {section}.{key} must be >= 1, got 0",
            config={section: {key: 0}} if source == "file" else None,
            env={f"SIXGAN_{section}_{key}".upper(): "0"} if source == "env" else None)
      for command in ("synth", "generate")
      for section, key in (("schedule", "batch_size"), ("reward", "rollouts"))
      for source in ("file", "env")),
    # a number is finite wherever it comes from
    _case("train", "alpha-nan-file", "config key reward.alpha must be a finite number, got NaN",
          config={"reward": {"alpha": float("nan")}}),
    _case("train", "lam-infinity-env",
          "config key reward.lam must be a finite number, got Infinity",
          env={"SIXGAN_REWARD_LAM": "Infinity"}),
    _case("generate", "rates-infinity-env",
          "config key rates must be a list of finite numbers, got [1, Infinity, 1]",
          env={"SIXGAN_RATES": "[1, Infinity, 1]"}),
    _case("generate", "rates-inf-flag",
          "config key rates must be a list of finite numbers, got [1.0, Infinity, 1.0]",
          args=["--rates", "1,inf,1"]),
    _case("generate", "rates-nan-file",
          "config key rates must be a list of finite numbers, got [1, NaN, 1]",
          config={"rates": [1, float("nan"), 1]}),
    # synth and evaluate: a spec key that is not one, at the top level and in a family
    *(_case(command, f"spec-{name}", f"unknown universe spec key: {key}",
            args=["--spec", "{t}/u.json", *_ARGS[command][2:]], files={"u.json": spec})
      for command in ("synth", "evaluate")
      for name, key, spec in (("unknown-key", "aliased_prefixs", _MISSPELT),
                              ("unknown-family-key", "families[1].prefix", _MISSPELT_IN_FAMILY))),
    # synth and evaluate: a family value out of range, named by its key
    *(_case(command, f"spec-family-{key}", f"universe spec key families[0].{says}",
            args=["--spec", "{t}/u.json", *_ARGS[command][2:]],
            files={"u.json": {**UNIVERSE, "families": [{**UNIVERSE["families"][0], key: value},
                                                       *UNIVERSE["families"][1:]]}})
      for command in ("synth", "evaluate")
      for key, value, says in (("density", 1.6, "density must be in (0, 1], got 1.6"),
                               ("pattern", "Low-bite", "pattern must be one of "),
                               ("prefixes", [], "prefixes must not be empty"))),
    # synth: the universe spec
    _case("synth", "no-spec", "config key 'spec_file' is required", args=[]),
    _case("synth", "spec-not-found", "universe spec not found", args=["--spec", "{t}/no.json"],
          out="absent"),
    _case("synth", "spec-not-object", "universe spec must be a JSON object",
          args=["--spec", "{t}/u.json"], files={"u.json": [1, 2]}),
    _case("synth", "spec-lacks-key", "universe spec lacks key families",
          args=["--spec", "{t}/u.json"], files={"u.json": {"hash_key": 1}}, out="absent"),
    _case("synth", "spec-density-string", "families[0].density must be a finite number",
          args=["--spec", "{t}/u.json"],
          files={"u.json": {**UNIVERSE, "families": [{**UNIVERSE["families"][0],
                                                      "density": "0.6"}]}}),
    _case("synth", "spec-no-families", "universe spec families is empty",
          args=["--spec", "{t}/u.json"], files={"u.json": _NO_FAMILIES}, out="absent"),
    _case("synth", "spec-overlap", "family prefixes overlap", args=["--spec", "{t}/u.json"],
          files={"u.json": _OVERLAP}),
    _case("synth", "n-seeds-0", "config key n_seeds must be >= 1, got 0",
          env={"SIXGAN_N_SEEDS": "0"}),
    # classify: the seeds file
    _case("classify", "no-seeds-file", "config key 'seeds_file' is required",
          config={"seeds_file": None}),
    _case("classify", "seeds-not-found", "seeds file not found",
          config={"seeds_file": "{t}/no.txt"}, out="absent"),
    _case("classify", "seeds-empty", "is empty", config={"seeds_file": "{t}/s.txt"},
          files={"s.txt": "# none\n"}),
    _case("classify", "bad-seed-line", "s.txt:2: ", config={"seeds_file": "{t}/s.txt"},
          files={"s.txt": _BAD_ADDRESS}, out="absent"),
    _case("classify", "entropy-without-k", "entropy classification requires --k",
          args=["--method", "entropy"]),
    _case("classify", "fp-prefix-len-33", "config key fp_prefix_len must be in [1, 32]",
          env={"SIXGAN_FP_PREFIX_LEN": "33"}),
    # train: the labels, the alias file and the reward, schedule and nn sections
    _case("train", "labels-not-found", "labels file not found",
          config={"labels_file": "{t}/no.tsv"}, out="absent"),
    _case("train", "labels-three-fields", "l.tsv:1: expected 4 tab-separated fields",
          config={"labels_file": "{t}/l.tsv"}, files={"l.tsv": "2001:db8::1\trfc\t0\n"}),
    _case("train", "labels-bad-address", "l.tsv:1: '2001:zz8::1'",
          config={"labels_file": "{t}/l.tsv"}, files={"l.tsv": "2001:zz8::1\trfc\t0\tlow\n"}),
    _case("train", "labels-bad-class-id", "l.tsv:1: invalid literal",
          config={"labels_file": "{t}/l.tsv"}, files={"l.tsv": "2001:db8::1\trfc\tx\tlow\n"}),
    _case("train", "labels-two-names",
          "l.tsv:2: class 0 is named 'IEEE-derived' here but 'Low-byte' on line 1",
          config={"labels_file": "{t}/l.tsv"}, files={"l.tsv": _TWO_NAMES}),
    _case("train", "labels-two-methods", "l.tsv:3: the method is 'entropy' here but 'rfc' on line 1",
          config={"labels_file": "{t}/l.tsv"}, files={"l.tsv": _TWO_METHODS}),
    _case("train", "alias-not-found", "alias prefix file not found",
          config={"alias_file": "{t}/no.txt"}),
    _case("train", "alias-bad-prefix", "a.txt:1: ", config={"alias_file": "{t}/a.txt"},
          files={"a.txt": "2001:db8::/129\n"}),
    _case("train", "rollouts-0", "reward.rollouts must be >= 1, got 0",
          config={"reward": {"rollouts": 0}}),
    _case("train", "batch-size-0", "schedule.batch_size must be >= 1, got 0",
          config={"schedule": {"batch_size": 0}}),
    # from the file into a copy of out, and from the environment with the
    # inputs elsewhere and no out at all
    *(_case("train", f"nn-{key}-{value}-file", f"nn.{key} must be ",
            config={"nn": {key: value}}) for key, value in _NN_CASES),
    *(_case("train", f"nn-{key}-{value}-env", f"nn.{key} must be ", config=_INPUTS_IN_P,
            env={f"SIXGAN_NN_{key.upper()}": str(value)}, out="absent")
      for key, value in _NN_CASES),
    *(_case("train", f"nn-lr_gen-{raw}-env", f"nn.lr_gen must be a finite number, got {got}",
            env={"SIXGAN_NN_LR_GEN": raw}) for raw, got in (("NaN", "NaN"), ("1e999", "Infinity"))),
    # generate: the checkpoints in --out, the rates and the budget
    _case("generate", "no-checkpoints", "no generator checkpoints", out="absent"),
    _case("generate", "no-checkpoints-empty-out", "no generator checkpoints", out="empty"),
    _case("generate", "numbering-gap", "missing generator_01.ckpt",
          edit=lambda out: (out / "generator_01.ckpt").unlink()),
    _case("generate", "garbage-checkpoint", "bad checkpoint magic",
          edit=lambda out: (out / "generator_00.ckpt").write_bytes(b"not a checkpoint")),
    _case("generate", "truncated-checkpoint", "generator_00.ckpt: truncated ",
          edit=lambda out: (out / "generator_00.ckpt").write_bytes(
              (out / "generator_00.ckpt").read_bytes()[:30])),
    _case("generate", "non-finite-checkpoint", "malformed value in generate input",
          edit=_ckpt("generator_02.ckpt", lambda ts: ts["w_out"].fill(np.inf))),
    _case("generate", "missing-tensor", "missing tensor w_gates",
          edit=_ckpt("generator_01.ckpt", lambda ts: ts.pop("w_gates"))),
    _case("generate", "tensor-shape", "tensor b_out has shape (1,)",
          edit=_ckpt("generator_01.ckpt", lambda ts: ts.update(b_out=np.zeros(1)))),
    _case("generate", "meta-not-integer", "tensor meta_pattern_id must hold one finite integer",
          edit=_ckpt("generator_01.ckpt", lambda ts: ts.update(meta_pattern_id=np.array([1.5])))),
    _case("generate", "wrong-pattern-id", "carries pattern id 0, expected 1",
          edit=_ckpt("generator_01.ckpt", lambda ts: ts.update(meta_pattern_id=np.array([0.0])))),
    _case("generate", "other-widths", "holds a generator of other widths", edit=_narrow_generator),
    _case("generate", "rates-count", "got 2 rates for 3 generators", args=["--rates", "1,2"]),
    _case("generate", "rates-not-numbers", "--rates must be a CSV of numbers",
          args=["--rates", "a,b"]),
    _case("generate", "labels-bad-line", "labels.tsv:1: expected 4 tab-separated fields",
          edit=lambda out: (out / "labels.tsv").write_text("2001:db8::1\trfc\t0\n")),
    # discriminate: the checkpoint in --out, the addresses and the gold labels
    _case("discriminate", "no-checkpoint", "discriminator checkpoint not found", out="absent"),
    _case("discriminate", "no-checkpoint-empty-out", "discriminator checkpoint not found",
          out="empty"),
    _case("discriminate", "addresses-not-found", "addresses file not found",
          args=["{t}/no.txt"]),
    _case("discriminate", "addresses-empty", "is empty", args=["{t}/a.txt"],
          files={"a.txt": "# none\n"}),
    _case("discriminate", "bad-address-line", "a.txt:2: ", args=["{t}/a.txt"],
          files={"a.txt": _BAD_ADDRESS}),
    _case("discriminate", "missing-tensor", "missing tensor conv_w",
          edit=_ckpt("discriminator.ckpt", lambda ts: ts.pop("conv_w"))),
    _case("discriminate", "meta-k-inf", "tensor meta_k must hold one finite integer, got inf",
          edit=_ckpt("discriminator.ckpt", lambda ts: ts.update(meta_k=np.array([np.inf])))),
    _case("discriminate", "non-finite-checkpoint", "malformed value in discriminate input",
          edit=_ckpt("discriminator.ckpt", lambda ts: ts["out_w"].fill(np.inf))),
    _case("discriminate", "gold-not-found", "gold labels file not found",
          config={"gold_labels_file": "{t}/no.tsv"}),
    _case("discriminate", "gold-more-classes", "g.tsv has 6 classes, more than the discriminator's 4",
          config={"gold_labels_file": "{t}/out/g.tsv"}, edit=_six_class_gold),
    _case("discriminate", "gold-lacks-addresses", "240 addresses missing from gold labels",
          config={"gold_labels_file": "{t}/g.tsv"}, files={"g.tsv": "2001:db8::1\trfc\t0\tlow\n"}),
    _case("discriminate", "gold-two-names",
          "g.tsv:2: class 0 is named 'IEEE-derived' here but 'Low-byte' on line 1",
          config={"gold_labels_file": "{t}/g.tsv"}, files={"g.tsv": _TWO_NAMES}),
    # evaluate: the spec, the candidates and the seeds
    _case("evaluate", "no-spec", "config key 'spec_file' is required",
          args=["{p}/candidates.txt"]),
    _case("evaluate", "candidates-not-found", "candidates file not found",
          args=["--spec", "{spec}", "{t}/no.txt"], out="absent"),
    _case("evaluate", "no-seeds-file", "config key 'seeds_file' is required",
          config={"seeds_file": None}),
    _case("evaluate", "spec-lacks-key", "universe spec lacks key families",
          args=["--spec", "{t}/u.json", "{p}/candidates.txt"], files={"u.json": {"hash_key": 1}}),
    _case("evaluate", "bad-candidate-line", "c.txt:2: ", args=["--spec", "{spec}", "{t}/c.txt"],
          files={"c.txt": _BAD_ADDRESS}),
    # alias-check: the alias file and the addresses
    _case("alias-check", "no-alias-file", "config key 'alias_file' is required",
          config={"alias_file": None}),
    _case("alias-check", "alias-not-found", "alias prefix file not found",
          config={"alias_file": "{t}/no.txt"}, out="absent"),
    _case("alias-check", "alias-bad-prefix", "a.txt:1: ", config={"alias_file": "{t}/a.txt"},
          files={"a.txt": "2001:db8::/129\n"}),
    _case("alias-check", "addresses-not-found", "addresses file not found",
          args=["{t}/no.txt"]),
    _case("alias-check", "bad-address-line", "b.txt:2: ", args=["{t}/b.txt"],
          files={"b.txt": _BAD_ADDRESS}),
]


@pytest.mark.parametrize("command, says, config, env, args, out_kind, files, edit", EXIT_2_CASES)
def test_exit_2_leaves_out_unchanged(pipeline, tmp_path, monkeypatch, capsys, command, says,
                                     config, env, args, out_kind, files, edit):
    out = tmp_path / "out"
    if out_kind == "copy":
        shutil.copytree(pipeline["out"], out)
    elif out_kind == "empty":
        out.mkdir()

    def fill(value):
        if isinstance(value, str):
            return value.format(p=pipeline["out"], t=tmp_path, spec=pipeline["spec"])
        return value

    cfg = tiny_config(str(out))
    for key, value in config.items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else fill(value)
    write_json(tmp_path / "c.json", cfg)
    for name, body in files.items():
        if isinstance(body, str):
            (tmp_path / name).write_text(body)
        else:
            write_json(tmp_path / name, body)
    if edit is not None:
        edit(out)
    before = snapshot(out) if out.exists() else None
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    argv = [command, "--config", str(tmp_path / "c.json"), "--out", str(out)]
    assert main(argv + [fill(a) for a in args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith(("config error: ", "invalid input: ", "malformed value in ")), err
    assert says in err, err
    assert (snapshot(out) if out.exists() else None) == before
