from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import tmfusion
from tmfusion.cli import main, output_lock
from tmfusion.config import Hyperparams
from tmfusion.dataset import load_dataset
from tmfusion.errors import TmfusionError
from tmfusion.rnn import build_model, load_checkpoint, save_checkpoint
from tmfusion.rnn.checkpoint import Checkpoint
from tmfusion import evaluate as ev

from .conftest import DATA_DIR, synthetic_tweets, weekday_bars, write_tweets_jsonl, write_v1_split

SMALL_INDICATORS = {
    "ma_period": 3, "rsi_period": 3, "macd_fast": 2, "macd_slow": 4,
    "cci_period": 3, "bb_period": 3,
}
FAST_HYPERS = {"epochs": 3, "layers": 1, "hidden_units": 4, "batch_size": 16}
#: An integer past both the int64 and the float64 range.
BIG_INT = int("9" * 401)


def write_corpus(directory: Path, rng, n_tweets=120, n_bars=30) -> tuple[Path, Path]:
    bars = weekday_bars(rng, n_bars)
    csv_path = directory / "bars.csv"
    with open(csv_path, "w") as fh:
        fh.write("Date,Open,High,Low,Close,Adj Close\n")
        for b in bars:
            fh.write(
                f"{b.date.isoformat()},{b.open:.4f},{b.high:.4f},"
                f"{b.low:.4f},{b.close:.4f},{b.adj_close:.4f}\n"
            )
    dates = [bars[0].date + dt.timedelta(days=i)
             for i in range((bars[-1].date - bars[0].date).days + 1)]
    jsonl_path = directory / "tweets.jsonl"
    write_tweets_jsonl(jsonl_path, synthetic_tweets(rng, dates, n_tweets))
    return csv_path, jsonl_path


def write_config(directory: Path, **overrides) -> Path:
    cfg = {
        "ticker": "AAPL",
        "paths": {"ohlcv_csv": "bars.csv", "tweets_jsonl": "tweets.jsonl"},
        "feature_set": ["market", "social", "sentiment"],
        "label_field": "close",
        "indicators": SMALL_INDICATORS,
        "hyperparams": FAST_HYPERS,
        "cell": "indrnn",
        "embedding_dim": 4,
        "seed": 7,
        "out_dir": "out",
    }
    cfg.update(overrides)
    path = directory / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


@pytest.fixture
def run_dir(tmp_path, rng) -> Path:
    write_corpus(tmp_path, rng)
    write_config(tmp_path)
    return tmp_path


def run_cli(*argv) -> int:
    return main(list(argv))


def tree_hash(directory: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            digest.update(p.name.encode())
            digest.update(p.read_bytes())
    return digest.hexdigest()


class TestIngest:
    def test_table_fixture(self, tmp_path):
        (tmp_path / "bars.csv").write_text((DATA_DIR / "table2_ohlcv.csv").read_text())
        (tmp_path / "tweets.jsonl").write_text("")
        cfg = write_config(tmp_path)
        assert run_cli("ingest", "--config", str(cfg)) == 0
        manifest = json.loads((tmp_path / "out" / "ingest_manifest.json").read_text())
        assert manifest["bars"]["count"] == 6
        assert manifest["bars"]["first_date"] == "2020-05-02"
        assert manifest["bars"]["last_date"] == "2020-05-07"
        assert manifest["bars"]["label_mismatches"] == ["2020-05-03", "2020-05-04", "2020-05-06"]
        assert manifest["tweets"]["count"] == 0

    def test_lenient_skips_and_logs_line(self, run_dir):
        jsonl = run_dir / "tweets.jsonl"
        lines = jsonl.read_text().splitlines()
        lines.insert(3, "definitely not json")
        jsonl.write_text("\n".join(lines) + "\n")
        cfg = run_dir / "config.json"
        assert run_cli("ingest", "--config", str(cfg)) == 1  # fatal without --lenient
        assert run_cli("ingest", "--config", str(cfg), "--lenient") == 0
        manifest = json.loads((run_dir / "out" / "ingest_manifest.json").read_text())
        assert manifest["tweets"]["count"] == len(lines) - 1
        assert manifest["tweets"]["rejected"][0]["line"] == 4

    def test_idempotent(self, run_dir):
        cfg = run_dir / "config.json"
        assert run_cli("ingest", "--config", str(cfg)) == 0
        first = (run_dir / "out" / "ingest_manifest.json").read_bytes()
        assert run_cli("ingest", "--config", str(cfg)) == 0
        assert (run_dir / "out" / "ingest_manifest.json").read_bytes() == first

    def test_seed_override_echoed(self, run_dir):
        cfg = run_dir / "config.json"
        assert run_cli("ingest", "--config", str(cfg), "--seed", "99") == 0
        manifest = json.loads((run_dir / "out" / "ingest_manifest.json").read_text())
        assert manifest["config"]["overrides"] == {"seed": 99}
        assert manifest["config"]["seed"] == 99


class TestFeatures:
    def test_numeric_width_for_market_social_sentiment(self, run_dir):
        cfg = run_dir / "config.json"
        assert run_cli("ingest", "--config", str(cfg)) == 0
        assert run_cli("features", "--config", str(cfg)) == 0
        ds = load_dataset(run_dir / "out" / "dataset")
        assert ds.header["numeric_width"] == 14
        report = json.loads((run_dir / "out" / "dataset" / "build_report.json").read_text())
        assert report["feature_flags"] == ["market", "sentiment", "social"]

    def test_text_only_dataset(self, tmp_path, rng):
        write_corpus(tmp_path, rng)
        cfg = write_config(tmp_path, feature_set=["text"])
        assert run_cli("ingest", "--config", str(cfg)) == 0
        assert run_cli("features", "--config", str(cfg)) == 0
        ds = load_dataset(tmp_path / "out" / "dataset")
        assert ds.header["numeric_width"] == 0
        assert ds.header["max_len"] >= 1
        assert ds.train[0].text is not None

    def test_requires_ingest_manifest(self, run_dir):
        cfg = run_dir / "config.json"
        assert run_cli("features", "--config", str(cfg)) == 1

    def test_rebuild_byte_identical(self, run_dir):
        cfg = run_dir / "config.json"
        assert run_cli("ingest", "--config", str(cfg)) == 0
        assert run_cli("features", "--config", str(cfg)) == 0
        first = tree_hash(run_dir / "out" / "dataset")
        assert run_cli("features", "--config", str(cfg)) == 0
        assert tree_hash(run_dir / "out" / "dataset") == first

    @pytest.mark.parametrize("change", ["appended line", "same-size edit", "deleted tweets.bin"])
    def test_stale_or_missing_tweet_file_exits_1(self, run_dir, capsys, change):
        """features reads the tweets ingest parsed, never the JSON lines, so
        a source edited since ingest or a missing tweet file is an error."""
        cfg = run_dir / "config.json"
        assert run_cli("ingest", "--config", str(cfg)) == 0
        jsonl = run_dir / "tweets.jsonl"
        lines = jsonl.read_text().splitlines(keepends=True)
        if change == "appended line":
            jsonl.write_text("".join(lines + lines[:1]))
        elif change == "same-size edit":
            jsonl.write_text("".join(lines[1:2] + lines[:1] + lines[2:]))
        else:
            (run_dir / "out" / "tweets.bin").unlink()
        capsys.readouterr()
        assert run_cli("features", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "tweets.bin" in err and "Traceback" not in err
        assert not (run_dir / "out" / "dataset").exists()
        assert run_cli("ingest", "--config", str(cfg)) == 0
        assert run_cli("features", "--config", str(cfg)) == 0


def prepare_dataset(run_dir: Path) -> Path:
    cfg = run_dir / "config.json"
    assert run_cli("ingest", "--config", str(cfg)) == 0
    assert run_cli("features", "--config", str(cfg)) == 0
    return cfg


class TestTrain:
    def test_checkpoint_has_one_log_entry_per_epoch(self, run_dir):
        cfg = prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg)) == 0
        ckpt = load_checkpoint(run_dir / "out" / "checkpoint.json")
        assert len(ckpt.training_log) == 3

    def test_table_default_runs_hundred_epochs(self, tmp_path, rng):
        write_corpus(tmp_path, rng, n_tweets=40)
        cfg = write_config(tmp_path, hyperparams={"layers": 1, "hidden_units": 3})
        prepare_dataset(tmp_path)
        assert run_cli("train", "--config", str(cfg)) == 0
        ckpt = load_checkpoint(tmp_path / "out" / "checkpoint.json")
        assert len(ckpt.training_log) == 100  # Hyperparams default

    def test_same_seed_identical_checkpoint(self, run_dir):
        cfg = prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg)) == 0
        first = hashlib.sha256((run_dir / "out" / "checkpoint.json").read_bytes()).hexdigest()
        assert run_cli("train", "--config", str(cfg)) == 0
        second = hashlib.sha256((run_dir / "out" / "checkpoint.json").read_bytes()).hexdigest()
        assert first == second

    def test_corrupt_normalizer_json_is_not_read(self, run_dir):
        # training reads only the two splits; normalizer.json records the fit
        cfg = prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg)) == 0
        checkpoint = run_dir / "out" / "checkpoint.json"
        first = checkpoint.read_bytes()
        (run_dir / "out" / "dataset" / "normalizer.json").write_text("{}")
        assert run_cli("train", "--config", str(cfg)) == 0
        assert checkpoint.read_bytes() == first

    def test_corrupt_build_report_json_is_not_read(self, run_dir):
        # build_report.json records the build for readers; no stage reads it back
        cfg = prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg)) == 0
        checkpoint = run_dir / "out" / "checkpoint.json"
        first = checkpoint.read_bytes()
        (run_dir / "out" / "dataset" / "build_report.json").write_text("{")
        assert run_cli("train", "--config", str(cfg)) == 0
        assert checkpoint.read_bytes() == first

    def test_v1_dataset_exits_1_naming_the_version(self, run_dir, capsys):
        cfg = prepare_dataset(run_dir)
        write_v1_split(run_dir / "out" / "dataset" / "train.bin")
        capsys.readouterr()
        assert run_cli("train", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "train.bin: format version 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, command, stage", [
        ("dataset/train.bin", "train", "features"), ("tweets.bin", "features", "ingest"),
    ])
    def test_version_2_file_exits_1_naming_the_stage_to_rerun(
        self, run_dir, capsys, name, command, stage
    ):
        cfg = prepare_dataset(run_dir)
        path = run_dir / "out" / name
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run_cli(command, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert f"{path.name}: format version 2" in err
        assert f"rerun the {stage} subcommand" in err
        assert "Traceback" not in err

    def test_sweep_writes_six_monotone_rows(self, run_dir):
        cfg = prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg), "--sweep-batch") == 0
        with open(run_dir / "out" / "batch_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["batch_size"]) for r in rows] == [128, 256, 512, 1024, 2048, 4096]
        steps = [int(r["steps_per_epoch"]) for r in rows]
        assert all(a >= b for a, b in zip(steps, steps[1:]))
        assert not (run_dir / "out" / "checkpoint.json").exists()


class TestEvaluate:
    def test_reports_match_recomputation(self, run_dir):
        cfg = prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg)) == 0
        assert run_cli("evaluate", "--config", str(cfg)) == 0

        report = json.loads((run_dir / "out" / "report.json").read_text())
        ckpt = load_checkpoint(run_dir / "out" / "checkpoint.json")
        ds = load_dataset(run_dir / "out" / "dataset")
        from tmfusion.rnn import predict

        preds = [predict(ckpt, s)[0] for s in ds.test]
        labels = [s.label for s in ds.test]
        expected = ev.metrics(ev.confusion(preds, labels))
        assert report["tweet_level"]["accuracy"] == expected.accuracy
        assert report["tweet_level"]["counts"]["tp"] == expected.counts.tp

        actual_by_day = {s.day: s.label for s in ds.test}
        table = ev.daily_aggregate([(s.day, p) for s, p in zip(ds.test, preds)], actual_by_day)
        daily = ev.daily_metrics(table)
        assert report["daily_level"]["accuracy"] == daily.accuracy
        assert len(report["daily_table"]) == len(table)

        csv_path = run_dir / "out" / "confusion_AAPL.csv"
        assert csv_path.exists()
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["level"] == "tweet"
        assert int(rows[0]["tp"]) == expected.counts.tp

        # rerunning evaluation rewrites identical bytes
        report_bytes = (run_dir / "out" / "report.json").read_bytes()
        assert run_cli("evaluate", "--config", str(cfg)) == 0
        assert (run_dir / "out" / "report.json").read_bytes() == report_bytes

    def test_constant_half_model_predicts_all_up(self, run_dir):
        cfg = prepare_dataset(run_dir)
        ds = load_dataset(run_dir / "out" / "dataset")
        hyper = Hyperparams(**FAST_HYPERS, seed=7)
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=ds.header["numeric_width"])
        model.head_w[:] = 0.0
        model.head_b[:] = 0.0
        flat = run_dir / "flat_checkpoint.json"
        save_checkpoint(Checkpoint(model=model), flat)
        assert run_cli("evaluate", "--config", str(cfg), "--checkpoint", str(flat)) == 0
        report = json.loads((run_dir / "out" / "report.json").read_text())
        assert all(row["decision"] == "pos" for row in report["daily_table"])
        assert all(row["neg_count"] == 0 for row in report["daily_table"])

    def test_missing_checkpoint_fails(self, run_dir):
        cfg = prepare_dataset(run_dir)
        assert run_cli("evaluate", "--config", str(cfg)) == 1

    def test_checkpoint_missing_field_exits_1(self, run_dir, capsys):
        hyper = Hyperparams(**FAST_HYPERS, seed=7)
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=4)
        path = run_dir / "ckpt.json"
        save_checkpoint(Checkpoint(model=model), path)
        blob = json.loads(path.read_text())
        for key in blob:
            path.write_text(json.dumps({k: v for k, v in blob.items() if k != key}))
            capsys.readouterr()
            assert run_cli("evaluate", "--config", str(run_dir / "config.json"),
                           "--checkpoint", str(path)) == 1, key
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert key in err

    def test_rejects_checkpoint_of_other_feature_set(self, run_dir, capsys):
        # social+sentiment and market+credibility are both 9 columns wide,
        # so only the recorded flags tell the two datasets apart
        cfg = write_config(run_dir, feature_set=["social", "sentiment"])
        prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg)) == 0
        cfg = write_config(run_dir, feature_set=["market", "credibility"])
        assert run_cli("features", "--config", str(cfg)) == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--config", str(cfg)) == 1
        assert "feature_flags" in capsys.readouterr().err
        assert not (run_dir / "out" / "report.json").exists()

    def test_rejects_checkpoint_of_other_market_lookback(self, tmp_path, rng, capsys):
        write_corpus(tmp_path, rng, n_tweets=80)
        cfg = write_config(tmp_path, market_lookback=3)
        prepare_dataset(tmp_path)
        assert run_cli("train", "--config", str(cfg)) == 0
        checkpoint = (tmp_path / "out" / "checkpoint.json").read_bytes()
        cfg = write_config(tmp_path, market_lookback=1)
        assert run_cli("features", "--config", str(cfg)) == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "market_lookback 3" in err and "2 numeric steps" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "checkpoint.json").read_bytes() == checkpoint

    @pytest.mark.parametrize("damage", ["missing", "flipped byte", "v1 test.bin"])
    def test_damaged_text_dataset_exits_1(self, tmp_path, rng, capsys, damage):
        write_corpus(tmp_path, rng)
        cfg = write_config(tmp_path, feature_set=["text", "sentiment"])
        prepare_dataset(tmp_path)
        assert run_cli("train", "--config", str(cfg)) == 0
        dataset = tmp_path / "out" / "dataset"
        table = dataset / "embedding.bin"
        if damage == "missing":
            table.unlink()
        elif damage == "flipped byte":
            blob = bytearray(table.read_bytes())
            blob[-20] ^= 0x01
            table.write_bytes(bytes(blob))
        else:
            write_v1_split(dataset / "test.bin")
        capsys.readouterr()
        assert run_cli("evaluate", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert ("test.bin" if damage.startswith("v1") else "embedding.bin") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_reads_only_the_header_of_train_bin(self, run_dir):
        cfg = prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg)) == 0
        assert run_cli("evaluate", "--config", str(cfg)) == 0
        report = (run_dir / "out" / "report.json").read_bytes()
        train_bin = run_dir / "out" / "dataset" / "train.bin"
        blob = train_bin.read_bytes()
        header_end = 12 + int.from_bytes(blob[8:12], "little")
        train_bin.write_bytes(blob[:header_end])
        assert run_cli("evaluate", "--config", str(cfg)) == 0
        assert (run_dir / "out" / "report.json").read_bytes() == report
        train_bin.write_bytes(blob[: header_end - 1])
        assert run_cli("evaluate", "--config", str(cfg)) == 1


class TestReport:
    def test_prints_summary(self, run_dir, capsys):
        cfg = prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg)) == 0
        assert run_cli("evaluate", "--config", str(cfg)) == 0
        capsys.readouterr()
        assert run_cli("report", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "tweet_level: accuracy" in out
        assert "daily_level: accuracy" in out

    def test_without_evaluation_fails(self, run_dir, capsys):
        cfg = run_dir / "config.json"
        assert run_cli("report", "--config", str(cfg)) == 1
        # a malformed report is a schema error, not a traceback
        assert run_cli("ingest", "--config", str(cfg)) == 0
        report = run_dir / "out" / "report.json"
        level = {"accuracy": 0.5, "precision": 0.5, "recall": 0.5, "f1": 0.5,
                 "counts": {"tp": 1, "tn": 1, "fp": 1, "fn": 1}}
        good = {"schema_version": 1, "ticker": "AAPL", "tweet_level": level,
                "daily_level": None, "daily_table": [], "config": {}}
        report.write_text(json.dumps(good))
        assert run_cli("report", "--config", str(cfg)) == 0
        for broken in (
            {**good, "tweet_level": {k: v for k, v in level.items() if k != "counts"}},
            {**good, "daily_level": {**level, "counts": {"tp": 1}}},
            {**good, "tweet_level": None},
            {k: v for k, v in good.items() if k != "ticker"},
            [],
        ):
            report.write_text(json.dumps(broken))
            capsys.readouterr()
            assert run_cli("report", "--config", str(cfg)) == 1, broken
            err = capsys.readouterr().err
            assert "Traceback" not in err and "report.json" in err, broken


class TestCliContract:
    def test_unknown_flag_fatal(self, run_dir):
        cfg = run_dir / "config.json"
        # the literal cell forms and their flag are gone
        for argv in (("ingest", "--bogus"), ("train", "--paper-literal")):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(argv[0], "--config", str(cfg), *argv[1:])
            assert excinfo.value.code == 2, argv

    def test_help_documents_flags(self, capsys):
        for command in ("ingest", "features", "train", "evaluate", "report"):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(command, "--help")
            assert excinfo.value.code == 0
            out = capsys.readouterr().out
            for flag in ("--config", "--seed", "--out", "--lenient", "--sweep-batch"):
                assert flag in out, (command, flag)

    def test_missing_config_file(self, tmp_path):
        assert run_cli("ingest", "--config", str(tmp_path / "nope.json")) == 1

    def test_config_path_validation(self, tmp_path):
        cfg = write_config(tmp_path)  # bars.csv / tweets.jsonl absent
        assert run_cli("ingest", "--config", str(cfg)) == 1

    def test_output_lock_refuses_second_writer(self, run_dir):
        cfg = run_dir / "config.json"
        out = run_dir / "out"
        with output_lock(out):
            with pytest.raises(TmfusionError, match="locked by another run"):
                with output_lock(out):
                    pass
            assert run_cli("ingest", "--config", str(cfg)) == 1
        assert run_cli("ingest", "--config", str(cfg)) == 0

    def test_lock_of_killed_run_does_not_block(self, run_dir):
        cfg = run_dir / "config.json"
        out = run_dir / "out"
        code = (
            "import os, signal, sys\n"
            "from pathlib import Path\n"
            "from tmfusion.cli import output_lock\n"
            "with output_lock(Path(sys.argv[1])):\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tmfusion.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, str(out)], env=env, timeout=60)
        assert proc.returncode == -signal.SIGKILL
        assert (out / ".tmfusion.lock").exists()
        assert run_cli("ingest", "--config", str(cfg)) == 0

    @pytest.mark.parametrize(
        "argv, code, absent",
        [
            (["ingest"], 0, "numpy"),
            (["report"], 0, "numpy"),
            (["--help"], 0, "numpy"),
            (["ingest", "--config", "bad_config.json"], 1, "numpy"),
            (["features"], 0, "tmfusion.rnn"),
        ],
        ids=["ingest", "report", "help", "config-error", "features"],
    )
    def test_stage_imports_only_what_it_runs(self, run_dir, argv, code, absent):
        cfg = run_dir / "config.json"
        assert run_cli("ingest", "--config", str(cfg)) == 0
        (run_dir / "out" / "report.json").write_text(json.dumps({
            "schema_version": 1, "ticker": "AAPL", "daily_level": None, "daily_table": [],
            "config": {}, "tweet_level": {
                "accuracy": 0.5, "precision": 0.5, "recall": 0.5, "f1": 0.5,
                "counts": {"tp": 1, "tn": 1, "fp": 1, "fn": 1},
            },
        }))
        bad = json.loads(cfg.read_text())
        bad["unknown_key"] = 1
        (run_dir / "bad_config.json").write_text(json.dumps(bad))
        if "--config" not in argv and argv != ["--help"]:
            argv = argv + ["--config", str(cfg)]
        script = (
            "import sys\n"
            "from tmfusion.cli import main\n"
            "try:\n"
            "    code = main(sys.argv[2:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, sys.argv[1] in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tmfusion.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script, absent, *argv],
            cwd=run_dir, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == [str(code), "False"], (proc.stdout, proc.stderr)

    def test_one_blas_thread_unless_set(self, run_dir):
        script = (
            "import os, sys\n"
            "from tmfusion.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(*(os.environ.get(v) for v in sys.argv[1:]))\n"
        )
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = str(Path(tmfusion.__file__).resolve().parents[1])
        for preset, expected in ((None, "1 1 1"), ("2", "2 1 1")):
            if preset:
                env["OPENBLAS_NUM_THREADS"] = preset
            proc = subprocess.run([sys.executable, "-c", script, *names], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split("\n")[-2] == expected

    @pytest.mark.parametrize("target, stage", [
        ("bars.csv", "ingest"), ("bars.csv", "features --lenient"), ("config.json", "ingest"),
        ("lexicon.json", "features"), ("out/checkpoint.json", "evaluate"),
        ("out/report.json", "report"),
    ])
    def test_text_that_is_not_utf8_exits_1(self, run_dir, capsys, target, stage):
        """A text input or artifact with bytes that are not UTF-8 is a
        SchemaError naming the file and line, not a traceback."""
        lexicon = run_dir / "lexicon.json"
        lexicon.write_text(
            json.dumps({"surged": {"polarity": 0.8, "subjectivity": 0.5}}, indent=1)
        )
        cfg = write_config(run_dir, paths={"ohlcv_csv": "bars.csv", "tweets_jsonl": "tweets.jsonl",
                                           "lexicon": "lexicon.json"})
        prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg)) == 0
        assert run_cli("evaluate", "--config", str(cfg)) == 0
        path = run_dir / target
        blob = path.read_bytes()
        middle = len(blob) // 2
        path.write_bytes(blob[:middle] + b"\xff" + blob[middle:])
        line = blob.count(b"\n", 0, middle) + 1
        capsys.readouterr()
        command, *flags = stage.split()
        assert run_cli(command, "--config", str(cfg), *flags) == 1
        err = capsys.readouterr().err
        assert f"{path.name}: line {line}: not valid UTF-8" in err and "Traceback" not in err

    def test_out_override_used_and_echoed(self, run_dir, tmp_path):
        cfg = run_dir / "config.json"
        alt = tmp_path / "elsewhere"
        assert run_cli("ingest", "--config", str(cfg), "--out", str(alt)) == 0
        manifest = json.loads((alt / "ingest_manifest.json").read_text())
        assert manifest["config"]["overrides"]["out"] == str(alt)

    def test_full_feature_pipeline(self, tmp_path, rng):
        write_corpus(tmp_path, rng, n_tweets=80)
        cfg = write_config(
            tmp_path,
            feature_set=["market", "social", "sentiment", "credibility", "text"],
            embedding_dim=3,
            hyperparams={"epochs": 2, "layers": 1, "hidden_units": 3, "batch_size": 32},
        )
        prepare_dataset(tmp_path)
        ds = load_dataset(tmp_path / "out" / "dataset")
        assert ds.header["numeric_width"] == 18
        assert ds.train[0].text is not None
        assert run_cli("train", "--config", str(cfg)) == 0
        ckpt = load_checkpoint(tmp_path / "out" / "checkpoint.json")
        assert ckpt.model.architecture == "fused"
        assert run_cli("evaluate", "--config", str(cfg)) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert 0.0 <= report["tweet_level"]["accuracy"] <= 1.0

    def test_market_lookback_pipeline(self, tmp_path, rng):
        write_corpus(tmp_path, rng, n_tweets=80)
        cfg = write_config(tmp_path, market_lookback=2)
        prepare_dataset(tmp_path)
        ds = load_dataset(tmp_path / "out" / "dataset")
        assert ds.header["numeric_steps"] == 3
        assert ds.train[0].numeric.shape == (3, 14)
        assert run_cli("train", "--config", str(cfg)) == 0
        assert run_cli("evaluate", "--config", str(cfg)) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["market_lookback"] == 2

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"hyperparams": {"lr": 0.1}}, "lr"),
            ({"hyperparams": {"epochs": "2"}}, "epochs"),
            ({"celll": "lstm"}, "celll"),
            ({"indicators": {"rsi": 3}}, "rsi"),
            ({"paths": {"ohlcv_csv": "bars.csv", "tweets_jsonl": "tweets.jsonl", "lexcion": None}},
             "lexcion"),
            ({"seed": 1.5}, "seed"),
            ({"feature_set": [["market"]]}, "feature_set"),
            ({"hyperparams": {**FAST_HYPERS, "seed": 3}}, "hyperparams.seed"),
            ({"hyperparams": {**FAST_HYPERS, "learning_rate": math.nan}}, "NaN"),
            ({"hyperparams": {**FAST_HYPERS, "l2": math.inf}}, "Infinity"),
            # written as the bare literal 1e999, which json.dumps cannot emit
            ({"indicators": {**SMALL_INDICATORS, "bb_sigma_mult": "1e999"}}, "1e999"),
            ({"label_field": "volume"}, "label_field"),
            ({"market_lookback": -1}, "market_lookback"),
            ({"feature_set": ["sentiment", "text"], "embedding_dim": 0}, "embedding_dim"),
            ({"feature_set": ["social", "sentiment"], "market_lookback": 2}, "market_lookback"),
            ({"seed": -1}, "seed"),
            ({"indicators": {**SMALL_INDICATORS, "bb_sigma_mult": BIG_INT}}, "indicators.bb_sigma_mult"),
            ({"hyperparams": {**FAST_HYPERS, "learning_rate": BIG_INT}}, "hyperparams.learning_rate"),
            ({"hyperparams": {**FAST_HYPERS, "l2": BIG_INT}}, "hyperparams.l2"),
            ({"market_lookback": BIG_INT}, "market_lookback"),
            ({"hyperparams": {**FAST_HYPERS, "epochs": BIG_INT}}, "hyperparams.epochs"),
            ({"hyperparams": {**FAST_HYPERS, "hidden_units": 10**11}}, "hyperparams.hidden_units"),
            ({"hyperparams": {**FAST_HYPERS, "layers": 10**11}}, "hyperparams.layers"),
            ({"hyperparams": {**FAST_HYPERS, "momentum": 10**400}}, "hyperparams.momentum"),
            ({"paths": {"ohlcv_csv": None, "tweets_jsonl": "tweets.jsonl"}}, "paths.ohlcv_csv"),
            ({"cell": "simple"}, "cell must be one of"),
        ],
    )
    def test_config_schema_errors_exit_1(self, run_dir, overrides, named):
        cfg = write_config(run_dir, **overrides)
        cfg.write_text(cfg.read_text().replace('"1e999"', "1e999"))
        # a child process at the default log level, so that stderr holds
        # everything a user sees
        env = {k: v for k, v in os.environ.items() if k != "TMF_LOG"}
        env["PYTHONPATH"] = str(Path(tmfusion.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "tmfusion", "ingest", "--config", str(cfg)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr and str(cfg) in proc.stderr
        assert proc.stderr.count(str(cfg)) == 1, proc.stderr  # printed once, not logged too

    def test_configured_path_that_is_a_directory_exits_1(self, run_dir, capsys):
        cfg = write_config(run_dir, paths={"ohlcv_csv": ".", "tweets_jsonl": "tweets.jsonl"})
        assert run_cli("ingest", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "ohlcv_csv" in err and "is not a file" in err and "Traceback" not in err

    def test_negative_seed_flag_exits_1(self, run_dir, capsys):
        assert run_cli("ingest", "--config", str(run_dir / "config.json"), "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not (run_dir / "out" / "ingest_manifest.json").exists()

    @pytest.mark.parametrize("target, stage", [
        ("config.json", "ingest"), ("lexicon.json", "features"),
        ("out/checkpoint.json", "evaluate"), ("out/report.json", "report"),
    ])
    def test_integer_of_over_4300_digits_exits_1(self, run_dir, capsys, target, stage):
        """Python refuses to parse an integer that long; each JSON reader
        reports it as a SchemaError naming the file, not a traceback."""
        lexicon = run_dir / "lexicon.json"
        lexicon.write_text(json.dumps({"surged": {"polarity": 0.8, "subjectivity": 0.5}}))
        cfg = write_config(run_dir, paths={"ohlcv_csv": "bars.csv", "tweets_jsonl": "tweets.jsonl",
                                           "lexicon": "lexicon.json"})
        prepare_dataset(run_dir)
        assert run_cli("train", "--config", str(cfg)) == 0
        assert run_cli("evaluate", "--config", str(cfg)) == 0
        path = run_dir / target
        # the file's first number becomes an integer of 4301 digits
        path.write_text(re.sub(r"(:\s*)-?\d[\d.eE+-]*", r"\g<1>" + "9" * 4301, path.read_text(),
                               count=1))
        capsys.readouterr()
        assert run_cli(stage, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_non_finite_embedding_component_exits_1_before_writing(self, run_dir, capsys):
        """An embedding file with a nan component fails ``features`` with a
        SchemaError naming its line, and no dataset file is written."""
        (run_dir / "vectors.txt").write_text("surged 0.1 0.2 0.3\nstock 0.4 nan 0.6\n")
        cfg = write_config(
            run_dir, feature_set=["sentiment", "text"],
            paths={"ohlcv_csv": "bars.csv", "tweets_jsonl": "tweets.jsonl",
                   "embedding": "vectors.txt"},
        )
        assert run_cli("ingest", "--config", str(cfg)) == 0
        capsys.readouterr()
        assert run_cli("features", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "vectors.txt: line 2" in err and "Traceback" not in err
        assert not (run_dir / "out" / "dataset").exists()

    def test_config_rejects_unknown_cell_and_flags(self, tmp_path, rng):
        write_corpus(tmp_path, rng, n_tweets=10)
        cfg = write_config(tmp_path, cell="transformer")
        assert run_cli("ingest", "--config", str(cfg)) == 1
        cfg = write_config(tmp_path, feature_set=["volume"])
        assert run_cli("ingest", "--config", str(cfg)) == 1
