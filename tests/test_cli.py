"""CLI integration tests (argparse wiring and end-to-end subcommands).

The end-to-end class covers the versioned-artifact flow the CLI is built
around: ``train --checkpoint`` writes a self-describing artifact and
``evaluate``/``forecast --checkpoint`` reconstruct the model from the
file alone — no model flags need to match the training invocation.
"""

import re
import threading

import numpy as np
import pytest

from repro.api import REGISTRY, read_artifact
from repro.cli import _drive_clients, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "--city", "chicago", "--out", "x.csv"])
        assert args.city == "chicago"
        assert args.func.__name__ == "_cmd_generate"

    def test_invalid_city_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--city", "gotham"])

    def test_compare_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--models", "NotAModel"])

    def test_every_registered_name_accepted(self):
        """Acceptance: ``compare``/``train`` accept any registry name."""
        for name in REGISTRY.names():
            args = build_parser().parse_args(["compare", "--models", name])
            assert args.models == [name]
            args = build_parser().parse_args(["train", "--model", name])
            assert args.model == name


class TestDriveClients:
    def test_issues_each_window_once_from_concurrent_clients(self):
        """``serve``'s load driver: every window goes out exactly once, and
        the ``clients`` threads are in flight at the same time (the barrier
        only opens once all of them have made their first call)."""
        clients = 3
        windows = list(range(7))
        barrier = threading.Barrier(clients, timeout=10)
        lock = threading.Lock()
        issued = []

        class Recorder:
            def predict(self, window):
                name = threading.current_thread().name
                with lock:
                    first = all(thread != name for thread, _ in issued)
                    issued.append((name, window))
                if first:
                    barrier.wait()
                return window

        elapsed = _drive_clients(Recorder(), windows, clients)
        assert elapsed > 0
        assert sorted(window for _, window in issued) == windows
        assert len({thread for thread, _ in issued}) == clients


SMALL = ["--rows", "4", "--cols", "4", "--days", "60"]


class TestEndToEnd:
    def test_generate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "events.csv"
        code = main(["generate", "--rows", "4", "--cols", "4", "--days", "30", "--out", str(out)])
        assert code == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "category,timestamp,longitude,latitude"

    def test_train_evaluate_forecast_artifact_flow(self, tmp_path, capsys):
        """train --checkpoint → evaluate/forecast --checkpoint, end to end.

        Training uses non-default model knobs (--window 8 --dim 6); the
        evaluate/forecast invocations pass *no* model flags at all — the
        artifact manifest alone reconstructs the model.
        """
        ckpt = tmp_path / "model.npz"
        code = main(
            ["train", *SMALL, "--window", "8", "--dim", "6", "--hyperedges", "16",
             "--epochs", "1", "--train-limit", "4", "--checkpoint", str(ckpt)]
        )
        assert code == 0
        assert ckpt.exists()
        train_out = capsys.readouterr().out
        assert "best val MAE" in train_out

        artifact = read_artifact(ckpt)
        assert artifact.model_name == "ST-HSL"
        assert artifact.build["window"] == 8
        assert artifact.build["hidden"] == 6
        assert artifact.build["overrides"]["num_hyperedges"] == 16

        code = main(["evaluate", *SMALL, "--checkpoint", str(ckpt)])
        assert code == 0
        eval_out = capsys.readouterr().out
        assert "loaded ST-HSL artifact (window=8)" in eval_out
        assert "(overall)" in eval_out

        code = main(["forecast", *SMALL, "--checkpoint", str(ckpt), "--horizon", "3"])
        assert code == 0
        forecast_out = capsys.readouterr().out
        assert "T+3" in forecast_out

    def test_train_baseline_model_artifact(self, tmp_path, capsys):
        """Any registered model trains and round-trips through the CLI."""
        ckpt = tmp_path / "stgcn.npz"
        code = main(
            ["train", *SMALL, "--model", "STGCN", "--window", "8",
             "--epochs", "1", "--train-limit", "4", "--checkpoint", str(ckpt)]
        )
        assert code == 0
        assert read_artifact(ckpt).model_name == "STGCN"
        code = main(["evaluate", *SMALL, "--checkpoint", str(ckpt)])
        assert code == 0
        assert "loaded STGCN artifact" in capsys.readouterr().out

    def test_compare_ranks_models(self, capsys):
        code = main(
            ["compare", *SMALL, "--window", "8", "--epochs", "1", "--train-limit", "4",
             "--models", "HA", "ARIMA"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ST-HSL" in out and "ARIMA" in out and "HA" in out

    @pytest.fixture()
    def trained_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        assert main(
            ["train", *SMALL, "--window", "8", "--dim", "6", "--epochs", "1",
             "--train-limit", "4", "--checkpoint", str(ckpt)]
        ) == 0
        capsys.readouterr()
        return ckpt

    def test_serve_reports_throughput(self, trained_checkpoint, capsys):
        code = main(
            ["serve", *SMALL, "--checkpoint", str(trained_checkpoint),
             "--requests", "12", "--concurrency", "2", "--max-batch", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving ST-HSL (window=8, dtype=float32, workers=1)" in out
        assert "requests_per_sec" in out and "mean_batch" in out
        # each of the 12 windows is issued exactly once
        assert re.search(r"^requests\s+12\s*$", out, re.MULTILINE)

    def test_serve_with_worker_pool(self, trained_checkpoint, capsys):
        code = main(
            ["serve", *SMALL, "--checkpoint", str(trained_checkpoint),
             "--requests", "12", "--concurrency", "4", "--max-batch", "2",
             "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "requests_per_sec" in out

    def test_serve_with_resilience_flags(self, trained_checkpoint, capsys):
        code = main(
            ["serve", *SMALL, "--checkpoint", str(trained_checkpoint),
             "--requests", "12", "--concurrency", "2", "--max-batch", "2",
             "--deadline-ms", "5000", "--max-queue", "64", "--fallback", "HA"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deadline=5000" in out and "max_queue=64" in out
        assert "fallback=HA" in out
        # the throughput table reports the resilience counters
        assert "shed" in out and "degraded" in out and "rejected" in out

    def test_migrate_artifact_rewrites_v1_in_place_equivalent(self, trained_checkpoint, tmp_path, capsys):
        """A v1 checkpoint migrates on disk and evaluates identically."""
        from repro import nn
        from repro.api import ARTIFACT_SCHEMA, ARTIFACT_SCHEMA_V1

        # Downgrade the trained artifact to the v1 layout.
        manifest, state = nn.load_archive(trained_checkpoint)
        manifest["schema"] = ARTIFACT_SCHEMA_V1
        manifest.pop("served_dtype"), manifest.pop("shard")
        v1 = tmp_path / "v1.npz"
        nn.save_archive(v1, state, manifest)

        out = tmp_path / "v2.npz"
        code = main(
            ["migrate-artifact", "--checkpoint", str(v1), "--out", str(out),
             "--served-dtype", "float32"]
        )
        assert code == 0
        assert f"{ARTIFACT_SCHEMA_V1} -> {ARTIFACT_SCHEMA}" in capsys.readouterr().out
        migrated = read_artifact(out)
        assert migrated.manifest["schema"] == ARTIFACT_SCHEMA
        assert migrated.served_dtype == "float32"
        assert all(
            np.array_equal(migrated.state[key], read_artifact(trained_checkpoint).state[key])
            for key in migrated.state
        )

    def test_migrate_artifact_rewrites_stored_float16_as_float32(self, trained_checkpoint, tmp_path):
        from repro import nn

        manifest, state = nn.load_archive(trained_checkpoint)
        legacy = tmp_path / "f16.npz"
        nn.save_archive(legacy, state, dict(manifest, served_dtype="float16"))
        assert main(["migrate-artifact", "--checkpoint", str(legacy)]) == 0
        rewritten, _ = nn.load_archive(legacy)  # the file itself, not a migrated read
        assert rewritten == dict(manifest, served_dtype="float32")

    def test_migrate_artifact_in_place_default(self, trained_checkpoint, capsys):
        code = main(["migrate-artifact", "--checkpoint", str(trained_checkpoint)])
        assert code == 0
        assert read_artifact(trained_checkpoint).manifest["schema"]
