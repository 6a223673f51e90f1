import json
import os

import numpy as np
import pytest

from efh.cli import EXIT_TRAINING, EXIT_USAGE, main
from efh.data import generate_synthetic_scene
from efh.model import Detector, ModelConfig
from efh.tensor_io import save_tensor, write_ppm

SMALL = {"d": 32, "d_text": 32, "heads": 8, "text_heads": 4,
         "layers": 2, "text_layers": 1, "k_q": 8}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(SMALL))
    ckpt = root / "model.otck"
    Detector(ModelConfig(**SMALL)).save(ckpt)
    img = generate_synthetic_scene(0, canvas_size=32)[0]
    save_tensor(root / "a.tnsr", img)
    write_ppm(root / "b.ppm", img)
    return root


def run(*argv):
    return main(list(argv))


class TestDetect:
    def test_single_image_json_out(self, workdir, tmp_path):
        out = tmp_path / "det.json"
        code = run("detect", "--config", str(workdir / "config.json"),
                   "--checkpoint", str(workdir / "model.otck"),
                   "--image", str(workdir / "a.tnsr"),
                   "--labels", "red circle,blue square",
                   "--prompt", "find shapes", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["image"] == "a"
        assert doc["prompt"] == "find shapes"
        for det in doc["detections"]:
            assert set(det) == {"bbox", "score", "label"}

    def test_directory_input_writes_per_image(self, workdir, tmp_path):
        out = tmp_path / "outdir"
        code = run("detect", "--config", str(workdir / "config.json"),
                   "--checkpoint", str(workdir / "model.otck"),
                   "--images", str(workdir),
                   "--labels", "red circle", "--prompt", "find",
                   "--out", str(out))
        assert code == 0
        assert sorted(os.listdir(out)) == ["a.json", "b.json"]

    def test_deterministic_across_runs(self, workdir, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run("detect", "--config", str(workdir / "config.json"),
                       "--checkpoint", str(workdir / "model.otck"),
                       "--image", str(workdir / "a.tnsr"),
                       "--labels", "red circle,blue square",
                       "--prompt", "find shapes", "--out", str(out)) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_missing_checkpoint_is_usage_error(self, workdir):
        assert run("detect", "--image", str(workdir / "a.tnsr"),
                   "--labels", "x", "--prompt", "p") == EXIT_USAGE

    def test_empty_labels_rejected(self, workdir):
        assert run("detect", "--checkpoint", str(workdir / "model.otck"),
                   "--image", str(workdir / "a.tnsr"),
                   "--labels", " , ", "--prompt", "p") == EXIT_USAGE

    def test_missing_image_rejected(self, workdir):
        assert run("detect", "--config", str(workdir / "config.json"),
                   "--checkpoint", str(workdir / "model.otck"),
                   "--image", str(workdir / "nope.tnsr"),
                   "--labels", "x", "--prompt", "p") == EXIT_USAGE

    def test_malformed_config_rejected(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus_field": 1}')
        assert run("detect", "--config", str(bad),
                   "--checkpoint", str(workdir / "model.otck"),
                   "--image", str(workdir / "a.tnsr"),
                   "--labels", "x", "--prompt", "p") == EXIT_USAGE


class TestTrain:
    def test_zero_steps_saves_checkpoint(self, workdir, tmp_path):
        out = tmp_path / "t.otck"
        code = run("train", "--config", str(workdir / "config.json"),
                   "--steps", "0", "--scenes", "2", "--out", str(out))
        assert code == 0
        assert out.exists()
        assert json.loads((tmp_path / "t.otck.metrics.json").read_text()) == []

    def test_few_steps_trains_and_logs(self, workdir, tmp_path, capsys):
        out = tmp_path / "t2.otck"
        code = run("train", "--config", str(workdir / "config.json"),
                   "--steps", "2", "--scenes", "2", "--seed", "1",
                   "--out", str(out))
        assert code == 0
        metrics = json.loads((tmp_path / "t2.otck.metrics.json").read_text())
        assert metrics[-1]["step"] == 2
        assert "total" in metrics[-1]

    def test_divergence_exits_3_with_finite_checkpoint(self, tmp_path):
        config = tmp_path / "diverge.json"
        config.write_text(json.dumps({"lr": 1e6}))
        out = tmp_path / "d.otck"
        code = run("train", "--config", str(config), "--steps", "5",
                   "--scenes", "2", "--out", str(out))
        assert code == EXIT_TRAINING
        model = Detector(ModelConfig())
        model.load(out)
        assert all(np.isfinite(p.data).all() for p in model.parameters().values())

    def test_jsonl_dataset_missing(self, workdir):
        assert run("train", "--dataset", "missing.jsonl", "--steps", "1") == EXIT_USAGE


class TestBench:
    def test_csv_report(self, workdir, tmp_path):
        out = tmp_path / "bench.csv"
        code = run("bench", "--config", str(workdir / "config.json"),
                   "--image", str(workdir / "a.tnsr"),
                   "--labels", "red circle", "--prompt", "find",
                   "--iters", "3", "--warmup", "1", "--format", "csv",
                   "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "component,mean_ms,p50_ms,p95_ms"
        assert len(lines) == 6   # header + 4 components + total

    def test_json_report_to_stdout(self, workdir, capsys):
        code = run("bench", "--config", str(workdir / "config.json"),
                   "--image", str(workdir / "a.tnsr"),
                   "--labels", "red circle", "--prompt", "find",
                   "--iters", "2", "--warmup", "0")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] == 2
        assert "text_backbone" in doc["components"]

    def test_zero_iters_rejected(self, workdir):
        assert run("bench", "--image", str(workdir / "a.tnsr"),
                   "--labels", "x", "--prompt", "p", "--iters", "0") == EXIT_USAGE


class TestBadInputs:
    """Each bad input ends in exit 2 and a single ``error:`` line."""

    @staticmethod
    def one_error_line(capsys):
        err = capsys.readouterr().err.strip().splitlines()
        return len(err) == 1 and err[0].startswith("error: ")

    def detect(self, workdir, image, config="config.json", checkpoint="model.otck"):
        return run("detect", "--config", str(workdir / config),
                   "--checkpoint", str(workdir / checkpoint), "--image", str(image),
                   "--labels", "red circle", "--prompt", "find")

    @pytest.mark.parametrize("command", ["detect", "bench", "train"])
    def test_truncated_checkpoint(self, workdir, tmp_path, capsys, command):
        ckpt = tmp_path / "cut.otck"
        ckpt.write_bytes((workdir / "model.otck").read_bytes()[:1000])
        args = {"detect": ["--image", str(workdir / "a.tnsr"), "--labels", "x",
                           "--prompt", "p"],
                "bench": ["--image", str(workdir / "a.tnsr"), "--labels", "x",
                          "--prompt", "p", "--iters", "1"],
                "train": ["--steps", "0", "--scenes", "1",
                          "--out", str(tmp_path / "t.otck")]}[command]
        code = run(command, "--config", str(workdir / "config.json"),
                   "--checkpoint", str(ckpt), *args)
        assert code == EXIT_USAGE
        assert self.one_error_line(capsys)

    def test_image_side_not_multiple_of_32(self, workdir, tmp_path, capsys):
        path = tmp_path / "small.tnsr"
        save_tensor(path, np.full((48, 48, 3), 0.5, dtype=np.float32))
        assert self.detect(workdir, path) == EXIT_USAGE
        assert self.one_error_line(capsys)

    def test_nan_pixel(self, workdir, tmp_path, capsys):
        img = np.full((32, 32, 3), 0.5, dtype=np.float32)
        img[0, 0, 0] = np.nan
        path = tmp_path / "nan.tnsr"
        save_tensor(path, img)
        assert self.detect(workdir, path) == EXIT_USAGE
        assert self.one_error_line(capsys)

    def test_more_queries_than_positions(self, workdir, tmp_path, capsys):
        # a 32x32 image has 16 + 4 + 1 = 21 encoder positions
        config = tmp_path / "kq64.json"
        config.write_text(json.dumps({**SMALL, "k_q": 64}))
        Detector(ModelConfig(**{**SMALL, "k_q": 64})).save(tmp_path / "kq64.otck")
        assert self.detect(tmp_path, workdir / "a.tnsr", config="kq64.json",
                           checkpoint="kq64.otck") == EXIT_USAGE
        assert self.one_error_line(capsys)

    def test_truncated_ppm(self, workdir, tmp_path, capsys):
        path = tmp_path / "cut.ppm"
        path.write_bytes((workdir / "b.ppm").read_bytes()[:-10])
        assert self.detect(workdir, path) == EXIT_USAGE
        assert self.one_error_line(capsys)
