"""Tests of the benchmark's own checks, and a short run of every workload.

Each output check must pass on the program's real output and fail when
given a corrupted one. Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from efh import Detector, LanguageCache, ModelConfig  # noqa: E402
from efh.textenc import ROLE_LABEL  # noqa: E402
from efh.training import GroundTruth  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def model():
    return Detector(ModelConfig())


@pytest.fixture(scope="module")
def frame():
    image, _, _ = inputs.scene(inputs.rng_for(0, "images"), 64)
    return workloads.Frame(image, inputs.STEADY_PROMPT, list(inputs.VOCAB8))


@pytest.fixture(scope="module")
def frame_json(model, frame):
    return model.detect(frame.image, frame.prompt, frame.labels).to_json()


def corrupt(text, edit):
    doc = json.loads(text)
    edit(doc["detections"])
    return json.dumps(doc)


class TestFrameCheck:
    def check(self, model, text, labels):
        cfg = model.config
        return checks.check_detection_json(text, labels, cfg.k_q, cfg.score_threshold)

    def test_program_output_passes(self, model, frame, frame_json):
        assert json.loads(frame_json)["detections"], "the frame should have detections"
        assert self.check(model, frame_json, frame.labels) == []

    def test_box_outside_unit_interval_fails(self, model, frame, frame_json):
        bad = corrupt(frame_json, lambda d: d[0]["bbox"].__setitem__(2, 1.2))
        assert self.check(model, bad, frame.labels)

    def test_unsorted_scores_fail(self, model, frame, frame_json):
        bad = corrupt(frame_json, lambda d: d.reverse())
        assert self.check(model, bad, frame.labels)

    def test_label_outside_the_list_fails(self, model, frame, frame_json):
        assert self.check(model, frame_json, frame.labels[1:])

    def test_score_below_threshold_fails(self, model, frame, frame_json):
        bad = corrupt(frame_json, lambda d: d[-1].__setitem__("score", 0.01))
        assert self.check(model, bad, frame.labels)

    def test_too_many_detections_fail(self, frame, frame_json):
        n = len(json.loads(frame_json)["detections"])
        assert checks.check_detection_json(frame_json, frame.labels, n - 1, 0.05)

    def test_unparsable_json_fails(self, frame):
        assert checks.check_detection_json("{", frame.labels, 64, 0.05)


class TestCacheChecks:
    def test_swapped_cache_entry_fails(self, model, frame, frame_json):
        cache = LanguageCache()
        model.encode_text(frame.prompt, frame.labels, cache)
        cached = model.detect(frame.image, frame.prompt, frame.labels, cache).to_json()
        assert checks.check_same_json(cached, frame_json) == []
        other = model.textenc.encode_text(frame.labels[1])[0].data
        cache.insert(ROLE_LABEL, frame.labels[0], other)
        swapped = model.detect(frame.image, frame.prompt, frame.labels, cache).to_json()
        assert checks.check_same_json(swapped, frame_json)

    def test_hit_count_off_by_one_fails(self, model):
        cache, lru = LanguageCache(capacity=4), checks.LruModel(4)
        for labels in (["a b", "c d"], ["e f", "a b", "g h"], ["i j", "c d"]):
            lru.encode("find", labels)
            model.encode_text("find", labels, cache)
        stats = cache.stats()
        assert stats["evictions"] > 0 and stats["hits"] > 0
        assert checks.check_counters(lru.stats(), stats) == []
        stats["hits"] += 1
        assert checks.check_counters(lru.stats(), stats)


class TestTopK:
    @pytest.fixture(scope="class")
    def selection(self, model, frame):
        _, le = model.encode_text(frame.prompt, frame.labels)
        encoded = model.encode_image(frame.image)
        candidates, proposals = model.encoder.propose(encoded, le, model.config.k_q)
        projected = model.encoder.project_labels(le).data
        return (candidates.relevance.data, proposals.indices, encoded.o.data, projected,
                model.config.k_q)

    def test_program_selection_passes(self, selection):
        assert checks.check_topk(*selection) == []

    def test_swapped_index_fails(self, selection):
        relevance, indices, o, projected, k = selection
        outside = int(np.argmin(relevance))
        assert checks.check_topk(relevance, indices[:-1] + [outside], o, projected, k)

    def test_wrong_relevance_fails(self, selection):
        relevance, indices, o, projected, k = selection
        assert checks.check_topk(relevance + 1e-3, indices, o, projected, k)


class TestReversal:
    def test_program_passes_and_a_moved_box_fails(self, model, frame, frame_json):
        rev = model.detect(frame.image, frame.prompt, frame.labels[::-1]).to_json()
        assert checks.check_reversal(frame_json, rev) == []
        moved = corrupt(rev, lambda d: d[0]["bbox"].__setitem__(0, d[0]["bbox"][0] + 1e-3))
        assert checks.check_reversal(frame_json, moved)


class TestTraining:
    def test_flipped_gradient_fails(self, model):
        img, boxes, ids = inputs.scene(inputs.rng_for(0, "images"), 64)
        sample = workloads.Sample(img, inputs.STEADY_PROMPT, list(inputs.VOCAB8),
                                  GroundTruth(boxes, ids))
        ad, fd = workloads.directional_derivatives(model, sample, seed=0)
        assert checks.check_directional(ad, fd) == []
        assert checks.check_directional(-ad, fd)

    def test_non_finite_loss_fails(self):
        assert checks.check_losses({"od": 1.0, "dn": 2.0, "total": 3.0}) == []
        assert checks.check_losses({"od": float("nan"), "dn": 2.0, "total": 3.0})


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run_passes(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in declared} == set(result["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "detect_steady", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
