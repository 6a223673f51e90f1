import numpy as np
import pytest

from efh.data import generate_dataset, generate_synthetic_scene
from efh.decoder import DetectionSet
from efh.model import Detector, ModelConfig
from efh.nn import make_rng
from efh.textenc import LanguageCache
import efh.trainer
from efh.trainer import NonFiniteLossError, evaluate_model, run_training, train_step
from efh.training import AdamW

SMALL = dict(d=32, d_text=32, heads=8, text_heads=4, layers=2,
             text_layers=1, k_q=8)


def small_model(seed=0):
    return Detector(ModelConfig(seed=seed, **SMALL))


def scene(seed=0, size=32):
    img, gt, vocab = generate_synthetic_scene(seed, canvas_size=size)
    return img, gt, vocab


class TestModelConfig:
    def test_divisibility_validated(self):
        with pytest.raises(ValueError):
            ModelConfig(d=30, heads=8)
        with pytest.raises(ValueError):
            ModelConfig(d_text=30, text_heads=4)

    def test_json_roundtrip(self):
        cfg = ModelConfig(**SMALL)
        back = ModelConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig.from_json('{"d": 64, "bogus": 1}')


class TestDetector:
    def test_detect_returns_detection_set(self):
        model = small_model()
        img, _, vocab = scene()
        det = model.detect(img, "Detect objects in red circle", vocab)
        assert isinstance(det, DetectionSet)
        for d in det.detections:
            assert len(d.bbox) == 4
            assert 0.0 <= d.score <= 1.0
            assert d.label in vocab

    def test_detect_deterministic(self):
        img, _, vocab = scene(3)
        a = small_model(seed=5).detect(img, "find shapes", vocab).to_json()
        b = small_model(seed=5).detect(img, "find shapes", vocab).to_json()
        assert a == b

    def test_cache_does_not_change_output(self):
        model = small_model()
        img, _, vocab = scene(4)
        plain = model.detect(img, "find shapes", vocab).to_json()
        cache = LanguageCache()
        model.detect(img, "find shapes", vocab, cache)      # warm
        warm = model.detect(img, "find shapes", vocab, cache).to_json()
        assert plain == warm

    def test_save_load_bit_exact(self, tmp_path):
        img, _, vocab = scene(6)
        model = small_model(seed=1)
        before = model.detect(img, "find shapes", vocab).to_json()
        path = tmp_path / "m.otck"
        model.save(path)
        other = small_model(seed=2)
        other.load(path)
        assert other.detect(img, "find shapes", vocab).to_json() == before

    def test_cache_warmed_before_load_not_served(self, tmp_path):
        img, _, vocab = scene(5)
        path = tmp_path / "seed1.otck"
        small_model(seed=1).save(path)
        model = small_model(seed=0)
        cache = LanguageCache()
        model.detect(img, "find shapes", vocab, cache)     # warm on seed-0 weights
        model.load(path)
        cached = model.detect(img, "find shapes", vocab, cache).to_json()
        assert cached == model.detect(img, "find shapes", vocab).to_json()
        assert cache.stats()["evictions"] == 0   # emptying is not eviction

    def test_cache_shared_by_two_detectors(self):
        img, _, vocab = scene(5)
        models = [small_model(seed=0), small_model(seed=1)]
        cache = LanguageCache()
        for _ in range(2):
            for model in models:
                cached = model.detect(img, "find shapes", vocab, cache).to_json()
                assert cached == model.detect(img, "find shapes", vocab).to_json()

    def test_cache_warmed_before_training_not_served(self):
        img, _, vocab = scene(5)
        model = small_model(seed=0)
        cache = LanguageCache()
        model.detect(img, "find shapes", vocab, cache)     # warm on untrained weights
        run_training(model, generate_dataset(range(2), canvas_size=32), steps=3)
        cached = model.detect(img, "find shapes", vocab, cache).to_json()
        assert cached == model.detect(img, "find shapes", vocab).to_json()

    def test_load_shape_mismatch_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.otck"
        model.save(path)
        bigger = Detector(ModelConfig(**{**SMALL, "k_q": 16}))
        with pytest.raises(ValueError):
            bigger.load(path)

    def test_trainable_excludes_frozen_text_layers(self):
        frozen_cfg = ModelConfig(**{**SMALL, "frozen_text_layers": 1})
        model = Detector(frozen_cfg)
        all_names = set(model.parameters())
        trainable = set(model.trainable_parameters())
        dropped = all_names - trainable
        assert dropped
        assert all(name.startswith("textenc.layer0") for name in dropped)


class TestTrainForward:
    def test_record_shapes(self):
        model = small_model()
        sample = generate_dataset([1], canvas_size=32)[0]
        od, dn, layout = model.train_forward(sample, model.config.dn, make_rng(0))
        n_dn = layout["groups"] * layout["per_group"]
        assert len(od) == model.config.layers
        for boxes, logits in od:
            assert boxes.shape == (model.config.k_q, 4)
            assert logits.shape == (model.config.k_q, len(sample.labels))
        for boxes, logits in dn:
            assert boxes.shape == (n_dn, 4)
            assert logits.shape == (n_dn, len(sample.labels))

    def test_no_dn_when_groups_zero(self):
        from efh.training import DnConfig
        model = small_model()
        sample = generate_dataset([1], canvas_size=32)[0]
        od, dn, layout = model.train_forward(sample, DnConfig(groups=0), make_rng(0))
        assert dn == []
        assert layout["groups"] == 0
        assert len(od) == model.config.layers


class TestTrainingLoop:
    def test_loss_decreases_on_single_sample(self):
        model = small_model(seed=3)
        sample = generate_dataset([2], canvas_size=32)[0]
        opt = AdamW(model.trainable_parameters(), lr=3e-4, total_steps=40)
        rng = make_rng(0)
        first = train_step(model, [sample], opt, model.config.dn,
                           model.config.loss_weights, rng)["total"]
        last = None
        for _ in range(39):
            last = train_step(model, [sample], opt, model.config.dn,
                              model.config.loss_weights, rng)["total"]
        assert last < first

    def test_run_training_metrics_and_determinism(self):
        samples = generate_dataset(range(3), canvas_size=32)

        def run():
            model = small_model(seed=4)
            metrics = run_training(model, samples, steps=5, seed=9, log_every=2)
            return metrics, model

        m1, model1 = run()
        m2, _ = run()
        assert m1 == m2
        assert m1[-1]["step"] == 5
        assert all("total" in rec for rec in m1)
        per_label, mean = evaluate_model(model1, samples)
        assert 0.0 <= mean <= 1.0

    def test_non_finite_forward_raises_before_update(self):
        model = small_model()
        sample = generate_dataset([2], canvas_size=32)[0]
        opt = AdamW(model.trainable_parameters(), lr=1e-3)
        model.parameters()["textenc.tok_emb"].data[:, 0] = np.inf
        with pytest.raises(NonFiniteLossError):
            train_step(model, [sample], opt, model.config.dn,
                       model.config.loss_weights, make_rng(0))
        assert opt.t == 0

    def test_non_finite_gradient_stops_before_update(self, monkeypatch):
        model = small_model()
        sample = generate_dataset([2], canvas_size=32)[0]
        params = model.trainable_parameters()
        opt = AdamW(params, lr=1e-3)
        before = {k: p.data.copy() for k, p in params.items()}
        real_backward = efh.trainer.backward

        def poisoned(loss):
            result = real_backward(loss)
            p = params["decoder.layer0.self_attn.q.w"]
            p.grad = np.full_like(p.grad, np.nan)
            return result

        monkeypatch.setattr(efh.trainer, "backward", poisoned)
        with pytest.raises(NonFiniteLossError):
            train_step(model, [sample], opt, model.config.dn,
                       model.config.loss_weights, make_rng(0))
        assert opt.t == 0
        assert all(np.array_equal(before[k], p.data) for k, p in params.items())
