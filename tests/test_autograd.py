import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efh.autograd import (AttentionMask, AutogradError, ShapeError, Tensor,
                          backward, bilinear_sample, concat, grad_check,
                          layer_norm, matmul, ms_deform_attn, no_grad, softmax,
                          stack, top_k)
from efh.data import generate_dataset
from efh.model import Detector, ModelConfig
from efh.nn import MultiHeadSelfAttention, make_rng
from efh.textenc import LanguageCache
from efh.trainer import train_step
from efh.training import AdamW


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


class TestMatmul:
    def test_identity(self):
        a = t64(np.eye(2))
        b = t64([[1, 2], [3, 4]])
        assert np.array_equal(matmul(a, b).data, [[1, 2], [3, 4]])

    def test_projector(self):
        a = t64([[1, 0], [0, 0]])
        b = t64([[5, 6], [7, 8]])
        assert np.array_equal(matmul(a, b).data, [[5, 6], [0, 0]])

    def test_against_triple_loop(self):
        rng = make_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ref = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    ref[i, j] += a[i, k] * b[k, j]
        got = matmul(t64(a), t64(b)).data
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(t64([0.0, 0.0])).data, [0.5, 0.5])

    def test_shift_stability(self):
        out = softmax(t64([1000.0, 1000.0, 1000.0])).data
        assert np.allclose(out, [1 / 3] * 3)
        assert np.all(np.isfinite(out))

    def test_direct_evaluation(self):
        out = softmax(t64([1.0, 2.0, 3.0])).data
        assert np.allclose(out, [0.09003, 0.24473, 0.66524], atol=1e-5)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_slices_sum_to_one(self, values):
        out = softmax(t64(values)).data
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)

    def test_f32_tolerance(self):
        rng = make_rng(1)
        x = Tensor(rng.normal(size=(5, 7)).astype(np.float32))
        out = softmax(x, axis=1).data
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-6


class TestLayerNorm:
    def test_constant_slice(self):
        x = t64([5.0, 5.0, 5.0])
        out = layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_hand_evaluation(self):
        x = t64([1.0, 3.0])
        out = layer_norm(x, t64(np.ones(2)), t64(np.zeros(2)), eps=1e-14)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_zero_gamma_gives_beta(self):
        x = t64([2.0, -1.0, 7.0])
        beta = t64([1.0, 2.0, 3.0])
        out = layer_norm(x, t64(np.zeros(3)), beta)
        assert np.allclose(out.data, beta.data)


class TestSelfAttention:
    def test_single_token_weight_one(self):
        rng = make_rng(2)
        attn = MultiHeadSelfAttention(rng, 8, 2, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, 8)))
        w = attn.attention_weights(x)
        assert np.allclose(w, 1.0)
        expected = attn.o(attn.v(x)).data
        assert np.allclose(attn(x).data, expected)

    def test_diagonal_mask_matches_rowwise_singleton(self):
        rng = make_rng(3)
        attn = MultiHeadSelfAttention(rng, 8, 2, dtype=np.float64)
        x = Tensor(rng.normal(size=(5, 8)))
        mask = AttentionMask(np.eye(5, dtype=bool))
        masked = attn(x, mask=mask).data
        rowwise = np.vstack([attn(x[i:i + 1]).data for i in range(5)])
        assert np.allclose(masked, rowwise, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = make_rng(4)
        attn = MultiHeadSelfAttention(rng, 16, 4, dtype=np.float64)
        x = rng.normal(size=(6, 16))
        perm = rng.permutation(6)
        out = attn(Tensor(x)).data
        out_perm = attn(Tensor(x[perm])).data
        assert np.max(np.abs(out_perm - out[perm])) < 1e-10

    def test_blocked_entries_get_zero_weight(self):
        rng = make_rng(5)
        attn = MultiHeadSelfAttention(rng, 8, 2, dtype=np.float64)
        x = Tensor(rng.normal(size=(4, 8)))
        allow = np.ones((4, 4), dtype=bool)
        allow[0, 2] = allow[3, 1] = False
        w = attn.attention_weights(x, mask=AttentionMask(allow))
        assert np.all(w[:, 0, 2] == 0.0)
        assert np.all(w[:, 3, 1] == 0.0)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(make_rng(0), 10, 3)


class TestBilinearSample:
    def test_on_grid(self):
        rng = make_rng(6)
        f = rng.normal(size=(5, 6, 3))
        out = bilinear_sample(t64(f), np.array([[2.0, 3.0]])).data
        assert np.array_equal(out[0], f[3, 2])

    def test_midpoint(self):
        f = np.zeros((2, 3, 1))
        f[0, 0, 0] = 1.0
        f[0, 1, 0] = 3.0
        out = bilinear_sample(t64(f), np.array([[0.5, 0.0]])).data
        assert np.isclose(out[0, 0], 2.0)

    def test_out_of_bounds_zero(self):
        rng = make_rng(7)
        f = rng.normal(size=(4, 4, 5))
        out = bilinear_sample(t64(f), np.array([[-10.0, -10.0]])).data
        assert np.array_equal(out[0], np.zeros(5))

    def test_all_on_grid_points_exact(self):
        rng = make_rng(8)
        f = rng.normal(size=(4, 5, 2))
        pts = [[x, y] for y in range(4) for x in range(5)]
        out = bilinear_sample(t64(f), np.array(pts, dtype=np.float64)).data
        assert np.array_equal(out.reshape(4, 5, 2), f)


def per_scale_deform_attn(values, scale_shapes, scale_offsets, refs, offsets, weights,
                          heads, points):
    """Reference: multi-scale deformable attention composed per scale from
    ``bilinear_sample`` and elementwise ops (the decoder's earlier form)."""
    nq, d = refs.shape[0], values.shape[1]
    h, s, dh, levels = heads, points, values.shape[1] // heads, len(scale_shapes)
    refs = Tensor(refs)
    offsets = offsets.reshape(nq, h, levels, s, 2)
    cx, cy, bw, bh = (refs[:, i].reshape(nq, 1, 1) for i in range(4))
    per_scale = []
    for level, ((hs, ws), start) in enumerate(zip(scale_shapes, scale_offsets)):
        vmap = values[start:start + hs * ws].reshape(hs, ws, h, dh).transpose(2, 0, 1, 3)
        px = (cx + offsets[:, :, level, :, 0] * bw * 0.5) * ws - 0.5
        py = (cy + offsets[:, :, level, :, 1] * bh * 0.5) * hs - 0.5
        pts = stack([px, py], axis=-1).transpose(1, 0, 2, 3).reshape(h, nq * s, 2)
        per_scale.append(bilinear_sample(vmap, pts).reshape(h, nq, s, dh))
    sampled = concat(per_scale, axis=2)
    w = weights.transpose(1, 0, 2).reshape(h, nq, levels * s, 1)
    return (sampled * w).sum(axis=2).transpose(1, 0, 2).reshape(nq, d)


def deform_inputs(rng, shapes, nq, heads, points, d, pixels=None):
    """Random op inputs; ``pixels(rng, size, extent)`` draws the sampling
    coordinates of each scale, from which the offsets are solved."""
    shapes = [tuple(sh) for sh in shapes]
    starts = list(np.cumsum([0] + [hh * ww for hh, ww in shapes[:-1]]))
    m = sum(hh * ww for hh, ww in shapes)
    refs = np.column_stack([rng.uniform(0.2, 0.8, size=(nq, 2)),
                            rng.uniform(0.1, 0.5, size=(nq, 2))])
    offsets = rng.normal(size=(nq, heads, len(shapes), points, 2))
    if pixels is not None:
        for level, (hh, ww) in enumerate(shapes):
            size = (nq, heads, points)
            px, py = pixels(rng, size, ww), pixels(rng, size, hh)
            cx, cy, bw, bh = (refs[:, i, None, None] for i in range(4))
            offsets[:, :, level, :, 0] = ((px + 0.5) / ww - cx) / (bw * 0.5)
            offsets[:, :, level, :, 1] = ((py + 0.5) / hh - cy) / (bh * 0.5)
    weights = rng.uniform(0.1, 1.0, size=(nq, heads, len(shapes) * points))
    return (rng.normal(size=(m, d)), shapes, starts, refs,
            offsets.reshape(nq, -1), weights)


class TestMsDeformAttn:
    SHAPES = ((4, 5), (2, 3), (1, 1))

    @staticmethod
    def around_grid(rng, size, extent):
        """Coordinates past both borders, straddling each edge and inside,
        all at least 0.05 from an integer, so no finite difference crosses
        a cell boundary."""
        regimes = np.array([-3.3, -0.45, 0.3, extent - 0.6, extent + 1.7])
        return rng.choice(regimes, size=size) + rng.uniform(-0.2, 0.2, size=size)

    def test_grad_check_past_borders_and_straddling_edges(self):
        rng = make_rng(20)
        values, shapes, starts, refs, offsets, weights = deform_inputs(
            rng, self.SHAPES, nq=3, heads=2, points=3, d=6, pixels=self.around_grid)
        coeff = Tensor(rng.normal(size=(3, 6)))

        def f(v, o, w):
            return (ms_deform_attn(v, shapes, starts, refs, o, w, 2, 3) * coeff).sum()

        err = grad_check(f, [t64(values), t64(offsets), t64(weights)])
        assert err < 1e-8

    def test_repeated_cells_accumulate(self):
        # every point of every query samples the centre of cell (x=1, y=2)
        # of one 4x4 scale, so the value gradient is a sum over all of them
        rng = make_rng(21)
        nq, heads, points, d = 3, 2, 4, 4
        refs = np.tile([[1.5 / 4, 2.5 / 4, 0.3, 0.3]], (nq, 1))
        weights = rng.uniform(0.1, 1.0, size=(nq, heads, points))
        v = t64(rng.normal(size=(16, d)))
        v.requires_grad = True
        out = ms_deform_attn(v, [(4, 4)], [0], refs, t64(np.zeros((nq, heads, 1, points, 2))),
                             t64(weights), heads, points)
        grads = backward(out.sum())
        expected = np.zeros((16, d))
        expected[2 * 4 + 1] = np.repeat(weights.sum(axis=(0, 2)), d // heads)
        assert np.allclose(grads[v], expected, rtol=0, atol=1e-12)
        assert np.allclose(out.data, np.repeat(weights.sum(axis=2), d // heads, axis=1)
                           * v.data[9], rtol=0, atol=1e-12)
        err = grad_check(lambda vv, w: (ms_deform_attn(
            vv, [(4, 4)], [0], refs, np.zeros((nq, heads, 1, points, 2)), w,
            heads, points) ** 2).sum(), [t64(v.data), t64(weights)])
        assert err < 1e-8

    def test_f32_bit_equal_to_per_scale_composition(self):
        # same float operations in the same order: outputs and gradients
        # agree bit for bit, so detections and training runs do too
        rng = make_rng(22)
        nq, heads, points, d = 16, 8, 4, 64
        values, shapes, starts, refs, offsets, weights = deform_inputs(
            rng, ((8, 8), (4, 4), (2, 2)), nq, heads, points, d)
        offsets = offsets * 3    # some points leave the grid
        args = [Tensor(a.astype(np.float32), requires_grad=True)
                for a in (values, offsets, weights)]
        refs32 = refs.astype(np.float32)
        coeff = Tensor(rng.normal(size=(nq, d)).astype(np.float32))
        fused = ms_deform_attn(args[0], shapes, starts, refs32, args[1], args[2],
                               heads, points)
        g_fused = backward((fused * coeff).sum())
        g_fused = [g_fused[a] for a in args]
        ref = per_scale_deform_attn(args[0], shapes, starts, refs32, args[1], args[2],
                                    heads, points)
        for a in args:
            a.grad = None
        g_ref = backward((ref * coeff).sum())
        assert fused.dtype == np.float32
        assert np.array_equal(fused.data, ref.data)
        for a, g in zip(args, g_fused):
            assert np.array_equal(g, g_ref[a])

    def test_refs_are_constant(self):
        rng = make_rng(23)
        values, shapes, starts, refs, offsets, weights = deform_inputs(
            rng, self.SHAPES, nq=2, heads=2, points=1, d=4)
        with pytest.raises(AutogradError):
            ms_deform_attn(values, shapes, starts, Tensor(refs, requires_grad=True),
                           offsets, weights, 2, 1)
        with pytest.raises(ShapeError):
            ms_deform_attn(values, shapes, starts, refs, offsets[:, :-2], weights, 2, 1)


class TestTopK:
    def test_basic(self):
        assert top_k(np.array([0.1, 0.9, 0.5]), 2) == [1, 2]

    def test_tie_break_lower_index(self):
        assert top_k(np.array([0.9, 0.9]), 1) == [0]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            top_k(np.array([1.0, 2.0]), 3)

    def test_against_sort_oracle(self):
        rng = make_rng(9)
        scores = rng.normal(size=64)
        got = top_k(scores, 8)
        oracle = sorted(range(64), key=lambda i: (-scores[i], i))[:8]
        assert got == oracle

    def test_thousand_random_with_duplicates(self):
        rng = make_rng(10)
        for _ in range(1000):
            n = int(rng.integers(1, 20))
            scores = rng.integers(0, 5, size=n).astype(np.float64)
            k = int(rng.integers(1, n + 1))
            oracle = sorted(range(n), key=lambda i: (-scores[i], i))[:k]
            assert top_k(scores, k) == oracle


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        grads = backward(x.sum())
        assert np.array_equal(grads[x], np.ones((2, 3)))

    def test_matmul_grad_structure(self):
        rng = make_rng(11)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        grads = backward(matmul(a, b).sum())
        ones = np.ones((3, 2))
        assert np.allclose(grads[a], ones @ b.data.T)
        assert np.allclose(grads[b], a.data.T @ ones)
        err = grad_check(lambda x, y: matmul(x, y).sum(),
                         [Tensor(a.data.copy()), Tensor(b.data.copy())])
        assert err < 1e-9

    def test_detached_absent(self):
        x = Tensor(np.ones(3), requires_grad=True)
        d = x.detach()
        grads = backward((x * 2.0).sum() + d.sum())
        assert x in grads
        assert d not in grads

    def test_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutogradError):
            backward(x * 2.0)


class TestGradCheck:
    def test_square(self):
        x = Tensor(np.array([3.0]))
        assert grad_check(lambda t: (t * t).sum(), [x]) < 1e-9

    def test_softmax_matmul_composition(self):
        rng = make_rng(12)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 3)))
        coeffs = Tensor(rng.normal(size=(3, 3)))

        def f(x, y):
            return (softmax(matmul(x, y), axis=1) * coeffs).sum()

        assert grad_check(f, [a, b]) < 1e-6

    def test_every_kernel_under_1e5(self):
        rng = make_rng(13)
        checks = []
        x = Tensor(rng.normal(size=(4, 6)))
        checks.append(grad_check(lambda t: softmax(t, axis=1).sum(axis=0)[2], [x]))
        g = Tensor(rng.normal(size=6))
        b = Tensor(rng.normal(size=6))
        checks.append(grad_check(
            lambda t, gg, bb: (layer_norm(t, gg, bb) ** 2).sum(),
            [Tensor(rng.normal(size=(3, 6))), g, b]))
        f = Tensor(rng.normal(size=(5, 5, 2)))
        p = Tensor(rng.uniform(0.3, 3.7, size=(7, 2)))
        checks.append(grad_check(
            lambda ff, pp: (bilinear_sample(ff, pp) ** 2).sum(), [f, p]))
        checks.append(grad_check(
            lambda t: (t.sigmoid() * t.gelu() + t.relu() - t.tanh()).sum(),
            [Tensor(rng.normal(size=8) + 0.05)]))
        assert max(checks) <= 1e-5


class TestAttentionMask:
    def test_fully_blocked_row_rejected(self):
        allow = np.ones((3, 3), dtype=bool)
        allow[1, :] = False
        with pytest.raises(ValueError):
            AttentionMask(allow)

    def test_full_mask(self):
        m = AttentionMask.full(4)
        assert m.shape == (4, 4)
        assert m.allow.all()


class TestFiniteGuard:
    def test_non_finite_raises(self):
        x = Tensor(np.array([1.0, 0.0]))
        with pytest.raises(FloatingPointError):
            _ = x.log() * 0.0  # log(0) = -inf
        with no_grad(), pytest.raises(FloatingPointError):
            _ = x.log() * 0.0

    def test_concat_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((4, 3)), requires_grad=True)
        grads = backward((concat([a, b], axis=0) * 2.0).sum())
        assert grads[a].shape == (2, 3)
        assert grads[b].shape == (4, 3)


class TestNoGrad:
    def test_ops_record_no_tape(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with no_grad():
            outs = [matmul(x, w), (x * 2.0).sum(), softmax(x, axis=1), x[0],
                    concat([x, x], axis=0)]
        for y in outs:
            assert y._children == ()
            assert y._backward is None
            assert not y.requires_grad
        y = matmul(x, w)
        assert y._children == (x, w)
        assert y._backward is not None

    def test_flag_restored_after_exception(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside the scope")
        assert (x * 2.0)._backward is not None

    def test_other_thread_keeps_its_tape(self):
        entered, release = threading.Event(), threading.Event()
        inside = []

        def infer():
            with no_grad():
                entered.set()
                release.wait(timeout=10)
                inside.append(Tensor(np.ones(2), requires_grad=True) * 2.0)

        worker = threading.Thread(target=infer)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            x = Tensor(np.arange(3.0), requires_grad=True)
            y = (x * x).sum()   # recorded while the other thread is inside no_grad
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert np.array_equal(backward(y)[x], 2.0 * x.data)
        assert inside[0]._backward is None

    def test_train_step_after_detect_unchanged(self):
        cfg = ModelConfig(d=32, d_text=32, heads=8, text_heads=4, layers=2,
                          text_layers=1, k_q=8)
        sample = generate_dataset([1], canvas_size=32)[0]

        def step(detect_first):
            model = Detector(cfg)
            if detect_first:
                model.detect(sample.image, sample.prompt, sample.labels, LanguageCache())
            params = model.trainable_parameters()
            opt = AdamW(params, lr=1e-3)
            loss = train_step(model, [sample], opt, cfg.dn, cfg.loss_weights, make_rng(0))
            return loss, {k: p.grad for k, p in params.items()}

        loss_a, grads_a = step(detect_first=True)
        loss_b, grads_b = step(detect_first=False)
        assert loss_a == loss_b
        assert grads_a.keys() == grads_b.keys()
        assert any(g is not None for g in grads_a.values())
        for name, g in grads_a.items():
            assert (g is None) == (grads_b[name] is None), name
            assert g is None or np.array_equal(g, grads_b[name]), name
