"""Losses, optimizer, schedule, metrics, and the data-path helpers."""

import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from lightformer import ops
from lightformer import training as tr
from lightformer.rng import stream
from lightformer.tensor import ShapeError, Tape, Tensor

from oracles import adamw_step, put_along_axis_onehot

K = 4


def _logits(shape, seed=0, scale=1.0):
    data = (stream(seed, "loss").standard_normal(shape) * scale).astype(np.float64)
    return Tensor(data, requires_grad=True)


def _labels(shape, seed=1, classes=K):
    return stream(seed, "lab").integers(0, classes, size=shape)


def _perfect_logits(labels, classes=K, margin=40.0):
    b, h, w = labels.shape
    safe = np.where(labels == 255, 0, labels)
    out = np.full((b, classes, h, w), -margin, dtype=np.float64)
    np.put_along_axis(out, safe[:, None], margin, axis=1)
    return Tensor(out)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        labels = _labels((2, 6, 6))
        ce = tr.cross_entropy_loss(Tensor(np.zeros((2, K, 6, 6))), labels)
        assert abs(ce.data - math.log(K)) < 1e-6

    def test_uniform_nonzero_logits_give_log_k(self):
        labels = _labels((1, 5, 5))
        ce = tr.cross_entropy_loss(Tensor(np.full((1, K, 5, 5), 3.25)), labels)
        assert abs(ce.data - math.log(K)) < 1e-6

    def test_perfect_predictions_vanish(self):
        labels = _labels((2, 8, 8))
        ce = tr.cross_entropy_loss(_perfect_logits(labels), labels)
        assert 0.0 <= ce.data <= 1e-6

    def test_ignored_pixels_do_not_contribute(self):
        labels = _labels((1, 6, 6)).copy()
        logits = _logits((1, K, 6, 6), seed=3)
        kept = tr.cross_entropy_loss(logits, labels).data
        noisy = labels.copy()
        noisy[0, :2] = 255
        # recompute on the surviving pixels only
        manual = tr.cross_entropy_loss(
            Tensor(logits.data[:, :, 2:, :]), labels[:, 2:, :]).data
        assert abs(tr.cross_entropy_loss(logits, noisy).data - manual) < 1e-12
        assert abs(kept - manual) > 1e-4  # the masked rows did matter before

    def test_all_ignored_rejected(self):
        with pytest.raises(ValueError, match="ignore"):
            tr.cross_entropy_loss(_logits((1, K, 4, 4)), np.full((1, 4, 4), 255))

    def test_label_validation(self):
        logits = _logits((1, K, 4, 4))
        with pytest.raises((ValueError, ShapeError)):
            tr.cross_entropy_loss(logits, np.full((1, 4, 4), K))  # out of range
        with pytest.raises(TypeError, match="integer"):
            tr.cross_entropy_loss(logits, np.zeros((1, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            tr.cross_entropy_loss(logits, np.zeros((1, 5, 4), dtype=np.int64))


class TestDice:
    def test_perfect_predictions_vanish(self):
        labels = _labels((2, 8, 8), seed=5)
        dice = tr.dice_loss(_perfect_logits(labels), labels)
        assert 0.0 <= dice.data <= 1e-6

    def test_uniform_probabilities_land_at_known_value(self):
        # with p = 1/K on every true pixel the per-pixel term is
        # 2p / (p + 1), so the loss is 1 - 2/(1+K) up to epsilon
        labels = _labels((1, 10, 10), seed=6)
        dice = tr.dice_loss(Tensor(np.zeros((1, K, 10, 10))), labels)
        expected = 1.0 - 2.0 * (1.0 / K) / (1.0 / K + 1.0)
        assert abs(dice.data - expected) < 1e-5

    def test_gradient_flows(self):
        labels = _labels((1, 6, 6), seed=7)
        logits = _logits((1, K, 6, 6), seed=8)
        with Tape() as tape:
            loss = tr.dice_loss(logits, labels)
        g = tape.backward(loss).get(logits)
        assert g is not None and np.isfinite(g).all() and np.any(g)


class TestTotalLoss:
    def test_train_composition(self):
        labels = _labels((2, 8, 8), seed=9)
        logits = _logits((2, K, 8, 8), seed=10)
        aux = [_logits((2, K, 8, 8), seed=11 + i) for i in range(3)]
        bundle = tr.total_loss(logits, aux, labels, train=True)
        ce = tr.cross_entropy_loss(logits, labels).data
        dice = tr.dice_loss(logits, labels).data
        aux_ce = np.mean([tr.cross_entropy_loss(a, labels).data for a in aux])
        assert abs(bundle.total.data - (ce + dice + 0.4 * aux_ce)) < 1e-6
        assert abs(bundle.ce.data - ce) < 1e-12
        assert abs(bundle.dice.data - dice) < 1e-12
        assert abs(bundle.aux.data - aux_ce) < 1e-6

    def test_eval_composition_has_no_aux(self):
        labels = _labels((1, 8, 8), seed=12)
        logits = _logits((1, K, 8, 8), seed=13)
        bundle = tr.total_loss(logits, [], labels, train=False)
        expected = tr.cross_entropy_loss(logits, labels).data + \
            tr.dice_loss(logits, labels).data
        assert abs(bundle.total.data - expected) < 1e-6
        assert bundle.aux is None

    def test_mode_mismatches_rejected(self):
        labels = _labels((1, 8, 8), seed=14)
        logits = _logits((1, K, 8, 8), seed=15)
        with pytest.raises(ValueError, match="aux"):
            tr.total_loss(logits, [], labels, train=True)
        with pytest.raises(ValueError, match="aux"):
            tr.total_loss(logits, [logits], labels, train=False)

    def test_nonnegative_and_finite(self):
        for seed in range(5):
            labels = _labels((1, 6, 6), seed=20 + seed)
            logits = _logits((1, K, 6, 6), seed=30 + seed, scale=5.0)
            aux = [_logits((1, K, 6, 6), seed=40 + seed, scale=5.0)]
            total = tr.total_loss(logits, aux, labels, train=True).total.data
            assert np.isfinite(total) and total >= 0.0

    @pytest.mark.parametrize("train", [True, False])
    def test_targets_built_once_per_call(self, monkeypatch, train):
        calls = []
        real = tr._prep_targets

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(tr, "_prep_targets", counted)
        labels = _labels((2, 6, 6), seed=16)
        logits = _logits((2, K, 6, 6), seed=17)
        aux = [_logits((2, K, 6, 6), seed=18 + i) for i in range(3)] if train else []
        tr.total_loss(logits, aux, labels, train=train)
        assert calls == [logits.shape]

    def test_shared_targets_change_no_byte(self):
        # Each term and each adjoint equals the one its loss function
        # computes with targets of its own.
        labels = _labels((2, 6, 6), seed=19)
        labels[0, :2] = 255
        logits = _logits((2, K, 6, 6), seed=20)
        aux = [_logits((2, K, 6, 6), seed=21 + i) for i in range(3)]
        with Tape() as tape:
            bundle = tr.total_loss(logits, aux, labels, train=True)
        grads = tape.backward(bundle.total)
        with Tape() as tape:
            ce = tr.cross_entropy_loss(logits, labels)
            dice = tr.dice_loss(logits, labels)
            terms = [tr.cross_entropy_loss(a, labels) for a in aux]
            aux_mean = ops.mul(ops.add(ops.add(terms[0], terms[1]), terms[2]), 1.0 / 3)
            total = ops.add(ops.add(ce, dice), ops.mul(aux_mean, 0.4))
        ref = tape.backward(total)
        for got, want in ((bundle.ce, ce), (bundle.dice, dice), (bundle.aux, aux_mean), (bundle.total, total)):
            assert got.data.tobytes() == want.data.tobytes()
        for t in [logits] + aux:
            assert grads[t].tobytes() == ref[t].tobytes()

    @pytest.mark.parametrize("aux_shape", [(1, K, 8, 6), (1, K + 1, 8, 8)])
    def test_aux_shape_mismatch_names_the_aux(self, aux_shape):
        labels = _labels((1, 8, 8), seed=22)
        logits = _logits((1, K, 8, 8), seed=23)
        aux = [_logits((1, K, 8, 8), seed=24), _logits(aux_shape, seed=25)]
        with pytest.raises(ShapeError, match=rf"aux logits 1 .*{re.escape(str(aux_shape))}.*"
                                             rf"{re.escape(str(logits.shape))}"):
            tr.total_loss(logits, aux, labels, train=True)

    def test_aux_dtype_mismatch_names_the_aux(self):
        labels = _labels((1, 8, 8), seed=26)
        logits = _logits((1, K, 8, 8), seed=27)
        aux = [Tensor(_logits((1, K, 8, 8), seed=28).data.astype(np.float32))]
        with pytest.raises(ShapeError, match="aux logits 0 are float32"):
            tr.total_loss(logits, aux, labels, train=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 7])
@pytest.mark.parametrize("label_dtype", [np.int64, np.uint8])
def test_prep_targets_onehot_is_put_along_axis_bitwise(dtype, k, label_dtype):
    labels = stream(29, "onehot", str(k)).integers(0, k, size=(3, 5, 6)).astype(label_dtype)
    labels[0, 0, :3] = (0, k - 1, 255)
    labels[2, 4, :] = 255
    onehot, mask, count = tr._prep_targets(Tensor(np.zeros((3, k, 5, 6)), dtype=dtype), labels, 255)
    ref = put_along_axis_onehot(labels, k, dtype)
    assert onehot.data.dtype == ref.dtype and onehot.data.shape == ref.shape
    assert onehot.data.tobytes() == ref.tobytes()
    assert mask.data.tobytes() == (labels != 255)[:, None].astype(dtype).tobytes()
    assert count == int((labels != 255).sum())


def _store_of(values, dtype=np.float64):
    from lightformer.params import ParamStore
    store = ParamStore()
    for name, arr in values.items():
        a = np.asarray(arr, dtype=dtype)
        store.add(name, a.shape, ("zeros",)).data = a
    return store


class TestAdamW:
    def test_zero_gradient_is_pure_decay(self):
        store = _store_of({"encoder.w": [1.0, -2.0], "decoder.w": [4.0]})
        opt = tr.AdamW(store, {"encoder": 0.1, "decoder": 0.2}, weight_decay=0.5)
        opt.step({})
        np.testing.assert_array_equal(store["encoder.w"].data,
                                      np.array([1.0, -2.0]) * (1.0 - 0.1 * 0.5))
        np.testing.assert_array_equal(store["decoder.w"].data,
                                      np.array([4.0]) * (1.0 - 0.2 * 0.5))

    def test_first_step_closed_form(self):
        store = _store_of({"decoder.w": [0.0, 0.0, 0.0]})
        opt = tr.AdamW(store, {"decoder": 1e-2}, weight_decay=0.0)
        g = np.array([3.0, -0.5, 1e-12])
        opt.step({store["decoder.w"]: g})
        expected = -1e-2 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(store["decoder.w"].data, expected, rtol=1e-12)

    def test_longest_prefix_wins(self):
        store = _store_of({"decoder.head.w": [1.0], "decoder.body.w": [1.0]})
        opt = tr.AdamW(store, {"decoder": 0.1, "decoder.head": 0.7})
        assert opt._base_lr("decoder.head.w") == 0.7
        assert opt._base_lr("decoder.body.w") == 0.1

    def test_unmatched_parameter_rejected(self):
        store = _store_of({"stray.w": [1.0]})
        with pytest.raises(KeyError, match="stray.w"):
            tr.AdamW(store, {"decoder": 0.1})

    def test_nonfinite_gradient_raises_named_error(self):
        store = _store_of({"decoder.w": [1.0]})
        opt = tr.AdamW(store, {"decoder": 0.1})
        bad = np.array([np.nan])
        with pytest.raises(tr.DivergenceError, match=r"decoder\.w.*step 1"):
            opt.step({store["decoder.w"]: bad})

    def test_lr_scale_rescales_both_terms(self):
        a = _store_of({"decoder.w": [2.0]})
        b = _store_of({"decoder.w": [2.0]})
        g = np.array([1.0])
        tr.AdamW(a, {"decoder": 0.1}, weight_decay=0.2).step(
            {a["decoder.w"]: g}, lr_scale=0.5)
        tr.AdamW(b, {"decoder": 0.05}, weight_decay=0.2).step(
            {b["decoder.w"]: g})
        np.testing.assert_allclose(a["decoder.w"].data, b["decoder.w"].data, rtol=1e-15)

    def test_two_steps_track_reference_formulas(self):
        store = _store_of({"decoder.w": [0.5]})
        opt = tr.AdamW(store, {"decoder": 0.01}, weight_decay=0.1)
        grads = [np.array([0.3]), np.array([-0.7])]
        theta = 0.5
        m = v = 0.0
        for t, g in enumerate(grads, start=1):
            opt.step({store["decoder.w"]: g})
            theta = theta * (1.0 - 0.01 * 0.1)
            m = 0.9 * m + 0.1 * g[0]
            v = 0.999 * v + 0.001 * g[0] ** 2
            mh = m / (1.0 - 0.9 ** t)
            vh = v / (1.0 - 0.999 ** t)
            theta = theta - 0.01 * mh / (math.sqrt(vh) + 1e-8)
        assert abs(store["decoder.w"].data[0] - theta) < 1e-14

    # Store order interleaves the two lr groups, so the flat layout reorders
    # the tensors; "decoder.skip" never receives a gradient.
    SHAPES = {"encoder.a": (3, 4), "decoder.b": (5,), "encoder.c": (2, 1, 3), "decoder.skip": (4,),
              "decoder.d": (2, 2)}
    LRS = {"encoder": 0.01, "decoder": 0.03}

    def _fresh(self, dtype):
        """An optimizer and the oracle's (params, m, v, lrs) in the same state."""
        rng = stream(30, "adamw.init", np.dtype(dtype).name)
        values = {name: rng.standard_normal(shape).astype(dtype) for name, shape in self.SHAPES.items()}
        store = _store_of({name: value.copy() for name, value in values.items()}, dtype)
        opt = tr.AdamW(store, self.LRS, weight_decay=0.05)
        lrs = {name: self.LRS[name.split(".")[0]] for name in values}
        zeros = {name: np.zeros_like(value) for name, value in values.items()}
        return store, opt, (values, dict(zeros), dict(zeros), lrs)

    @staticmethod
    def _step(opt, store, grads, lr_scale=1.0):
        opt.step({store[name]: g for name, g in grads.items()}, lr_scale)

    def _grads(self, seed, step, dtype, scale=1.0):
        rng = stream(seed, "adamw.grad", str(step), np.dtype(dtype).name)
        return {name: (rng.standard_normal(shape) * scale).astype(dtype)
                for name, shape in self.SHAPES.items() if name != "decoder.skip"}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_twenty_steps_match_per_tensor_oracle_bytes(self, dtype):
        store, opt, (params, m, v, lrs) = self._fresh(dtype)
        for t in range(1, 21):
            grads = self._grads(31, t, dtype, scale=10.0 ** (t % 5 - 2))
            lr_scale = tr.cosine_lr(t - 1, 20, 1.0, 0.1)
            self._step(opt, store, grads, lr_scale)
            adamw_step(params, grads, m, v, t, lrs, lr_scale=lr_scale, weight_decay=0.05)
            for name, ref in params.items():
                got = store[name].data
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), f"{name} differs at step {t}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_split_tensors_and_match_oracle_bytes(self, dtype):
        # 256 KiB blocks: the encoder group (75,007 values) spans two float32
        # blocks and three float64 ones, with boundaries inside "encoder.big".
        shapes = {"encoder.big": (300, 250), "decoder.x": (40000,), "encoder.small": (7,)}
        rng = stream(35, "adamw.blocks", np.dtype(dtype).name)
        params = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
        store = _store_of({name: a.copy() for name, a in params.items()}, dtype)
        opt = tr.AdamW(store, self.LRS, weight_decay=0.05)
        assert len(opt._blocks) == (3 if dtype is np.float32 else 5)
        lrs = {name: self.LRS[name.split(".")[0]] for name in params}
        m = {name: np.zeros_like(a) for name, a in params.items()}
        v = {name: np.zeros_like(a) for name, a in params.items()}
        for t in range(1, 4):
            grads = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
            self._step(opt, store, grads, 0.7)
            adamw_step(params, grads, m, v, t, lrs, lr_scale=0.7, weight_decay=0.05)
            for name, ref in params.items():
                assert store[name].data.tobytes() == ref.tobytes(), f"{name} differs at step {t}"

    def test_load_state_after_construction_is_updated(self):
        store, opt, (params, m, v, lrs) = self._fresh(np.float32)
        grads = self._grads(32, 1, np.float32)
        self._step(opt, store, grads)
        adamw_step(params, grads, m, v, 1, lrs, weight_decay=0.05)
        loaded = {name: a + np.float32(0.5) for name, a in params.items()}
        store.load_state(loaded)
        params = {name: a.copy() for name, a in loaded.items()}
        grads = self._grads(32, 2, np.float32)
        self._step(opt, store, grads)
        adamw_step(params, grads, m, v, 2, lrs, weight_decay=0.05)
        for name, ref in params.items():
            assert store[name].data.tobytes() == ref.tobytes(), name

    def test_state_arrays_stay_a_snapshot(self):
        store, opt, _ = self._fresh(np.float32)
        saved = store.state_arrays()
        before = {name: a.tobytes() for name, a in saved.items()}
        self._step(opt, store, self._grads(34, 1, np.float32))
        assert {name: a.tobytes() for name, a in saved.items()} == before
        assert store["encoder.a"].data.tobytes() != before["encoder.a"]

    def test_one_dtype_for_the_flat_buffer(self):
        store = _store_of({"decoder.a": [1.0], "decoder.b": [2.0]})
        store["decoder.b"].data = np.array([2.0], dtype=np.float32)
        with pytest.raises(ShapeError, match="mix dtypes"):
            tr.AdamW(store, {"decoder": 0.1})
        store["decoder.b"].data = np.array([2.0])
        opt = tr.AdamW(store, {"decoder": 0.1})
        store["decoder.a"].data = np.array([1.0], dtype=np.float32)
        with pytest.raises(ShapeError, match=r"'decoder\.a' is now float32\[1\], expected float64\[1\]"):
            opt.step({})

    def test_gradient_must_match_its_parameter_shape(self):
        store = _store_of({"decoder.a": [1.0, 2.0], "decoder.b": [3.0]})
        opt = tr.AdamW(store, {"decoder": 0.1})
        with pytest.raises(ShapeError, match=r"'decoder\.a' has shape \[3\], expected \[2\]"):
            opt.step({store["decoder.a"]: np.ones(3)})
        assert store["decoder.a"].data.tolist() == [1.0, 2.0] and opt.step_count == 0

    def test_nonfinite_gradient_moves_nothing(self):
        store, opt, (params, m, v, lrs) = self._fresh(np.float64)
        grads = self._grads(33, 1, np.float64)
        self._step(opt, store, grads)
        adamw_step(params, grads, m, v, 1, lrs, weight_decay=0.05)
        before = [a.tobytes() for a in (opt._flat, opt._m, opt._v)]
        bad = self._grads(33, 2, np.float64)
        bad["decoder.d"][0, 1] = np.inf
        bad["encoder.c"][1, 0, 2] = np.nan  # first in store order
        with pytest.raises(tr.DivergenceError, match=r"'encoder\.c' at step 2"):
            self._step(opt, store, bad)
        assert [a.tobytes() for a in (opt._flat, opt._m, opt._v)] == before
        for name, ref in params.items():
            assert store[name].data.tobytes() == ref.tobytes(), name
        # The failed step did not count: the next one is step 2.
        grads = self._grads(33, 3, np.float64)
        self._step(opt, store, grads)
        adamw_step(params, grads, m, v, 2, lrs, weight_decay=0.05)
        for name, ref in params.items():
            assert store[name].data.tobytes() == ref.tobytes(), name

    def _refused(self, opt, store, bad, pattern):
        """The step raises DivergenceError matching ``pattern`` and moves nothing."""
        before = [a.tobytes() for a in (opt._flat, opt._m, opt._v)]
        with pytest.raises(tr.DivergenceError, match=pattern):
            self._step(opt, store, bad)
        assert [a.tobytes() for a in (opt._flat, opt._m, opt._v)] == before and opt.step_count == 0

    def test_nonfinite_gradients_are_named_in_store_order(self):
        # The flat layout puts the encoder group first, so "encoder.c" comes
        # before "decoder.b" there; store order lists "decoder.b" first.
        store, opt, _ = self._fresh(np.float64)
        bad = self._grads(36, 1, np.float64)
        bad["decoder.b"][3] = np.nan
        bad["encoder.c"][0, 0, 1] = np.inf
        self._refused(opt, store, bad, r"non-finite gradient for 'decoder\.b' at step 1")

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_gradient_that_overflows_in_the_cast_moves_nothing(self):
        store, opt, _ = self._fresh(np.float32)
        bad = self._grads(37, 1, np.float32)
        bad["decoder.d"] = np.full((2, 2), 1e300)  # finite in float64, inf in float32
        self._refused(opt, store, bad, r"non-finite gradient for 'decoder\.d' at step 1")


def test_train_step_memory():
    """One toy train step (B=8, 64x64) with its AdamW update. The sweep drops
    each node's saved arrays as it passes, so the peak stays near the forward's
    activations (about 34 MiB) instead of holding every node and adjoint until
    the step ends (about 88 MiB). Each of the 36 norm layers records one node
    that keeps no normalized copy of its input, so the tape holds 355 nodes."""
    from lightformer import config, network, synthetic

    cfg = config.load()
    samples = synthetic.make_dataset(cfg.seed, "train", cfg["train.batch_size"],
                                     cfg["data.image_size"])
    batch = Tensor(np.stack([tr.standardize(img.astype(np.float64), cfg["data.mean"],
                                            cfg["data.std"]) for img, _ in samples]))
    labels = np.stack([mask for _, mask in samples]).astype(np.int64)
    assert batch.shape == (8, 3, 64, 64)
    model = network.build_model(cfg.decoder_config(), cfg.seed)
    opt = tr.AdamW(model.store, {"encoder": cfg["train.encoder_lr"],
                                 "decoder": cfg["train.decoder_lr"]},
                   weight_decay=cfg["train.weight_decay"])
    gc.collect()
    tracemalloc.start()
    try:
        with Tape() as tape:
            logits, aux = model.forward(batch, train=True)
            loss = tr.total_loss(logits, aux, labels, train=True,
                                 aux_weight=cfg["train.aux_weight"]).total
        nodes = len(tape.nodes)
        opt.step(tape.backward(loss))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes <= 360, f"train step recorded {nodes} tape nodes"
    assert peak < 42 * 2**20, f"train step peak {peak / 2**20:.1f} MiB"


class TestCosine:
    def test_endpoints(self):
        assert tr.cosine_lr(0, 100, 3e-3, 1e-4) == pytest.approx(3e-3, rel=1e-12)
        assert tr.cosine_lr(100, 100, 3e-3, 1e-4) == pytest.approx(1e-4, rel=1e-12)

    def test_midpoint_and_monotonicity(self):
        assert tr.cosine_lr(50, 100, 2.0, 0.0) == pytest.approx(1.0, rel=1e-12)
        values = [tr.cosine_lr(s, 100, 2.0, 0.1) for s in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            tr.cosine_lr(5, 0, 1.0)
        with pytest.raises(ValueError):
            tr.cosine_lr(101, 100, 1.0)
        with pytest.raises(ValueError):
            tr.cosine_lr(-1, 100, 1.0)


class TestConfusionMatrix:
    def test_hand_case(self):
        cm = tr.ConfusionMatrix(2)
        cm.counts[:] = [[3, 1], [1, 3]]
        metrics = cm.finalize()
        assert metrics.miou == pytest.approx(0.600, abs=1e-12)
        assert metrics.overall_accuracy == pytest.approx(0.75)

    def test_streaming_equals_batch(self):
        rng = stream(0, "cm")
        preds = rng.integers(0, 5, size=(100, 17))
        truths = rng.integers(0, 5, size=(100, 17))
        truths[rng.random(truths.shape) < 0.1] = 255
        whole = tr.ConfusionMatrix(5)
        whole.update(preds, truths)
        parts = tr.ConfusionMatrix(5)
        for p, t in zip(preds, truths):
            parts.update(p, t)
        np.testing.assert_array_equal(whole.counts, parts.counts)

    def test_merge_matches_joint_update(self):
        rng = stream(1, "cm")
        a, b = tr.ConfusionMatrix(3), tr.ConfusionMatrix(3)
        pa, ta = rng.integers(0, 3, (40,)), rng.integers(0, 3, (40,))
        pb, tb = rng.integers(0, 3, (60,)), rng.integers(0, 3, (60,))
        a.update(pa, ta)
        b.update(pb, tb)
        joint = tr.ConfusionMatrix(3)
        joint.update(np.concatenate([pa, pb]), np.concatenate([ta, tb]))
        np.testing.assert_array_equal(a.merge(b).counts, joint.counts)

    def test_rows_are_truth(self):
        cm = tr.ConfusionMatrix(3)
        cm.update(np.array([2]), np.array([1]))
        assert cm.counts[1, 2] == 1 and cm.counts.sum() == 1

    def test_absent_class_excluded_from_means(self):
        cm = tr.ConfusionMatrix(3)
        cm.update(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 0]))
        metrics = cm.finalize()
        np.testing.assert_array_equal(metrics.present, [True, True, False])
        # class 0: tp=2 fn=1 fp=0 -> iou 2/3; class 1: tp=1 fp=1 -> iou 1/2
        assert metrics.miou == pytest.approx((2 / 3 + 1 / 2) / 2)
        assert np.isnan(metrics.per_class_iou[2])

    def test_empty_finalize_rejected(self):
        with pytest.raises(ValueError):
            tr.ConfusionMatrix(2).finalize()

    def test_mf1_hand_value(self):
        cm = tr.ConfusionMatrix(2)
        cm.counts[:] = [[3, 1], [1, 3]]
        # both classes: precision = recall = 3/4 -> f1 = 3/4
        assert cm.finalize().mf1 == pytest.approx(0.75)


class TestStandardize:
    def test_values(self):
        img = np.ones((3, 2, 2), dtype=np.float32) * 0.5
        out = tr.standardize(img, (0.25, 0.5, 0.75), (0.5, 0.5, 0.25))
        np.testing.assert_allclose(out[0], 0.5, atol=1e-7)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-7)
        np.testing.assert_allclose(out[2], -1.0, atol=1e-7)
        assert out.dtype == np.float32

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError, match="std"):
            tr.standardize(np.ones((3, 2, 2), np.float32), (0,) * 3, (0.5, 0.0, 0.5))

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            tr.standardize(np.ones((2, 2, 3), np.float32), (0,) * 3, (1,) * 3)


class TestAugment:
    def test_pairs_stay_aligned(self):
        rng_data = stream(2, "aug")
        for seed in range(10):
            mask = rng_data.integers(0, 4, (6, 6)).astype(np.uint8)
            image = np.broadcast_to(mask.astype(np.float32), (3, 6, 6)).copy()
            img_a, mask_a = tr.augment(image, mask, stream(seed, "aug.rng"))
            np.testing.assert_array_equal(img_a[0], mask_a.astype(np.float32))

    def test_geometry_preserved(self):
        image = stream(3, "aug").standard_normal((3, 5, 5)).astype(np.float32)
        mask = np.zeros((5, 5), dtype=np.uint8)
        img_a, mask_a = tr.augment(image, mask, stream(4, "aug.rng"))
        assert img_a.shape == (3, 5, 5) and mask_a.shape == (5, 5)
        assert img_a.flags["C_CONTIGUOUS"] and mask_a.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(np.sort(img_a, axis=None),
                                   np.sort(image, axis=None))


class TestSlidingWindow:
    def test_documented_placement_grid(self):
        rows = tr.window_placements(3000, 1024, 512)
        cols = tr.window_placements(4000, 1024, 512)
        assert len(rows) == 5 and len(cols) == 7
        assert rows[-1] == 3000 - 1024 and cols[-1] == 4000 - 1024
        assert len(rows) * len(cols) == 35

    def test_full_coverage(self):
        for length, window, stride in ((3000, 1024, 512), (100, 30, 25), (64, 64, 1)):
            starts = tr.window_placements(length, window, stride)
            hit = np.zeros(length, dtype=bool)
            for s in starts:
                hit[s:s + min(window, length)] = True
            assert hit.all()

    def test_window_covering_image_is_single_placement(self):
        assert tr.window_placements(50, 64, 16) == [0]

    def test_stride_gap_raises(self):
        """A stride past the window may leave a gap between placements;
        a clamped tail that closes it stays legal."""
        with pytest.raises(ValueError, match=r"pixels 32\.\.37 of 70 uncovered"):
            tr.window_placements(70, 32, 64)
        assert tr.window_placements(64, 32, 512) == [0, 32]
        with pytest.raises(ValueError, match="uncovered"):
            tr.sliding_window_infer(np.zeros((3, 50, 70), dtype=np.float32), 32, 64,
                                    lambda chw: np.zeros((2, *chw.shape[1:])), num_classes=2)

    def test_equals_direct_inference_when_window_covers(self):
        rng = stream(5, "swi")
        image = rng.standard_normal((3, 20, 24)).astype(np.float32)

        def infer(chw):
            x = chw.sum(axis=0, keepdims=True)
            return np.stack([x[0], -x[0]])

        direct = infer(image)
        tiled = tr.sliding_window_infer(image, 32, 16, infer, num_classes=2)
        np.testing.assert_array_equal(tiled, direct)

    def test_overlaps_average_logits(self):
        image = np.zeros((3, 8, 4), dtype=np.float32)
        calls = []

        def infer(chw):
            calls.append(chw.shape)
            return np.full((2, *chw.shape[1:]), float(len(calls)))

        out = tr.sliding_window_infer(image, (4, 4), (4, 4), infer, num_classes=2)
        assert calls == [(3, 4, 4), (3, 4, 4)]
        np.testing.assert_array_equal(out[:, :4], 1.0)
        np.testing.assert_array_equal(out[:, 4:], 2.0)

    def test_overlap_mean_is_f64_then_f32(self):
        image = np.zeros((3, 4, 6), dtype=np.float32)
        values = iter((1.0, 2.0))

        def infer(chw):
            return np.full((1, *chw.shape[1:]), next(values), dtype=np.float32)

        out = tr.sliding_window_infer(image, (4, 4), (4, 2), infer, num_classes=1)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out[0, :, :2], 1.0)
        np.testing.assert_array_equal(out[0, :, 2:4], 1.5)  # both windows hit
        np.testing.assert_array_equal(out[0, :, 4:], 2.0)

    def test_bad_infer_output_rejected(self):
        image = np.zeros((3, 8, 8), dtype=np.float32)

        def infer(chw):
            return np.zeros((2, 3, 3), dtype=np.float32)

        with pytest.raises(ShapeError):
            tr.sliding_window_infer(image, 8, 8, infer, num_classes=2)
