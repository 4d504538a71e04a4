"""Network assembly: shapes, aux heads, determinism, gradient reach, and
checkpoint round-trips."""

import tracemalloc

import numpy as np
import pytest

from lightformer import network as net
from lightformer import training as tr
from lightformer.blocks import BatchNorm2d, BlockConfig, Conv2d, Identity, fold_batch_norms, layers
from lightformer.config import load as load_config
from lightformer.rng import stream
from lightformer.tensor import ShapeError, Tape, Tensor


def tiny_config(**overrides):
    kwargs = dict(
        num_classes=3,
        encoder_channels=(4, 4, 8, 8),
        decode_channels=4,
        block=BlockConfig(channels=4, window_size=2, heads=2),
    )
    kwargs.update(overrides)
    return net.DecoderConfig(**kwargs)


def _image(shape, seed=0):
    return Tensor(stream(seed, "test.network").standard_normal(shape).astype(np.float32))


class TestShapes:
    @pytest.mark.parametrize("hw", [(32, 32), (64, 96)])
    def test_logits_at_input_resolution(self, hw):
        model = net.build_model(tiny_config(), seed=0)
        logits, aux = model.forward(_image((2, 3, *hw)), train=False)
        assert logits.shape == (2, 3, *hw)
        assert aux == []

    def test_three_aux_heads_in_training(self):
        model = net.build_model(tiny_config(), seed=0)
        logits, aux = model.forward(_image((1, 3, 64, 64)), train=True)
        assert len(aux) == 3
        for a in aux:
            assert a.shape == logits.shape

    def test_aux_disabled(self):
        model = net.build_model(tiny_config(aux_heads=False), seed=0)
        _, aux = model.forward(_image((1, 3, 32, 32)), train=True)
        assert aux == []

    def test_rejects_bad_resolution(self):
        model = net.build_model(tiny_config(), seed=0)
        with pytest.raises(ShapeError, match="divisible by 32"):
            model.forward(_image((1, 3, 48, 64)))

    def test_rejects_wrong_channel_count(self):
        model = net.build_model(tiny_config(), seed=0)
        with pytest.raises(ShapeError, match=r"\(B, 3, H, W\)"):
            model.forward(_image((1, 4, 32, 32)))

    def test_decoder_validates_stage_channels(self):
        model = net.build_model(tiny_config(), seed=0)
        feats = [Tensor(np.zeros((1, c, s, s), dtype=np.float32))
                 for c, s in zip((4, 4, 8, 8), (16, 8, 4, 2))]
        feats[1] = Tensor(np.zeros((1, 5, 8, 8), dtype=np.float32))
        with pytest.raises(ShapeError, match="encoder stage 2: expected 4 channels"):
            model.decoder.forward(feats, (64, 64))

    def test_stub_encoder_stage_geometry(self):
        model = net.build_model(tiny_config(), seed=0)
        feats = model.encoder.forward(_image((1, 3, 64, 64)))
        assert [f.shape for f in feats] == [
            (1, 4, 16, 16), (1, 4, 8, 8), (1, 8, 4, 4), (1, 8, 2, 2)]


class TestDecoderConfig:
    def test_block_width_must_match(self):
        with pytest.raises(ValueError, match="decode_channels"):
            net.DecoderConfig(num_classes=3, decode_channels=32,
                              block=BlockConfig(channels=64))

    def test_default_block_inherits_width(self):
        cfg = net.DecoderConfig(num_classes=5, decode_channels=32)
        assert cfg.block.channels == 32

    def test_collects_problems(self):
        with pytest.raises(ValueError) as err:
            net.DecoderConfig(num_classes=1, encoder_channels=(4, 4), decode_channels=7)
        message = str(err.value)
        assert "num_classes" in message
        assert "encoder_channels" in message
        assert "decode_channels" in message


class TestDeterminism:
    def test_same_seed_identical_stores(self):
        a = net.build_model(tiny_config(), seed=9).store
        b = net.build_model(tiny_config(), seed=9).store
        for (name, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=name)

    def test_different_seed_differs(self):
        a = net.build_model(tiny_config(), seed=9).store
        b = net.build_model(tiny_config(), seed=10).store
        assert any(not np.array_equal(ta.data, tb.data)
                   for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()))

    def test_forward_is_pure_in_eval(self):
        model = net.build_model(tiny_config(), seed=3)
        x = _image((1, 3, 32, 32), seed=4)
        first, _ = model.forward(x, train=False)
        second, _ = model.forward(x, train=False)
        np.testing.assert_array_equal(first.data, second.data)

    def test_train_then_eval_freeze(self):
        """With momentum forced to 1, eval right after one training pass uses
        exactly the statistics of that batch, so the outputs match bitwise."""
        model = net.build_model(tiny_config(), seed=5)
        seen = set()
        found = []

        def force(obj):
            if id(obj) in seen or isinstance(obj, (Tensor, np.ndarray, str, bytes)):
                return
            seen.add(id(obj))
            if isinstance(obj, BatchNorm2d):
                obj.momentum = 1.0
                found.append(obj)
            if isinstance(obj, (list, tuple)):
                for sub in obj:
                    force(sub)
            elif hasattr(obj, "__dict__"):
                for item in vars(obj).values():
                    force(item)

        force(model)
        assert len(found) > 10, "walk failed to reach the normalization layers"
        x = _image((2, 3, 32, 32), seed=6)
        train_logits, _ = model.forward(x, train=False)  # untouched baseline
        model.forward(x, train=True)
        eval_logits, _ = model.forward(x, train=False)
        assert not np.array_equal(train_logits.data, eval_logits.data)
        again, _ = model.forward(x, train=True)
        np.testing.assert_array_equal(again.data, eval_logits.data)


class TestGradientReach:
    def test_every_parameter_receives_gradient(self):
        """After nudging zero-init gates off their saddle, one backward pass
        must touch every trainable tensor; an orphan means a wiring break."""
        cfg = tiny_config(block=BlockConfig(channels=4, window_size=2, heads=2, norm="group"))
        model = net.build_model(cfg, seed=7, dtype=np.float64)
        for name, t in model.store.trainable():
            if t.data.size and not t.data.any():
                t.data += stream(7, "nudge", name).standard_normal(t.shape) * 0.1
        # 64x64 keeps the deepest map at 2x2; a 1x1 map would zero out the
        # normalized activations and starve the encoder tail of gradient.
        x = Tensor(stream(8, "img").standard_normal((1, 3, 64, 64)))
        labels = stream(9, "lab").integers(0, 3, size=(1, 64, 64))
        with Tape() as tape:
            logits, aux = model.forward(x, train=True)
            loss = tr.total_loss(logits, aux, labels, train=True).total
        grads = tape.backward(loss)
        missing = [name for name, t in model.store.trainable() if grads.get(t) is None]
        assert missing == []
        # A bias or shift feeding a norm adds a per-channel constant that the
        # norm subtracts right back out, so at this width those directions are
        # mathematically flat. A flat weight, gamma, or fusion gate is a bug.
        flat = [name for name, t in model.store.trainable()
                if not np.any(np.abs(grads.get(t)) > 1e-15)]
        bad = [name for name in flat
               if ".gate." in name
               or not (name.endswith(".bias") or name.endswith(".beta"))]
        assert bad == [], bad

    def test_no_dead_parameters_at_default_width(self):
        """At the default width the norm groups span several channels, so even
        the norm-absorbed bias directions keep a nonzero gradient."""
        model = net.build_model(net.DecoderConfig(num_classes=3), seed=0)
        for name, t in model.store.trainable():
            if t.data.size and not t.data.any():
                nudge = stream(0, "probe", name).standard_normal(t.shape) * 0.1
                t.data += nudge.astype(t.data.dtype)
        x = Tensor(stream(1, "img").standard_normal((2, 3, 64, 64)).astype(np.float32))
        labels = stream(2, "lab").integers(0, 3, size=(2, 64, 64))
        with Tape() as tape:
            logits, aux = model.forward(x, train=True)
            loss = tr.total_loss(logits, aux, labels, train=True).total
        grads = tape.backward(loss)
        dead = [name for name, t in model.store.trainable()
                if grads.get(t) is None or not np.any(grads.get(t))]
        assert dead == []


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "model.lftc"
        model = net.build_model(tiny_config(), seed=11)
        expected = {name: t.data.copy() for name, t in model.store.tensors()}
        net.save_checkpoint(model.store, path)
        other = net.build_model(tiny_config(), seed=99)
        net.load_checkpoint(other.store, path)
        for name, t in other.store.tensors():
            np.testing.assert_array_equal(t.data, expected[name], err_msg=name)

    def test_missing_entries_rejected(self, tmp_path):
        path = tmp_path / "model.lftc"
        net.save_checkpoint(net.build_model(tiny_config(aux_heads=False), seed=0).store, path)
        full = net.build_model(tiny_config(), seed=0)
        with pytest.raises(ValueError, match="state mismatch"):
            net.load_checkpoint(full.store, path)

    def test_shape_drift_rejected(self, tmp_path):
        path = tmp_path / "model.lftc"
        net.save_checkpoint(net.build_model(tiny_config(), seed=0).store, path)
        wider = net.build_model(tiny_config(num_classes=5), seed=0)
        with pytest.raises(ValueError, match="shape"):
            net.load_checkpoint(wider.store, path)

    def test_loaded_model_reproduces_outputs(self, tmp_path):
        path = tmp_path / "model.lftc"
        model = net.build_model(tiny_config(), seed=13)
        x = _image((1, 3, 32, 32), seed=14)
        expected, _ = model.forward(x, train=False)
        net.save_checkpoint(model.store, path)
        clone = net.build_model(tiny_config(), seed=0)
        net.load_checkpoint(clone.store, path)
        got, _ = clone.forward(x, train=False)
        np.testing.assert_array_equal(got.data, expected.data)


class TestBatchNormFold:
    """``fold_batch_norms``, which ``infer`` applies to the model it loads."""

    @staticmethod
    def _default_model(dtype=np.float32):
        """The run config's model with random batch-norm parameters and statistics."""
        model = net.build_model(load_config(None, []).decoder_config(), seed=21, dtype=dtype)
        rng = stream(22, "test.fold")
        for bn in (m for m in layers(model) if isinstance(m, BatchNorm2d)):
            c = bn.channels
            bn.gamma.data = rng.uniform(0.5, 2.0, c).astype(dtype)
            bn.beta.data = rng.standard_normal(c).astype(dtype)
            bn.running_mean.data = rng.standard_normal(c).astype(dtype)
            bn.running_var.data = rng.uniform(0.5, 2.0, c).astype(dtype)
        return model

    def test_folded_logits_match_in_float64(self):
        model = self._default_model(np.float64)
        x = Tensor(stream(23, "test.fold.x").standard_normal((2, 3, 64, 64)))
        expected, _ = model.forward(x, train=False)
        fold_batch_norms(model)
        got, _ = model.forward(x, train=False)
        np.testing.assert_allclose(got.data, expected.data, rtol=1e-12, atol=1e-12)

    def test_float32_fold_is_the_float64_fold_rounded(self):
        """The fold runs in float64 whatever the model's dtype."""
        narrow = self._default_model()
        wide = net.build_model(load_config(None, []).decoder_config(), seed=0, dtype=np.float64)
        wide.store.load_state(narrow.store.state_arrays())
        fold_batch_norms(narrow)
        fold_batch_norms(wide)
        pairs = [(a, b) for a, b in zip(layers(narrow), layers(wide)) if isinstance(a, Conv2d)]
        assert len(pairs) > 30
        for a, b in pairs:
            assert a.weight.data.tobytes() == b.weight.data.astype(np.float32).tobytes(), a.prefix
            if a.bias is not None:
                assert a.bias.data.tobytes() == b.bias.data.astype(np.float32).tobytes(), a.prefix

    def test_folds_every_norm_after_a_conv_and_keeps_the_pre_norms(self):
        model = self._default_model()
        norms = {m.prefix for m in layers(model) if isinstance(m, BatchNorm2d)}
        fold_batch_norms(model)
        found = list(layers(model))
        kept = {m.prefix for m in found if isinstance(m, BatchNorm2d)}
        folded = {m.prefix for m in found if isinstance(m, Identity)}
        assert len(norms) == 36 and len(folded) == 30
        assert kept == {f"decoder.lcrm{i}.global.norm{j}" for i in (1, 2, 3) for j in (1, 2)}
        assert folded | kept == norms

    def test_folded_tile_forward_memory(self):
        """The folded untaped forward that ``infer`` runs on a 512² tile
        peaks below 16 MiB: untaped dense convs lower im2col in blocks, and
        SISM takes its channel statistics without joining its two mixed maps
        and frees its context maps before the blend. One column buffer for
        stage 1's stride-2 conv alone would take 13.5 MiB."""
        model = self._default_model()
        fold_batch_norms(model)
        x = Tensor(stream(25, "test.fold.tile").standard_normal((1, 3, 512, 512)).astype(np.float32))
        tracemalloc.start()
        try:
            model.forward(x, train=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"folded 512² forward peak {peak / 2**20:.1f} MiB"

    def test_store_arrays_untouched(self):
        model = self._default_model()
        before = {name: a.tobytes() for name, a in model.store.state_arrays().items()}
        fold_batch_norms(model)
        assert {name: a.tobytes() for name, a in model.store.state_arrays().items()} == before

    @pytest.mark.parametrize("norm", ["group", "none"])
    def test_other_norms_left_alone(self, norm):
        model = net.build_model(tiny_config(block=BlockConfig(channels=4, window_size=2, heads=2,
                                                              norm=norm)), seed=24)

        def bindings():
            return [(id(m), [(k, id(v)) for k, v in vars(m).items()]) for m in layers(model)]

        before = bindings()
        fold_batch_norms(model)
        assert bindings() == before
