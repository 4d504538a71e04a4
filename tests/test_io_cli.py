"""Serialization formats, run configuration, and the command-line surface."""

import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from lightformer import cli, config, fileio
from lightformer.blocks import BlockConfig
from lightformer.network import DecoderConfig
from lightformer.tensor import Tensor


# A float64 shape header declaring 65535^3 values, about 2 PB of payload.
HUGE_SHAPE = struct.pack("<BI3I", 1, 3, 65535, 65535, 65535)
HUGE_TENSOR = b"LFTR" + struct.pack("<I", 1) + HUGE_SHAPE
HUGE_CONTAINER = b"LFTC" + struct.pack("<IIH", 1, 1, 1) + b"w" + HUGE_SHAPE + HUGE_TENSOR


class TestTensorFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip(self, tmp_path, dtype):
        arr = np.arange(24, dtype=dtype).reshape(2, 3, 4) / 7.0
        path = tmp_path / "t.lftr"
        fileio.write_tensor(path, arr)
        back = fileio.read_tensor(path)
        assert back.dtype == dtype
        np.testing.assert_array_equal(back, arr)

    def test_rank0_roundtrip(self, tmp_path):
        path = tmp_path / "t.lftr"
        fileio.write_tensor(path, np.float32(2.5))
        back = fileio.read_tensor(path)
        assert back.shape == () and back == np.float32(2.5)

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "t.lftr"
        fileio.write_tensor(path, np.zeros((2, 2), np.float32))
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(fileio.FormatError, match="magic"):
            fileio.read_tensor(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.lftr"
        fileio.write_tensor(path, np.zeros((4, 4), np.float32))
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(fileio.FormatError):
            fileio.read_tensor(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "t.lftr"
        fileio.write_tensor(path, np.zeros((2,), np.float32))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(fileio.FormatError):
            fileio.read_tensor(path)


    @pytest.mark.parametrize("bad", [np.zeros((1,) * 6, np.float32), np.zeros(2, np.int32)],
                             ids=["rank6", "int32"])
    def test_rejected_array_creates_no_file(self, tmp_path, bad):
        path = tmp_path / "t.lftr"
        with pytest.raises(fileio.FormatError):
            fileio.write_tensor(path, bad)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.zeros((1,) * 6, np.float32), np.zeros(2, np.int32)],
                             ids=["rank6", "int32"])
    def test_rejected_array_keeps_existing_file(self, tmp_path, bad):
        path = tmp_path / "t.lftr"
        fileio.write_tensor(path, np.arange(3, dtype=np.float32))
        before = path.read_bytes()
        with pytest.raises(fileio.FormatError):
            fileio.write_tensor(path, bad)
        assert path.read_bytes() == before

    def test_payload_longer_than_file_is_format_error(self, tmp_path):
        path = tmp_path / "t.lftr"
        path.write_bytes(HUGE_TENSOR + bytes(28))
        with pytest.raises(fileio.FormatError, match="payload"):
            fileio.read_tensor(path)


class TestContainerFormat:
    def test_roundtrip_preserves_order_and_values(self, tmp_path):
        path = tmp_path / "c.lftc"
        entries = {
            "b.second": np.ones((3,), np.float32),
            "a.first": np.arange(6, dtype=np.float64).reshape(2, 3),
        }
        fileio.write_container(path, entries)
        back = fileio.read_container(path)
        assert list(back) == ["b.second", "a.first"]
        for k, v in entries.items():
            np.testing.assert_array_equal(back[k], v)
            assert back[k].dtype == v.dtype

    def test_truncated_entry(self, tmp_path):
        path = tmp_path / "c.lftc"
        fileio.write_container(path, {"w": np.zeros((8, 8), np.float32)})
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(fileio.FormatError):
            fileio.read_container(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.lftc"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(fileio.FormatError, match="magic"):
            fileio.read_container(path)

    def test_payload_longer_than_file_is_format_error(self, tmp_path):
        path = tmp_path / "c.lftc"
        path.write_bytes(HUGE_CONTAINER)
        with pytest.raises(fileio.FormatError, match="payload"):
            fileio.read_container(path)


class TestNetpbm:
    def test_pgm_roundtrip(self, tmp_path):
        img = (np.arange(20, dtype=np.uint8) * 12).reshape(4, 5)
        path = tmp_path / "m.pgm"
        fileio.write_pgm(path, img)
        np.testing.assert_array_equal(fileio.read_pgm(path), img)

    def test_ppm_roundtrip(self, tmp_path):
        img = np.arange(36, dtype=np.uint8).reshape(3, 4, 3) * 7
        path = tmp_path / "m.ppm"
        fileio.write_ppm(path, img)
        np.testing.assert_array_equal(fileio.read_ppm(path), img)

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "m.pgm"
        fileio.write_pgm(path, np.zeros((2, 2), np.uint8))
        with pytest.raises(fileio.FormatError, match="magic"):
            fileio.read_ppm(path)


    def test_non_integer_header_field(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 3x\n255\n" + bytes(12))
        with pytest.raises(fileio.FormatError, match="integer"):
            fileio.read_pgm(path)

    @pytest.mark.parametrize("dims", [b"0 3", b"4 0", b"0 0"])
    def test_zero_size_rejected(self, tmp_path, dims):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n" + dims + b"\n255\n")
        with pytest.raises(fileio.FormatError, match="empty"):
            fileio.read_ppm(path)


def test_readers_fail_only_with_format_error(tmp_path):
    """Truncated and byte-edited copies of valid files either read or raise FormatError."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    samples = {}
    for name, write, read, value in (
            ("t.lftr", fileio.write_tensor, fileio.read_tensor, np.arange(6, dtype=np.float32).reshape(2, 3)),
            ("c.lftc", fileio.write_container, fileio.read_container,
             {"w": np.ones((2, 2)), "bias": np.zeros(3, np.float32)}),
            ("m.pgm", fileio.write_pgm, fileio.read_pgm, np.arange(6, dtype=np.uint8).reshape(2, 3)),
            ("m.ppm", fileio.write_ppm, fileio.read_ppm, np.arange(12, dtype=np.uint8).reshape(2, 2, 3))):
        write(tmp_path / name, value)
        samples[name] = ((tmp_path / name).read_bytes(), read)
    path = tmp_path / "fuzz.bin"

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(name=st.sampled_from(sorted(samples)), data=st.data())
    def check(name, data):
        raw, read = samples[name]
        edited = bytearray(raw[:data.draw(st.integers(0, len(raw)))])
        for _ in range(data.draw(st.integers(0, 3))):
            if edited:
                edited[data.draw(st.integers(0, len(edited) - 1))] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(edited))
        try:
            read(path)
        except fileio.FormatError:
            pass

    check()


class TestRunConfig:
    def test_defaults_load_without_file(self):
        cfg = config.load()
        assert cfg["model.decode_channels"] == 32
        assert cfg["train.aux_weight"] == 0.4
        assert cfg["data.mean"] == (0.5, 0.5, 0.5)

    def test_text_roundtrip_is_stable(self):
        cfg = config.load(overrides=("model.decode_channels=64", "run.seed=7"))
        text = cfg.to_text()
        again = config.parse_text(text)
        assert again.to_text() == text
        assert again["model.decode_channels"] == 64
        assert again["run.seed"] == 7

    def test_file_loading(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[model]\ndecode_channels = 16\n\n[train]\nepochs = 2\n")
        cfg = config.load(path)
        assert cfg["model.decode_channels"] == 16
        assert cfg["train.epochs"] == 2
        assert cfg["model.window_size"] == 4  # untouched default

    def test_unknown_keys_are_hard_errors(self, tmp_path):
        with pytest.raises(config.ConfigError, match="decode_chanels"):
            config.load(overrides=("model.decode_chanels=16",))
        path = tmp_path / "run.ini"
        path.write_text("[model]\nwindwo_size = 4\n")
        with pytest.raises(config.ConfigError, match="windwo_size"):
            config.load(path)

    def test_typed_coercion_errors(self):
        with pytest.raises(config.ConfigError):
            config.load(overrides=("train.epochs=three",))
        with pytest.raises(config.ConfigError):
            config.load(overrides=("model.encoder_channels=a,b",))
        with pytest.raises(config.ConfigError):
            config.load(overrides=("train.augment=maybe",))

    def test_override_wins_over_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 3\n")
        cfg = config.load(path, overrides=("run.seed=9",))
        assert cfg["run.seed"] == 9

    def test_model_keys_are_the_config_fields(self):
        """Every ``model.*`` key fills the DecoderConfig or BlockConfig field of
        its name (``decode_channels`` fills ``BlockConfig.channels`` too)."""
        keys = {key.partition(".")[2] for key in config.SCHEMA if key.startswith("model.")}
        decoder = {f.name for f in dataclasses.fields(DecoderConfig)} - {"block"}
        block = {f.name for f in dataclasses.fields(BlockConfig)} - {"channels"}
        assert keys == decoder | block
        assert not decoder & block

    def test_model_keys_reach_the_model_config(self):
        cfg = config.load(overrides=("model.num_classes=5", "model.encoder_channels=4,8,8,8",
                                     "model.decode_channels=16", "model.window_size=2",
                                     "model.heads=2", "model.shuffle_groups=4", "model.eca_kernel=5",
                                     "model.sism_kernels=3,5,5,3", "model.norm=group",
                                     "model.activation=gelu", "model.ffn_ratio=2",
                                     "model.aux_heads=false"))
        assert cfg.decoder_config() == DecoderConfig(
            num_classes=5, encoder_channels=(4, 8, 8, 8), decode_channels=16, aux_heads=False,
            block=BlockConfig(channels=16, window_size=2, heads=2, shuffle_groups=4, eca_kernel=5,
                              sism_kernels=(3, 5, 5, 3), norm="group", activation="gelu",
                              ffn_ratio=2))

    def test_model_config_validation_is_config_error(self):
        cfg = config.load(overrides=("model.decode_channels=7",))
        with pytest.raises(config.ConfigError):
            cfg.decoder_config()

    @pytest.mark.parametrize("key, value", [
        ("train.batch_size", "0"), ("train.epochs", "-1"), ("data.image_size", "48"),
        ("data.image_size", "32"), ("data.train_count", "0"), ("data.val_count", "0"),
        ("infer.window", "0"), ("infer.stride", "-2"),
    ])
    def test_out_of_range_values_name_the_key(self, tmp_path, key, value):
        with pytest.raises(config.ConfigError, match=key):
            config.load(overrides=(f"{key}={value}",))
        section, _, name = key.partition(".")
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{name} = {value}\n")
        with pytest.raises(config.ConfigError, match=key):
            config.load(path)

    @pytest.mark.parametrize("key", ["train.encoder_lr", "train.decoder_lr", "train.lr_min",
                                     "train.weight_decay", "train.aux_weight"])
    @pytest.mark.parametrize("value", ["-0.001", "nan", "inf", "-inf"])
    def test_float_settings_must_be_finite_and_nonnegative(self, key, value):
        with pytest.raises(config.ConfigError, match=key):
            config.load(overrides=(f"{key}={value}",))

    def test_zero_is_valid_except_for_decoder_lr(self):
        keys = ("train.encoder_lr", "train.lr_min", "train.weight_decay", "train.aux_weight")
        cfg = config.load(overrides=tuple(f"{key}=0" for key in keys))
        assert all(cfg[key] == 0.0 for key in keys)
        with pytest.raises(config.ConfigError, match="train.decoder_lr"):
            config.load(overrides=("train.decoder_lr=0",))

    def test_boundary_values_stay_valid(self):
        cfg = config.load(overrides=("train.epochs=0", "train.stop_miou=2.0",
                                     "data.image_size=96", "infer.window=1",
                                     "infer.stride=1"))
        assert cfg["train.epochs"] == 0 and cfg["train.stop_miou"] == 2.0

    def test_inline_comments(self):
        cfg = config.parse_text("[train]\nepochs = 4  # short run\n")
        assert cfg["train.epochs"] == 4


def run_cli(*argv):
    return cli.main(list(argv))


class TestCliAnalyze:
    def test_writes_reports(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("analyze", "--out", str(out)) == 0
        for name in ("cost_report.txt", "cost_report.csv",
                     "channel_management.csv", "channel_management.txt",
                     "config.ini"):
            assert (out / name).exists(), name
        lines = (out / "cost_report.csv").read_text().splitlines()
        assert lines[0] == "layer,params,macs,flops"
        for line in lines[1:]:
            name, p, m, f = line.split(",")
            assert int(f) == 2 * int(m)

    def test_custom_comparison_shape(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("analyze", "--out", str(out), "--shape", "2,16,64,96") == 0
        table = (out / "channel_management.csv").read_text().splitlines()
        assert len(table) == 2
        assert table[1].startswith("2x16x64x96,")

    def test_malformed_shape_is_usage_error(self, tmp_path):
        assert run_cli("analyze", "--out", str(tmp_path / "o"),
                       "--shape", "64,64") == 2

    def test_odd_width_shape_is_usage_error(self, tmp_path):
        # the comparison halves C, so odd widths cannot be split
        assert run_cli("analyze", "--out", str(tmp_path / "o"),
                       "--shape", "1,3,48,64") == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        assert run_cli("analyze", "--out", str(tmp_path / "o"),
                       "--set", "model.nope=1") == 2

    @pytest.mark.parametrize("args, named", [
        (("--set", "analyze.height=-32"), "analyze.height=-32"),
        (("--set", "analyze.batch=0"), "analyze.batch=0"),
        (("--set", "analyze.height=48"), "analyze.height=48"),
        (("--shape", "1,6,32,32"), "--shape 1,6,32,32"),
    ], ids=["negative_height", "zero_batch", "height_not_multiple_of_32",
            "heads_do_not_divide_half_width"])
    def test_bad_size_is_usage_error(self, tmp_path, capsys, args, named):
        out = tmp_path / "o"
        assert run_cli("analyze", "--out", str(out), *args) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert "MACs" not in captured.out
        assert not (out / "cost_report.txt").exists()
        assert not out.exists()


TINY = (
    "--set", "data.train_count=6",
    "--set", "data.val_count=2",
    "--set", "train.epochs=1",
    "--set", "train.batch_size=3",
    "--set", "model.decode_channels=8",
    "--set", "model.encoder_channels=4,8,8,8",
    "--set", "model.window_size=2",
    "--set", "model.heads=2",
    "--set", "train.stop_miou=1.1",
)


@pytest.mark.parametrize("argv, named", [
    (("train-toy", "--set", "train.batch_size=0"), "train.batch_size"),
    (("train-toy", "--epochs", "-1"), "train.epochs"),
    (("train-toy", "--set", "data.image_size=48"), "data.image_size"),
    (("train-toy", "--set", "model.heads=3"), "heads"),
    (("infer", "scene.ppm", "--window", "0"), "infer.window"),
    (("infer", "scene.ppm", "--window", "-5"), "infer.window"),
    (("infer", "scene.ppm", "--stride", "0"), "infer.stride"),
    (("infer", "scene.ppm", "--set", "model.heads=3"), "heads"),
    (("dump-attn", "scene.ppm", "--set", "model.heads=3"), "heads"),
    (("gradcheck", "--instances", "0"), "--instances"),
    (("gradcheck", "--instances", "-1"), "--instances"),
    (("train-toy", "--set", "train.decoder_lr=0"), "train.decoder_lr"),
    (("train-toy", "--set", "train.encoder_lr=-0.003"), "train.encoder_lr"),
    (("train-toy", "--set", "train.decoder_lr=nan"), "train.decoder_lr"),
    (("train-toy", "--set", "train.aux_weight=inf"), "train.aux_weight"),
    (("train-toy", "--set", "model.aux_heads=false"), "model.aux_heads"),
    (("train-toy", "--set", "model.num_classes=2"), "model.num_classes"),
    (("analyze", "--set", "run.out_dir="), "run.out_dir"),
    (("train-toy", "--out", ""), "run.out_dir"),
    (("train-toy", "--set", "train.stop_miou=nan"), "train.stop_miou"),
    (("train-toy", "--set", "train.stop_miou=inf"), "train.stop_miou"),
    (("train-toy", "--set", "train.stop_miou=-1"), "train.stop_miou"),
], ids=["zero_batch", "negative_epochs", "image_size_48", "train_heads",
        "zero_window", "negative_window", "zero_stride",
        "infer_heads", "dump_attn_heads", "zero_instances", "negative_instances",
        "zero_decoder_lr", "negative_encoder_lr", "nan_decoder_lr", "inf_aux_weight",
        "train_no_aux_heads", "train_two_classes", "empty_out_dir", "empty_out_flag",
        "nan_stop_miou", "inf_stop_miou", "negative_stop_miou"])
def test_bad_setting_is_usage_error_and_writes_nothing(tmp_path, capsys, argv, named):
    out = tmp_path / "o"
    assert run_cli(argv[0], "--out", str(out), *TINY, *argv[1:]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [("train-toy",), ("infer", "scene.ppm")], ids=["train_toy", "infer"])
@pytest.mark.parametrize("classes", [256, 300])
def test_more_than_255_classes_is_usage_error_and_writes_nothing(tmp_path, capsys, command, classes):
    """Masks are 8-bit and 255 is the ignore label, so 255 classes is the most."""
    assert config.load(overrides=("model.num_classes=255",))["model.num_classes"] == 255
    out = tmp_path / "o"
    assert run_cli(command[0], "--out", str(out), *TINY, *command[1:],
                   "--set", f"model.num_classes={classes}") == 2
    assert "model.num_classes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [("train-toy",), ("infer", "scene.ppm")], ids=["train_toy", "infer"])
@pytest.mark.parametrize("setting", ["data.std=0.25,0.25", "data.std=0,0.25,0.25", "data.std=-1,1,1",
                                     "data.mean=nan,0.5,0.5", "data.mean=0.5,0.5,0.5,0.5"],
                         ids=["two_stds", "zero_std", "negative_std", "nan_mean", "four_means"])
def test_bad_channel_statistics_are_usage_errors_and_write_nothing(tmp_path, capsys, command, setting):
    """data.mean and data.std take three finite numbers, std above 0; the
    error names the key from a config file and from ``--set`` alike."""
    key, _, value = setting.partition("=")
    section, _, name = key.partition(".")
    path = tmp_path / "run.ini"
    path.write_text(f"[{section}]\n{name} = {value}\n")
    with pytest.raises(config.ConfigError, match=key):
        config.load(path)
    out = tmp_path / "o"
    assert run_cli(command[0], "--out", str(out), *TINY, *command[1:], "--set", setting) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


class TestCliTrainToy:
    def test_epochs_zero_writes_baseline_and_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train-toy", "--out", str(out), *TINY, "--epochs", "0") == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == "epoch,loss,ce,dice,aux,val_miou"
        assert len(rows) == 2 and rows[1].startswith("0,")
        assert (out / "checkpoint.lftc").exists()
        entries = fileio.read_container(out / "checkpoint.lftc")
        assert any(k.startswith("decoder.") for k in entries)

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("train-toy", "--out", str(a), *TINY) == 0
        assert run_cli("train-toy", "--out", str(b), *TINY) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint.lftc").read_bytes() == (b / "checkpoint.lftc").read_bytes()

    def test_seed_changes_the_run(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("train-toy", "--out", str(a), *TINY) == 0
        assert run_cli("train-toy", "--out", str(b), *TINY,
                       "--set", "run.seed=1") == 0
        assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()

    def test_run_replays_from_its_echo(self, tmp_path, monkeypatch):
        """The echoed config.ini alone repeats a run; the environment plays no part."""
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("LIGHTFORMER_SEED", "7")
        assert run_cli("train-toy", "--out", str(a), *TINY) == 0
        monkeypatch.delenv("LIGHTFORMER_SEED")
        assert run_cli("train-toy", "--config", str(a / "config.ini"), "--out", str(b)) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint.lftc").read_bytes() == (b / "checkpoint.lftc").read_bytes()
        assert config.load(a / "config.ini")["run.out_dir"] == str(a)

    def test_seed_is_taken_mod_2_to_the_64(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("train-toy", "--out", str(a), *TINY, "--set", "run.seed=-1") == 0
        assert run_cli("train-toy", "--out", str(b), *TINY,
                       "--set", f"run.seed={2**64 - 1}") == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint.lftc").read_bytes() == (b / "checkpoint.lftc").read_bytes()

    def test_flag_wins_over_set(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train-toy", "--out", str(out), *TINY,
                       "--set", "train.epochs=3", "--epochs", "1") == 0
        assert len((out / "metrics.csv").read_text().splitlines()) == 3  # header, epochs 0 and 1
        assert config.load(out / "config.ini")["train.epochs"] == 1


class TestCliInferAndAttn:
    @pytest.fixture()
    def trained(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train-toy", "--out", str(out), *TINY, "--epochs", "0") == 0
        return out

    def _write_input(self, tmp_path):
        from lightformer.synthetic import make_sample
        image, _ = make_sample(0, "demo", 0)
        path = tmp_path / "scene.ppm"
        u8 = np.clip(image * 255.0 + 0.5, 0, 255).astype(np.uint8)
        fileio.write_ppm(path, u8.transpose(1, 2, 0))
        return path

    def test_infer_writes_mask_and_is_idempotent(self, trained, tmp_path):
        scene = self._write_input(tmp_path)
        args = ("infer", str(scene), "--out", str(trained), *TINY)
        assert run_cli(*args) == 0
        mask_path = trained / "scene_mask.pgm"
        first = mask_path.read_bytes()
        mask = fileio.read_pgm(mask_path)
        assert mask.shape == (64, 64) and mask.max() < 3
        assert run_cli(*args) == 0
        assert mask_path.read_bytes() == first

    @pytest.mark.parametrize("window", [(), ("--window", "64", "--stride", "32")])
    def test_infer_any_image_size(self, trained, tmp_path, window):
        """Sides that are not multiples of 32, one clamped window or several."""
        from lightformer.synthetic import make_sample
        image, _ = make_sample(0, "demo", 0, 96)
        u8 = np.clip(image[:, :50, :70] * 255.0 + 0.5, 0, 255).astype(np.uint8)
        scene = tmp_path / "odd.ppm"
        fileio.write_ppm(scene, u8.transpose(1, 2, 0))
        assert run_cli("infer", str(scene), "--out", str(trained), *TINY, *window) == 0
        mask = fileio.read_pgm(trained / "odd_mask.pgm")
        assert mask.shape == (50, 70) and mask.max() < 3

    def test_infer_stride_gap_is_usage_error(self, tmp_path, capsys):
        """Stride 64 past window 32 leaves columns 32..37 of a 50x70 image
        uncovered: exit 2 before any output directory or checkpoint read."""
        scene = tmp_path / "odd.ppm"
        fileio.write_ppm(scene, np.zeros((50, 70, 3), dtype=np.uint8))
        out = tmp_path / "o"
        assert run_cli("infer", str(scene), "--out", str(out), *TINY,
                       "--window", "32", "--stride", "64") == 2
        err = capsys.readouterr().err
        assert "infer.window=32" in err and "infer.stride=64" in err
        assert not out.exists()

    def test_infer_keeps_training_config(self, trained, tmp_path):
        scene = self._write_input(tmp_path)
        before = (trained / "config.ini").read_bytes()
        assert run_cli("infer", str(scene), "--out", str(trained), *TINY, "--window", "32") == 0
        assert run_cli("dump-attn", str(scene), "--out", str(trained), *TINY) == 0
        assert (trained / "config.ini").read_bytes() == before
        echoed = config.parse_text((trained / "infer.ini").read_text())
        assert echoed["infer.window"] == 32
        for name, command in (("infer.ini", "infer"), ("dump-attn.ini", "dump-attn")):
            first = (trained / name).read_text().splitlines()[0]
            assert json.loads(first.removeprefix("# argv: "))[:2] == [command, str(scene)]

    def test_only_infer_folds_batch_norms(self, trained, tmp_path, monkeypatch):
        """infer runs the six attention pre-norms per forward; dump-attn all 36."""
        from lightformer import network, ops
        calls = {"norm2d": 0, "forward": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(ops, "norm2d", counting("norm2d", ops.norm2d))
        monkeypatch.setattr(network.Model, "forward", counting("forward", network.Model.forward))
        scene = self._write_input(tmp_path)
        assert run_cli("infer", str(scene), "--out", str(trained), *TINY) == 0
        assert calls["forward"] >= 1 and calls["norm2d"] == 6 * calls["forward"]
        calls.update(norm2d=0, forward=0)
        assert run_cli("dump-attn", str(scene), "--out", str(trained), *TINY) == 0
        assert calls == {"norm2d": 36, "forward": 1}

    def test_infer_missing_checkpoint_is_runtime_error(self, tmp_path):
        scene = self._write_input(tmp_path)
        assert run_cli("infer", str(scene), "--out", str(tmp_path / "none"), *TINY) == 1

    def test_infer_oversized_checkpoint_is_one_error_line(self, tmp_path, capsys):
        scene = self._write_input(tmp_path)
        ckpt = tmp_path / "huge.lftc"
        ckpt.write_bytes(HUGE_CONTAINER)
        assert run_cli("infer", str(scene), "--out", str(tmp_path / "o"), *TINY,
                       "--checkpoint", str(ckpt)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "payload" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["infer", "dump-attn"])
    @pytest.mark.parametrize("checkpoint", [None, b"LFTC\x01\x00"], ids=["missing", "malformed"])
    def test_bad_checkpoint_is_one_error_line_and_writes_nothing(self, tmp_path, capsys, command, checkpoint):
        """The checkpoint is read before the output directory is made."""
        scene = self._write_input(tmp_path)
        ckpt = tmp_path / "bad.lftc"
        if checkpoint is not None:
            ckpt.write_bytes(checkpoint)
        out = tmp_path / "o"
        assert run_cli(command, str(scene), "--out", str(out), *TINY, "--checkpoint", str(ckpt)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_no_aux_heads_runs_everywhere_but_training(self, tmp_path):
        """Only the training objective needs the aux heads; analyze, infer
        and dump-attn run a model without them."""
        from lightformer import network
        no_aux = (*TINY, "--set", "model.aux_heads=false")
        ckpt = tmp_path / "no_aux.lftc"
        dcfg = config.load(overrides=no_aux[1::2]).decoder_config()
        network.save_checkpoint(network.build_model(dcfg, seed=0).store, ckpt)
        scene = self._write_input(tmp_path)
        assert run_cli("analyze", "--out", str(tmp_path / "a"), *no_aux) == 0
        for command in ("infer", "dump-attn"):
            assert run_cli(command, str(scene), "--out", str(tmp_path / command), *no_aux,
                           "--checkpoint", str(ckpt)) == 0
        assert fileio.read_pgm(tmp_path / "infer" / "scene_mask.pgm").shape == (64, 64)
        assert (tmp_path / "dump-attn" / "attn_sism.pgm").exists()

    def test_save_logits(self, trained, tmp_path):
        scene = self._write_input(tmp_path)
        assert run_cli("infer", str(scene), "--out", str(trained), *TINY,
                       "--set", "infer.save_logits=true") == 0
        logits = fileio.read_tensor(trained / "scene_logits.lftr")
        assert logits.shape == (3, 64, 64) and logits.dtype == np.float32

    def test_dump_attn_uniform_at_init(self, trained, tmp_path):
        scene = self._write_input(tmp_path)
        assert run_cli("dump-attn", str(scene), "--out", str(trained), *TINY) == 0
        sism = fileio.read_pgm(trained / "attn_sism.pgm")
        assert sism.shape == (16, 16)
        # zero-init attention projection puts the sigmoid at exactly 1/2
        assert set(np.unique(sism)) == {128}
        for name, side in (("attn_lcrm1.pgm", 2), ("attn_lcrm2.pgm", 4),
                           ("attn_lcrm3.pgm", 8)):
            heat = fileio.read_pgm(trained / name)
            assert heat.shape == (side, side), name

    def test_dump_attn_any_image_size(self, trained, tmp_path):
        """A 50x70 image is padded as infer pads it; each map keeps the
        ceil(side / stride) cells that see the image."""
        scene = tmp_path / "odd.ppm"
        fileio.write_ppm(scene, np.arange(50 * 70 * 3).reshape(50, 70, 3).astype(np.uint8))
        assert run_cli("dump-attn", str(scene), "--out", str(trained), *TINY) == 0
        for name, shape in (("attn_lcrm1.pgm", (2, 3)), ("attn_lcrm2.pgm", (4, 5)),
                            ("attn_lcrm3.pgm", (7, 9)), ("attn_sism.pgm", (13, 18))):
            assert fileio.read_pgm(trained / name).shape == shape, name

    def test_dump_attn_unreadable_image_writes_nothing(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("dump-attn", str(tmp_path / "missing.ppm"), "--out", str(out), *TINY) == 1
        assert not out.exists()

    def test_entropy_map_normalization(self):
        probs = np.full((4, 4, 4), 0.25)  # 2x2 windows, uniform rows
        entry = dict(probs=probs, batch=1, rows=2, cols=2, heads=1,
                     window=2, height=4, width=4)
        heat = cli.attention_entropy_map(entry)
        assert heat.shape == (1, 4, 4)
        np.testing.assert_allclose(heat, 1.0, atol=1e-7)
        peaked = np.zeros((4, 4, 4))
        peaked[..., 0] = 1.0
        entry["probs"] = peaked
        np.testing.assert_allclose(cli.attention_entropy_map(entry), 0.0, atol=1e-7)


class TestCliGradcheck:
    def test_filtered_run_passes(self, tmp_path):
        out = tmp_path / "g"
        assert run_cli("gradcheck", "--out", str(out), "--op", "relu",
                       "--instances", "2") == 0
        assert "relu" in (out / "gradcheck.txt").read_text()

    def test_echo_records_the_command_line(self, tmp_path):
        """``--instances`` has no config key, so only the echo's argv line
        tells these two runs apart. The line is JSON, so a ``--set`` value
        with a newline stays on it, and loading the echo gives back the
        run's config."""
        echoes = {}
        for n in ("1", "3"):
            out = tmp_path / n
            argv = ["gradcheck", "--op", "relu", "--instances", n, "--out", str(out),
                    "--set", "run.seed=\n5"]
            assert run_cli(*argv) == 0
            assert len((out / "gradcheck.txt").read_text().splitlines()) == int(n)
            first, rest = (out / "config.ini").read_text().split("\n", 1)
            assert first == "# argv: " + json.dumps(argv)
            loaded = config.load(out / "config.ini")
            assert loaded["run.seed"] == 5 and loaded.to_text() == rest
            echoes[n] = (first, rest.replace(str(out), "<out>"))
        assert echoes["1"][0] != echoes["3"][0] and echoes["1"][1] == echoes["3"][1]

    def test_unknown_op_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run_cli("gradcheck", "--out", str(out), "--op", "no-such-op") == 2
        assert "no-such-op" in capsys.readouterr().err
        assert not out.exists()


class TestCliSurface:
    def test_no_command_is_usage_error(self):
        assert run_cli() == 2

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate") == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli("analyze", "--config", str(tmp_path / "absent.ini"),
                       "--out", str(tmp_path / "o")) == 2

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"\xff\xfe[run]\nseed=1\n")
        out = tmp_path / "o"
        assert run_cli("analyze", "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]
        assert not out.exists()
