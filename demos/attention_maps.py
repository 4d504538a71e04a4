"""Dump per-stage attention maps from a trained decoder.

Two kinds of map come out of a forward pass run inside ``blocks.capture()``:
the window-attention probabilities at each refinement stage (rendered as
per-pixel entropy, bright = diffuse, dark = focused) and the spatial
sigmoid map from the detail-injection block. An untrained model
makes for a dull picture (the sigmoid sits at exactly 1/2 everywhere), so
the demo trains the toy recipe first and renders the maps afterwards.
"""

import tempfile
from pathlib import Path

import numpy as np

from lightformer import cli, config, fileio
from lightformer.synthetic import make_sample


def main():
    work = Path(tempfile.mkdtemp(prefix="attn-maps-"))
    cfg = config.load()
    print("training the toy recipe first (a few epochs)...")
    summary = cli.run_train_toy(cfg, str(work / "run"))
    print(f"trained to val mIoU {summary['final_miou']:.4f}")

    # Write one validation-style scene as a PPM and run the dump command.
    image, _ = make_sample(cfg.seed, "demo", 0)
    u8 = np.clip(image * 255.0 + 0.5, 0, 255).astype(np.uint8)
    scene = work / "scene.ppm"
    fileio.write_ppm(scene, u8.transpose(1, 2, 0))

    code = cli.main(["dump-attn", str(scene), "--out", str(work / "run")])
    assert code == 0

    for name in ("attn_lcrm1", "attn_lcrm2", "attn_lcrm3", "attn_sism"):
        path = work / "run" / f"{name}.pgm"
        heat = fileio.read_pgm(path)
        print(f"{name}: {heat.shape[0]}x{heat.shape[1]}, "
              f"gray range {heat.min()}..{heat.max()}  -> {path}")

    print("\nThe refinement-stage maps are entropy per attention window "
          "(normalized by ln(window area)); the detail map is the raw "
          "sigmoid. View the PGMs with any image tool.")


if __name__ == "__main__":
    main()
