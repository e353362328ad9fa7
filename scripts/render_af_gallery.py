#!/usr/bin/env python3
"""Render ambiguity and Wigner heatmaps for the stock waveform families.

Writes one PPM per surface into the output directory, plus the SUR1
containers so the raw complex values stay inspectable:

    python scripts/render_af_gallery.py --out /tmp/gallery
"""

import argparse
from pathlib import Path

from mimoaf import (
    CANONICAL_SIGMA,
    SteeringConfig,
    cross_ambiguity,
    gen_gaussian,
    gen_lfm,
    gen_rect,
    gen_subcarrier_set,
    mimo_ambiguity,
    wigner,
)
from mimoaf.io_formats import write_ppm, write_surface


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="gallery", help="output directory")
    ap.add_argument("--db-floor", type=float, default=-60.0)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    singles = {
        "rect": gen_rect(1.0, 1 / 128),
        "gaussian": gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0),
        "lfm": gen_lfm(1.0, 8.0, 1 / 128),
    }
    for name, u in singles.items():
        s = cross_ambiguity(u)
        write_surface(out / f"{name}_af.sur", s)
        write_ppm(out / f"{name}_af.ppm", s.values, db_floor=args.db_floor)
        w = wigner(u)
        write_ppm(out / f"{name}_wigner.ppm", w.values, db_floor=args.db_floor)
        print(f"{name}: af {s.values.shape}, wigner {w.values.shape}")

    subs = list(gen_subcarrier_set(2, 1.0, 1 / 128))
    cfg = SteeringConfig(2, 1.0, 64)
    for fs, fsp in [(0.0, 0.0), (0.25, 0.75)]:
        s = mimo_ambiguity(subs, cfg, fs, fsp, n_doppler=512)
        stem = f"mimo_fs{fs:g}_fsp{fsp:g}".replace(".", "p")
        write_surface(out / f"{stem}.sur", s)
        write_ppm(out / f"{stem}.ppm", s.values, db_floor=args.db_floor)
        print(f"mimo slice ({fs}, {fsp}): {s.values.shape}")

    print(f"wrote gallery to {out}")


if __name__ == "__main__":
    main()
