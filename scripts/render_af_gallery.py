#!/usr/bin/env python3
"""Render ambiguity and Wigner heatmaps for the stock waveform families.

Writes one PPM per surface into the output directory, plus the SUR1
containers so the raw complex values stay inspectable:

    python scripts/render_af_gallery.py --out /tmp/gallery

A bad --db-floor prints an error and exits 2 before any file is written;
an output directory that cannot be made or written exits 2 as well.
"""

import argparse
import sys
from pathlib import Path

from mimoaf import (
    CANONICAL_SIGMA,
    MimoafError,
    SteeringConfig,
    cross_ambiguity,
    gen_gaussian,
    gen_lfm,
    gen_rect,
    gen_subcarrier_set,
    mimo_ambiguity,
    wigner,
)
from mimoaf.io_formats import write_ppm, write_surface_blocks


def render(out: Path, db_floor: float) -> None:
    def write(stem, s):
        # the SUR1 file and the heatmap in one call, so a bad floor writes neither
        write_surface_blocks([(0, s.values)], s.tau_axis, s.nu_axis, sur1=out / f"{stem}.sur",
                             ppm=out / f"{stem}.ppm", db_floor=db_floor)

    singles = {
        "rect": gen_rect(1.0, 1 / 128),
        "gaussian": gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0),
        "lfm": gen_lfm(1.0, 8.0, 1 / 128),
    }
    for name, u in singles.items():
        s = cross_ambiguity(u)
        write(f"{name}_af", s)
        w = wigner(u)
        write_ppm(out / f"{name}_wigner.ppm", w.values, db_floor=db_floor)
        print(f"{name}: af {s.values.shape}, wigner {w.values.shape}")

    subs = list(gen_subcarrier_set(2, 1.0, 1 / 128))
    cfg = SteeringConfig(2, 1.0)
    for fs, fsp in [(0.0, 0.0), (0.25, 0.75)]:
        s = mimo_ambiguity(subs, cfg, fs, fsp, n_doppler=512)
        write(f"mimo_fs{fs:g}_fsp{fsp:g}".replace(".", "p"), s)
        print(f"mimo slice ({fs}, {fsp}): {s.values.shape}")

    print(f"wrote gallery to {out}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="gallery", help="output directory")
    ap.add_argument("--db-floor", type=float, default=-60.0)
    args = ap.parse_args()
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        render(out, args.db_floor)
    except (MimoafError, OSError, MemoryError) as exc:
        # bad input or an unwritable output exits 2 as the CLI does
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
