#!/usr/bin/env python3
"""Write sample curve CSV files for driving the CLI by hand."""

import argparse
from pathlib import Path

from curveflow import curve_from_support, write_curve_csv
from curveflow import shapes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="sample_curves", help="target directory")
    args = parser.parse_args()
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {
        "circle.csv": shapes.circle(1024),
        "ellipse21.csv": shapes.ellipse(1024),
        "rounded_square.csv": shapes.rounded_square(512),
        "egg.csv": curve_from_support(shapes.random_oval_support(1024, 5, offset=0.25)),
        "lshape.csv": shapes.l_hexagon(),
        "limacon.csv": shapes.limacon(512),
    }
    for name, curve in files.items():
        write_curve_csv(curve, outdir / name)
        print(f"wrote {outdir / name} ({curve.n} points)")


if __name__ == "__main__":
    main()
