#!/usr/bin/env python3
"""Bonnesen chain battery over random ovals plus the equality degeneration.

Checks t1 <= r <= R <= t2 on seeded random convex bodies and shows the gaps
max(r - t1) and max(t2 - R) closing as an oval family degenerates to the
circle (any equality in the chain forces a circle).
"""

import argparse
import json
from dataclasses import asdict
from pathlib import Path

from curveflow import bonnesen_chain, curve_from_support, resample_arclength
from curveflow import shapes


def battery(count: int, samples: int, outdir: Path) -> None:
    print(f"== chain battery: {count} seeded ovals at {samples} samples ==")
    rows = []
    failures = 0
    for seed in range(count):
        p = shapes.random_oval_support(512, seed, offset=0.1)
        curve = resample_arclength(curve_from_support(p), samples)
        rep = bonnesen_chain(curve)
        rows.append(asdict(rep) | {"seed": seed})
        failures += not rep.chain_ok
    (outdir / "battery.json").write_text(json.dumps(rows, indent=1))
    worst = max(r["equality_gap"] for r in rows)
    print(f"  chain failures: {failures}/{count}  worst equality gap: {worst:.4f}")
    print(f"  wrote {outdir / 'battery.json'}")
    print()


def degeneration(outdir: Path) -> None:
    print("== equality degeneration: p = 1 + delta*cos(2 theta) ==")
    print("  delta     t1          r           R           t2          gap")
    for delta in (0.2, 0.1, 0.05, 0.01, 0.002):
        p = shapes.cosine_oval_support(1024, {2: (delta, 0.0)})
        rep = bonnesen_chain(curve_from_support(p))
        print(
            f"  {delta:<8g} {rep.t1:.8f}  {rep.inradius:.8f}  {rep.circumradius:.8f}  "
            f"{rep.t2:.8f}  {rep.equality_gap:.2e}"
        )
    print("  gap -> 0 as the oval tends to the circle (the equality case).")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="bonnesen_out", help="artifact directory")
    parser.add_argument("--count", type=int, default=100, help="number of random ovals")
    parser.add_argument("--samples", type=int, default=2048, help="polygon sample count")
    args = parser.parse_args()
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    battery(args.count, args.samples, outdir)
    degeneration(outdir)


if __name__ == "__main__":
    main()
