"""Compare benchmark results files: metric ratios plus the checks that make them comparable.

    python3 bench/compare.py .bench_out/results/A.json .bench_out/results/B.json

Prints, for each metric both files report, the two values and B/A.  Flags:

* a pair whose Python, numpy or numpy CPU features differ (the numbers then
  compare two platforms, not two programs);
* two runs of the same workload, seed and source whose output or sample-CSV
  digests differ (the same inputs must give the same outputs and bytes);
* two traced runs of the same workload, seed and source whose counts differ
  (counts must repeat exactly).

Exit status 1 when anything is flagged.
"""

import json
import sys

PLATFORM = ("python", "numpy", "numpy_cpu_features")
# per-layer metrics built only from counts; they must repeat exactly
COUNT_UNITS = {"count", "elem/call", "point/call", "eval/call", "eval/point", "ratio"}


def compare(a: dict, b: dict) -> list[str]:
    flags = []
    pa, pb = a["provenance"], b["provenance"]
    for key in PLATFORM:
        if pa.get(key) != pb.get(key):
            flags.append(f"platform differs: {key} {pa.get(key)!r} vs {pb.get(key)!r}")
    same_inputs = (a["workload"] == b["workload"] and a["seed"] == b["seed"]
                   and pa["source_sha256"] == pb["source_sha256"])
    if same_inputs:
        for key in ("outputs_sha256", "sample_csv_sha256"):
            if a.get(key) != b.get(key):
                flags.append(f"{key} differs for the same workload, seed and source")
    print(f"{'metric':36s} {'A':>14s} {'B':>14s} {'B/A':>8s}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{name:36s} {va:14.6g} {vb:14.6g} {ratio}  {ma['unit']}")
        if same_inputs and a["trace"] and b["trace"] and ma["unit"] in COUNT_UNITS and va != vb:
            flags.append(f"count {name} differs between traced runs: {va!r} vs {vb!r}")
    return flags


def main(paths) -> int:
    if len(paths) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    runs = [json.loads(open(p, encoding="utf-8").read()) for p in paths]
    flags = []
    for path, run in zip(paths[1:], runs[1:]):
        print(f"\nA = {paths[0]}\nB = {path}")
        flags += compare(runs[0], run)
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
