"""Regenerate the committed golden CSVs from the configs under tests/configs.

Run from the repository root only after a change to the algorithm that
produces the sampled values, never to make a failing golden comparison pass:

    python3 scripts/regen_goldens.py

Review the diff before committing, and record in CHANGES.md which change
moved which columns, with the count of changed fields and the largest
absolute difference against the old bytes.
"""

from pathlib import Path

from finslerlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "tests" / "configs"
GOLDENS = ROOT / "tests" / "goldens"


def run() -> None:
    GOLDENS.mkdir(exist_ok=True)
    for cfg in sorted(CONFIGS.glob("golden_*.json")):
        dst = GOLDENS / (cfg.stem + ".csv")
        code = main(["sample", str(cfg), "--out", str(dst)])
        if code != 0:
            raise SystemExit(f"sample failed for {cfg.name} (exit {code})")


if __name__ == "__main__":
    run()
