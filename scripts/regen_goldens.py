"""Regenerate the committed goldens from the configs under tests/configs.

For each ``golden_*.json`` config it writes the sampled CSV (``<stem>.csv``)
and the JSON reports of ``analyze`` and of ``verify --check isotropy`` and
``--check douglas`` (``<stem>.analyze.json``, ``<stem>.isotropy.json``,
``<stem>.douglas.json``).  Run from the repository root only after a change
to the algorithm that produces those values, never to make a failing golden
comparison pass:

    python3 scripts/regen_goldens.py

Review the diff before committing, and record in CHANGES.md which change
moved which columns, with the count of changed fields and the largest
absolute difference against the old bytes.
"""

import contextlib
import io
from pathlib import Path

from finslerlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "tests" / "configs"
GOLDENS = ROOT / "tests" / "goldens"

#: golden file suffix -> the command it records, without the config path
RUNS = {
    ".csv": ["sample"],
    ".analyze.json": ["analyze"],
    ".isotropy.json": ["verify", "--check", "isotropy"],
    ".douglas.json": ["verify", "--check", "douglas"],
}


def run() -> None:
    GOLDENS.mkdir(exist_ok=True)
    for cfg in sorted(CONFIGS.glob("golden_*.json")):
        for suffix, argv in RUNS.items():
            dst = GOLDENS / (cfg.stem + suffix)
            with contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, str(cfg), "--out", str(dst)])
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} failed for {cfg.name} (exit {code})")


if __name__ == "__main__":
    run()
