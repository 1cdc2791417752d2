"""Run every verification check that applies to each bundled example config.

Reports land in --out-dir (default: verdicts/ under the repository root), one
JSON file per (config, check) pair.  Each pair's verdict line and report path
go to stderr; stdout gets the failing pairs and the pass count.  Exit status is
the number of failing checks.

    python3 scripts/run_verdicts.py
    python3 scripts/run_verdicts.py --configs configs/funk_n2.json --out-dir /tmp/v
"""

import argparse
from pathlib import Path

from finslerlab.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]

# which checks make sense for which config
PLAN = {
    "funk_n2.json": ("isotropy", "douglas", "oracle"),
    "funk_randers_n3.json": ("isotropy", "douglas", "bh-classification"),
    "parallel_ht.json": ("isotropy", "ht-parallel"),
    "family_k.json": ("berwald-family", "douglas", "isotropy", "oracle"),
}


def checks_for(path: Path) -> tuple[str, ...]:
    return PLAN.get(path.name, ("isotropy", "douglas"))


def run(config_paths: list[Path], out_dir: Path, seed: int | None) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for cfg in config_paths:
        for check in checks_for(cfg):
            report = out_dir / f"{cfg.stem}__{check}.json"
            argv = ["verify", "--check", check, str(cfg), "--out", str(report)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            code = cli_main(argv)
            if code != 0:
                failures += 1
                print(f"  -> exit {code}, see {report}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--configs",
        nargs="*",
        type=Path,
        default=sorted((ROOT / "configs").glob("*.json")),
        help="config files to run (default: every JSON under configs/)",
    )
    ap.add_argument("--out-dir", type=Path, default=ROOT / "verdicts")
    ap.add_argument("--seed", type=int, default=None, help="seed for the oracle check")
    args = ap.parse_args()
    failures = run(list(args.configs), args.out_dir, args.seed)
    total = sum(len(checks_for(c)) for c in args.configs)
    print(f"{total - failures}/{total} checks passed")
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
