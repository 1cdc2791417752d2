"""Print one SHA-256 over the command-line outputs on the example configs.

For each config, in order, it runs ``analyze``, ``sample`` and every ``verify
--check`` (``oracle`` with ``--seed 7``) through ``finslerlab.cli.main`` in this
process, and hashes each run's stdout, exit code and last stderr line.  Two
checkouts print the same digest when those outputs are bit-identical, so a
before/after bit check is this command run in each:

    PYTHONPATH=src python3 scripts/output_digest.py
    PYTHONPATH=src python3 scripts/output_digest.py configs/funk_n2.json

Without arguments it covers configs/*.json and tests/configs/*.json.  One line
per run (its arguments, exit code and a short digest) goes to stderr, to find
the run that differs; the digest is the only stdout line.
"""

import argparse
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from finslerlab.cli import CHECKS
from finslerlab.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]


def commands(config: Path) -> list[list[str]]:
    """The runs for one config: analyze, sample, then each check."""
    runs = [["analyze", str(config)], ["sample", str(config)]]
    for check in CHECKS:
        seed = ["--seed", "7"] if check == "oracle" else []
        runs.append(["verify", "--check", check, *seed, str(config)])
    return runs


def run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code of one in-process run, and its stdout, exit code and last stderr line as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    last = (err.getvalue().splitlines() or [""])[-1]
    return code, "\0".join([out.getvalue(), str(code), last]).encode()


def digest(configs: list[Path]) -> str:
    total = hashlib.sha256()
    for config in configs:
        for argv in commands(config):
            code, blob = run(argv)
            one = hashlib.sha256(blob)
            print(f"{' '.join(argv)}: exit {code} {one.hexdigest()[:12]}", file=sys.stderr)
            total.update(one.digest())
    return total.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", type=Path,
                    help="config files (default: configs/*.json and tests/configs/*.json)")
    args = ap.parse_args(argv)
    configs = args.configs or sorted((ROOT / "configs").glob("*.json")) + sorted(
        (ROOT / "tests" / "configs").glob("*.json"))
    print(digest(configs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
