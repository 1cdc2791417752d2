"""scripts/output_digest.py on one bundled config, as a command and in-process."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from finslerlab.cli import CHECKS

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"
CONFIG = ROOT / "configs" / "funk_n2.json"


def _load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_digest_of_one_config_is_one_line_and_reproducible(capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPT), str(CONFIG)],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout), proc.stdout
    runs = proc.stderr.splitlines()
    assert len(runs) == 2 + len(CHECKS)  # analyze, sample, every check
    assert runs[0].startswith("analyze ") and " exit 0 " in runs[0]
    assert any(line.startswith("verify --check oracle --seed 7 ") for line in runs)
    # a fresh process and this one, whatever it has cached, agree
    script = _load_script()
    assert script.digest([CONFIG]) == proc.stdout.strip()
    capsys.readouterr()
