"""scripts/run_verdicts.py's PLAN, run in-process on the bundled configs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location("run_verdicts",
                                                  ROOT / "scripts" / "run_verdicts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_planned_pair_passes_on_the_bundled_configs(tmp_path, capsys):
    script = _load_script()
    configs = sorted((ROOT / "configs").glob("*.json"))
    assert sorted(c.name for c in configs) == sorted(script.PLAN)
    assert script.run(configs, tmp_path, None) == 0
    pairs = [(c, check) for c in configs for check in script.checks_for(c)]
    assert ("family_k.json", "oracle") in [(c.name, check) for c, check in pairs]
    for cfg, check in pairs:
        report = json.loads((tmp_path / f"{cfg.stem}__{check}.json").read_text())
        assert (report["check"], report["verdict"]) == (check, "pass"), cfg.name
    err = capsys.readouterr().err
    assert err.count(": PASS (") == len(pairs)


def test_every_planned_check_runs_on_its_configs_metric_kind():
    # a check the plan puts on a config of another metric kind would exit 2, not verify
    from finslerlab import cli

    script = _load_script()
    for name, checks in script.PLAN.items():
        kind = json.loads((ROOT / "configs" / name).read_text())["metric"]["kind"]
        for check in checks:
            assert check in cli.CHECKS, (name, check)
            assert cli._VERIFIERS[check].kind in (None, kind), (name, check)
