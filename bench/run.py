"""finslerlab benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload grid-dense --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see workloads.py and BENCHMARK.json):

* ``grid-dense``  every profile kind on dense (r, s) grids;
* ``brute-force`` oracle points, cold family builds and the ODE solvers.

A run scores a fixed input set: the first ``ROUNDS[workload]`` rounds of
the seed.  With ``--trace 0`` it times that set in passes, each in a fresh
interpreter so every pass starts with cold caches as a user's run does, until
``--seconds`` have passed (at least ``MIN_PASSES``); every verdict is scored
with its mean latency over the passes, rescaled to the reference host speed
by the calibration bursts timed next to it (see hostspeed.py).  It then checks a fixed-input
reference round against ``reference.json`` and prints the end-to-end
metrics.  With ``--trace 1`` it makes one untraced pass and then the same
rounds traced in this interpreter, checks that both give identical outputs,
and prints the per-layer metrics with the tracing overhead.  The last line of
stdout is one JSON object; a results file with provenance and sample counts
goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import os

# single-threaded numerics in this process and every child it starts
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

#: rounds in the scored input set of a run
ROUNDS = {"grid-dense": 2, "brute-force": 4}
#: timed passes over the input set a run makes at least
MIN_PASSES = 3
#: seed of the fixed-input reference round recorded in reference.json
REFERENCE_SEED = 0
#: reference values agree to this share of max(1, |value|)
REF_RTOL = 1e-9
#: fresh interpreters timed for setup_s, at least (one more runs before each pass)
SETUP_REPEATS = 9
TAIL_RUNGS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "verdicts_per_s": "1/s",
    "grid_points_per_s": "1/s",
    "oracle_points_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, stderr_path: Path):
    """Run cmd to completion; return its exit code and resource usage."""
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


# -- one pass over the input set ---------------------------------------------------


def run_step(step) -> dict:
    """Run one verdict; its latency is CPU seconds of this process.

    Verdicts are single-threaded and CPU-bound, so this is their wall time on
    a core of their own; unlike wall time it leaves out the periods in which
    the host runs another tenant on this vCPU.
    """
    if step.prepare is not None:
        step.prepare()
    t0 = time.process_time()
    try:
        out = step.act()
        error = None
    except Exception:  # a crash is a failed verdict, not a failed benchmark
        out, error = None, traceback.format_exc(limit=3)
    latency = time.process_time() - t0
    if error is None:
        try:
            values, problems = step.judge(out)
        except Exception:
            values, problems = {}, [traceback.format_exc(limit=3)]
    else:
        values, problems = {}, [error]
    return {"label": step.label, "latency_s": latency, "grid_points": step.grid_points,
            "oracle_points": step.oracle_points, "problems": problems, "values": values}


def new_round(workload, seed, index, work, small=False):
    return workloads.build_round(
        workloads.Round(workload, seed, index, work / f"r{index:03d}", small))


def run_rounds(workload, seed, work) -> dict:
    """The scored input set once, in this interpreter: verdicts, digests, wall time."""
    verdicts = []
    outputs, csv_bytes = hashlib.sha256(), hashlib.sha256()
    t0 = time.perf_counter()
    for index in range(ROUNDS[workload]):
        rnd = new_round(workload, seed, index, work)
        for step in rnd.steps:
            burst_s = hostspeed.burst()
            v = run_step(step)
            v["burst_s"] = burst_s
            outputs.update(repr((v["label"], sorted(v.pop("values").items()))).encode())
            verdicts.append(v)
        for blob in rnd.csv_bytes:
            csv_bytes.update(blob)
        shutil.rmtree(rnd.work, ignore_errors=True)
    return {"verdicts": verdicts, "wall_s": time.perf_counter() - t0,
            "digests": {"outputs_sha256": outputs.hexdigest(),
                        "sample_csv_sha256": csv_bytes.hexdigest()}}


def measure_pass(workload, seed, work) -> dict:
    """run_rounds in a fresh interpreter; adds its peak RSS in KiB."""
    out = work / "pass.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--pass-out", str(out)]
    rc, usage = run_child(cmd, work / "stderr.txt")
    if rc != 0:
        raise RuntimeError(f"pass exited {rc}; see {work / 'stderr.txt'}")
    result = json.loads(out.read_text())
    result["max_rss_kb"] = usage.ru_maxrss
    return result


# -- checks outside the timed passes ---------------------------------------------


def reference_pass(workload, work) -> list[dict]:
    """The fixed-input round, compared with the values in reference.json."""
    rnd = new_round(workload, REFERENCE_SEED, 0, work / "reference", small=True)
    verdicts = [run_step(step) for step in rnd.steps]
    recorded = json.loads((HERE / "reference.json").read_text())[workload]
    for key, v in zip(_reference_keys(verdicts), verdicts):
        want = recorded.get(key)
        problems, values = v["problems"], v["values"]
        if want is None:
            problems.append(f"no reference values for {key}")
            continue
        if sorted(want) != sorted(values):
            problems.append(f"{key}: values {sorted(values)} but reference {sorted(want)}")
            continue
        for name, ref in want.items():
            got = values[name]
            bad = [i for i, (x, y) in enumerate(zip(got, ref))
                   if x is None or y is None or abs(x - y) > REF_RTOL * max(1.0, abs(y))]
            if len(got) != len(ref) or bad:
                i = bad[0] if bad else min(len(got), len(ref))
                problems.append(f"{key}.{name}[{i}] differs from the reference value")
                break
    shutil.rmtree(rnd.work, ignore_errors=True)
    return verdicts


def _reference_keys(verdicts):
    seen: dict[str, int] = {}
    for v in verdicts:
        seen[v["label"]] = seen.get(v["label"], -1) + 1
        yield f"{v['label']}#{seen[v['label']]}"


def record_reference(work) -> None:
    """Write reference.json from this checkout's outputs on the reference round."""
    table = {}
    for workload in ROUNDS:
        rnd = new_round(workload, REFERENCE_SEED, 0, work / workload, small=True)
        verdicts = [run_step(step) for step in rnd.steps]
        bad = [f"{v['label']}: {v['problems']}" for v in verdicts if v["problems"]]
        if bad:
            raise SystemExit("reference round fails its own checks:\n" + "\n".join(bad))
        table[workload] = {k: v["values"] for k, v in zip(_reference_keys(verdicts), verdicts)}
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def check_inputs(workload, seed, work) -> list[str]:
    """Same seed -> identical inputs; another seed moves every drawn input."""
    def inputs(s):
        rnd = new_round(workload, s, 0, work / f"inputs{s}")
        return rnd.inputs, json.dumps(rnd.configs, sort_keys=True)

    a, b, c = inputs(seed), inputs(seed), inputs(seed + 1)
    problems = []
    if a != b:
        problems.append("the same seed generated different inputs")
    if len(a[0]) != len(c[0]) or any(x == y for x, y in zip(a[0], c[0])):
        problems.append("another seed left some input in place")
    return problems


class SetupTimer:
    """Times fresh interpreters that import finslerlab and load every config of a round.

    Called between passes, so its samples spread over the run like the
    verdicts do.  Each time is rescaled to the reference host speed by
    calibration bursts timed just before and after its interpreter.
    """

    def __init__(self, workload, seed, work):
        rnd = new_round(workload, seed, 0, work / "setup")
        self.paths = []
        for i, cfg in enumerate(rnd.configs):
            p = rnd.path(f"setup{i}.json")
            p.write_text(json.dumps(cfg))
            self.paths.append(str(p))
        self.code = ("import sys\nfrom finslerlab import cli\n"
                     "for p in sys.argv[1:]:\n    cli.build_spec(cli.load_config(p))\n")
        self.stderr = work / "stderr.txt"
        self.times: list[float] = []
        self.raw_times: list[float] = []

    def __call__(self):
        bursts = [hostspeed.burst() for _ in range(hostspeed.SETUP_BURSTS)]
        rc, usage = run_child([sys.executable, "-c", self.code, *self.paths], self.stderr)
        bursts += [hostspeed.burst() for _ in range(hostspeed.SETUP_BURSTS)]
        raw = usage.ru_utime + usage.ru_stime
        self.raw_times.append(raw)
        self.times.append(raw * hostspeed.REFERENCE_S / statistics.fmean(bursts))
        if rc != 0:
            raise RuntimeError(f"set-up child exited {rc}; see {self.stderr}")


# -- metrics ---------------------------------------------------------------------


def tail_rung(samples: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    for p in TAIL_RUNGS:
        if samples * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def nearest_rank(sorted_values, p):
    k = max(0, int(np.ceil(p / 100.0 * len(sorted_values))) - 1)
    return sorted_values[k]


def end_to_end(verdicts, latency, setup_times, rss_mb, attempted, failed) -> dict:
    """The end-to-end metrics of a run.

    ``verdicts`` is the input set as one pass ran it and ``latency[i]`` the
    mean latency of verdict i over the passes.
    """
    ordered = sorted(latency)
    grid = [i for i, v in enumerate(verdicts) if v["grid_points"]]
    orc = [i for i, v in enumerate(verdicts) if v["oracle_points"]]
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "verdict_p50_s": (statistics.median(ordered), len(ordered)),
        "verdict_tail_s": (nearest_rank(ordered, tail_rung(len(ordered))), len(ordered)),
        "verdicts_per_s": (len(ordered) / sum(ordered), len(ordered)),
        "grid_points_per_s": (sum(verdicts[i]["grid_points"] for i in grid) /
                              sum(latency[i] for i in grid), len(grid)),
        "oracle_points_per_s": (sum(verdicts[i]["oracle_points"] for i in orc) /
                                sum(latency[i] for i in orc), len(orc)),
        "ok_ratio": ((attempted - failed) / attempted, attempted),
        "peak_rss_mb": (rss_mb, 1),
    }
    return {k: {"value": float(v), "unit": END_TO_END[k], "samples": m}
            for k, (v, m) in values.items()}


# -- provenance ------------------------------------------------------------------


def provenance(seed: int) -> dict:
    sha = dirty = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "finslerlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        from numpy._core import _multiarray_umath as mu
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as mu
    features = sorted(k for k, on in getattr(mu, "__cpu_features__", {}).items() if on)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_cpu_features": features,
        "numpy_cpu_baseline": list(getattr(mu, "__cpu_baseline__", [])),
        "numpy_cpu_dispatch": list(getattr(mu, "__cpu_dispatch__", [])),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# -- the two kinds of run --------------------------------------------------------


def _failures(verdicts) -> list[str]:
    return [f"{v['label']}: {v['problems'][0]}" for v in verdicts if v["problems"]]


def untraced_run(args, work, import_s) -> tuple[dict, dict]:
    problems = check_inputs(args.workload, args.seed, work)
    setup = SetupTimer(args.workload, args.seed, work)
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        setup()
        passes.append(measure_pass(args.workload, args.seed, work))
    wall = time.perf_counter() - t_start
    while len(setup.times) < SETUP_REPEATS:
        setup()
    if any(p["digests"] != passes[0]["digests"] for p in passes):
        problems.append("passes over the same inputs gave different outputs")
    scaled = [hostspeed.rescale([v["latency_s"] for v in p["verdicts"]],
                                [v["burst_s"] for v in p["verdicts"]]) for p in passes]
    # the mean, not the median: the host slows passes in phases of seconds,
    # and averaging over the phases steadies a run more than skipping them
    latency = [statistics.fmean(column) for column in zip(*scaled)]
    reference = reference_pass(args.workload, work)
    every = [v for p in passes for v in p["verdicts"]] + reference
    failures = _failures(every)
    failed = len(failures) + len(problems)
    rss_mb = max(p["max_rss_kb"] for p in passes) / 1024.0
    metrics = end_to_end(passes[0]["verdicts"], latency, setup.times, rss_mb,
                         len(every), failed)
    detail = {
        "passes": len(passes), "verdicts_per_pass": len(latency), "loop_wall_s": wall,
        "tail_percentile": tail_rung(len(latency)), "setup_times_s": setup.times,
        "setup_cpu_s": setup.raw_times,
        "speed_by_pass": [hostspeed.REFERENCE_S / statistics.fmean(v["burst_s"]
                                                                  for v in p["verdicts"])
                          for p in passes],
        "import_s": import_s, **passes[0]["digests"],
        "latency_by_verdict_s": {f"{v['label']}#{i}": [p[i] for p in scaled]
                                 for i, v in enumerate(passes[0]["verdicts"])},
        "cpu_by_verdict_s": {f"{v['label']}#{i}": [p["verdicts"][i]["latency_s"]
                                                    for p in passes]
                             for i, v in enumerate(passes[0]["verdicts"])},
        "failures": failures[:20] + problems,
    }
    return metrics, detail | {"correct": failed == 0, "attempted": len(every), "failed": failed}


def traced_run(args, work, import_s) -> tuple[dict, dict]:
    from finslerlab import volume

    untraced = measure_pass(args.workload, args.seed, work)
    trace_dir = OUT / "traces" / f"{args.workload}_s{args.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    tracer = tracing.Tracer()
    tracer.install()
    before = volume._node_jets.cache_info()
    tracer.on = True
    try:
        traced = run_rounds(args.workload, args.seed, work)
    finally:
        tracer.on = False
    after = volume._node_jets.cache_info()
    node_jets = [after.hits - before.hits, after.misses - before.misses]
    path = trace_dir / "trace.json"
    tracer.dump(path, {"import_s": import_s, "node_jets": node_jets})
    sums = tracing.layer_sums(json.loads(path.read_text()))
    metrics = tracing.layer_metrics(sums, traced["wall_s"] - untraced["wall_s"])
    reference = reference_pass(args.workload, work)
    every = traced["verdicts"] + untraced["verdicts"] + reference
    failures = _failures(every)
    problems = []
    if traced["digests"] != untraced["digests"]:
        problems.append("traced outputs differ from untraced outputs")
    failed = len(failures) + len(problems)
    detail = {
        "rounds": ROUNDS[args.workload], "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": untraced["wall_s"], **traced["digests"],
        "trace_dir": str(trace_dir.relative_to(ROOT)),
        "failures": failures[:20] + problems,
    }
    return metrics, detail | {"correct": failed == 0, "attempted": len(every), "failed": failed}


# -- entry point -----------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(ROUNDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite bench/reference.json from this checkout and exit")
    ap.add_argument("--pass-out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/finslerlab/__init__.py", "configs")
               if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a finslerlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import finslerlab.cli  # noqa: F401  (timed: the import a user pays)
    import_s = time.perf_counter() - t0

    if args.pass_out:  # a timed pass, started by measure_pass
        work = Path(args.pass_out).parent / "pass"
        try:
            result = run_rounds(args.workload, args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        Path(args.pass_out).write_text(json.dumps(result))
        return 0

    work = OUT / "work" / f"{args.workload or 'reference'}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.record_reference:
            record_reference(work)
            return 0
        prov = provenance(args.seed)
        run = traced_run if args.trace else untraced_run
        metrics, detail = run(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov["loadavg_end"] = list(os.getloadavg())
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "metrics": metrics, **detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}_s{args.seed}_t{args.trace}_{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}{samples}")
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    print(f"results: {path.relative_to(ROOT)}")
    line = {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
