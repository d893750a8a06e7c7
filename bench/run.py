"""The qheis benchmark: cold runs, checked answers and a per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload suite-fast --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
makes one untraced and one traced run and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark
needs only the standard library and the package source under ``src/``;
without that source it exits with code 2 and prints no result.
``--workload all`` runs every workload in both modes, one line each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import CACHES, CALL_COUNTS, LAW_NAMES, LAYERS  # noqa: E402

# set-up is short and the machine's speed drifts from second to second, so
# set-up is timed in batches before and after every cold run, and
# reported as the median of all of them
SETUP_SPAWNS = 4
CHILD_TIMEOUT = 170   # seconds before a hung cold run is killed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # bytecode is cached as for an installed package, but inside the
    # checkout, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    # reports must be byte-identical to be checked against their digest
    env["QHEIS_FIXED_CLOCK"] = "1"
    env.pop("QHEIS_WINDOW", None)
    return env


def spawn(cmd, stdin: bytes | None) -> dict:
    """Run one process to its end: wall time, peak RSS, exit code, output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(),
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        if stdin is not None:
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass
        out = proc.stdout.read()
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "stdout": out.decode(errors="replace")}


def setup_times() -> list[float]:
    """Times from spawn until ``qheis`` is imported and ready."""
    times = []
    for _ in range(SETUP_SPAWNS):
        run = spawn([sys.executable, "-c", "import qheis.cli"], None)
        if run["code"] != 0:
            raise SystemExit(f"error: importing qheis failed "
                             f"(exit {run['code']})")
        times.append(run["wall_s"])
    return times


def cold_run(req: dict, traced: bool) -> dict:
    """One fresh process doing the whole request.

    Every run of a workload is a fresh process.  The package keeps
    module-level caches (``_STACK_CACHE``, ``_REDUCE_CACHE`` and others)
    for the life of the process, so a second ``suite_reports(window=5)``
    in one process takes about 0.26 s against 12.6 s cold.  A user of
    ``qheis suite`` or ``qheis verify`` pays the cold cost on every call,
    and so does each run here.
    """
    if "cli" in req and not traced:
        return spawn([sys.executable, "-m", "qheis.cli", *req["cli"]], None)
    cmd = [sys.executable, os.path.join(HERE, "child.py")]
    if traced:
        cmd.append("--trace")
    run = spawn(cmd, json.dumps(req).encode())
    if traced and run["code"] == 0:
        doc = json.loads(run["stdout"])
        run.update(trace=doc["trace"], missing=doc["missing_hooks"])
        if "cli" in req:
            # the traced child wraps the CLI's exit code and output
            run.update(code=doc["exit"], stdout=doc["stdout"])
    return run


def check(req: dict, seed: int, run: dict, golden: dict) -> checks.Outcome:
    if "cli" in req:
        return checks.check_suite(run["code"], run["stdout"], seed,
                                  req["cli"], golden)
    if "laws" in req:
        return checks.check_laws(run["code"], run["stdout"], req["laws"],
                                 golden)
    return checks.check_queries(run["code"], run["stdout"], req["queries"],
                                golden)


def per_layer_names() -> list[str]:
    names = list(CALL_COUNTS) + ["scalar.nonmono_ctor",
                                 "kernels.parse_failures",
                                 "vertexops.inverse_exp_distinct"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += [f"law.{law}_s" for law in LAW_NAMES]
    names += list(CACHES)
    names += ["trace.wall_s", "trace.unattributed_s", "trace.overhead_frac",
              "trace.missing_hooks"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "frac" if name.endswith("_frac") else "count"


def measure(workload: str, seed: int, seconds: float, golden: dict):
    """End-to-end metrics: cold runs until ``seconds`` have passed."""
    req = workloads.request(workload, seed)
    setup = setup_times()
    runs, outcomes = [], []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 < seconds:
        run = cold_run(req, traced=False)
        runs.append(run)
        outcomes.append(check(req, seed, run, golden))
        setup += setup_times()
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "ok_frac": (attempted - failed) / attempted,
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "ok_frac": "frac"}
    print(f"{workload} seed={seed}: {len(runs)} cold runs, walls "
          + " ".join(f"{r['wall_s']:.3f}" for r in runs), file=sys.stderr)
    return outcomes, {k: {"value": v, "unit": units[k]}
                      for k, v in metrics.items()}


def trace(workload: str, seed: int, golden: dict):
    """Per-layer metrics: one untraced and one traced cold run."""
    req = workloads.request(workload, seed)
    plain = cold_run(req, traced=False)
    traced = cold_run(req, traced=True)
    outcomes = [check(req, seed, r, golden)
                for r in (plain, traced)]
    if outcomes[0].answers != outcomes[1].answers:
        outcomes[1].wrong.append("traced run answers differ from untraced")
    values = dict(traced.get("trace", {}))
    missing = traced.get("missing", ["(traced run failed)"])
    if missing:
        print(f"missing hooks: {', '.join(missing)}", file=sys.stderr)
    self_total = sum(values.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.unattributed_s"] = traced["wall_s"] - self_total
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    values["trace.missing_hooks"] = len(missing)
    metrics = {name: {"value": values.get(name, 0), "unit": unit_of(name)}
               for name in per_layer_names()}
    return outcomes, metrics


def result(outcomes, metrics) -> dict:
    wrong = [w for o in outcomes for w in o.wrong]
    for line in wrong[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all of them with and without "
                         "the trace, one result line each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qheis", "__init__.py")):
        print(f"error: no qheis source under {SRC}", file=sys.stderr)
        return 2
    golden = checks.load_golden()
    every = args.workload == "all"
    for name in workloads.WORKLOADS if every else (args.workload,):
        for mode in (0, 1) if every else (args.trace,):
            res = result(*(trace(name, args.seed, golden) if mode else
                           measure(name, args.seed, args.seconds, golden)))
            if every:
                res = {"workload": name, "trace": mode, **res}
            print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
