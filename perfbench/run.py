"""iwot benchmark: end-to-end train/eval times and per-layer timings per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round is a fresh process (round.py)
with BLAS pinned to one thread; a cycle is one round per input of the
workload, and cycles repeat until the next one would run past --seconds (at
least one always runs). With --trace 0 the last line of stdout reports the
end-to-end metrics as medians over the run's rounds; with --trace 1 one
traced cycle gives the per-layer metrics (medians over its rounds). A round
that crashes or fails a check makes the run incorrect. The line before the
last describes the environment. Run outputs go to .perfbench_runs/ under
the checkout.
"""

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "train_s": "s", "eval_s": "s", "peak_rss_mb": "MB"}


def pinned_env():
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "iwot")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def describe_env(env, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "round.py"), "--describe-env"],
        env=env, capture_output=True, text=True, check=True,
    )
    info = json.loads(proc.stdout)
    info.update(
        blas_threads_requested=BLAS_THREADS,
        git_commit=git_commit(),
        src_sha256=source_digest(),
        seed=seed,
    )
    return info


def run_round(args, index, trace, env, out_dir, log):
    workdir = os.path.join(out_dir, "round_%02d_trace%d" % (len(log), trace))
    command = [
        sys.executable, os.path.join(HERE, "round.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--index", str(index),
        "--trace", str(trace), "--workdir", workdir,
    ]
    proc = subprocess.run(
        command + ["--spawned-at", repr(time.time())], env=env, capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"crashed": proc.returncode, "stderr": proc.stderr.strip()[-2000:]}
    result.update(index=index, trace=trace)
    log.append(result)
    if "crashed" not in result and "error" not in result:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result)[:300], file=sys.stderr)
    return result


def ok(result):
    return "crashed" not in result and "error" not in result


def end_to_end(rounds):
    good = [r for r in rounds if ok(r)]
    if not good:
        return {}
    values = {
        "setup_s": [r["setup_s"] for r in good],
        "train_s": [r["train_s"] for r in good],
        "eval_s": [s for r in good for s in r["eval_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    return {
        name: {"value": statistics.median(v), "unit": END_TO_END_UNITS[name]}
        for name, v in values.items()
    }


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    return "count"


def per_layer(traced):
    good = [t for t in traced if ok(t)]
    if not good:
        return {}
    return {
        name: {"value": statistics.median(t["layers"][name] for t in good), "unit": layer_unit(name)}
        for name in good[0]["layers"]
    }


def property_error(workload, rounds):
    """The pooled method-property check over the run's rounds, as an error string or None."""
    try:
        checks.check_method_properties(workload.split[0], [r["properties"] for r in rounds if ok(r)])
    except checks.CheckError as exc:
        return str(exc)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "iwot", "__init__.py")):
        print("perfbench: no iwot sources under %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = pinned_env()
    compileall.compile_dir(SRC, quiet=1)
    environment = describe_env(env, args.seed)
    out_dir = os.path.join(
        ROOT, ".perfbench_runs", "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    log = []
    if args.trace:
        for index in range(workload.inputs):
            run_round(args, index, 1, env, out_dir, log)
        metrics = per_layer(log)
    else:
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            for index in range(workload.inputs):
                run_round(args, index, 0, env, out_dir, log)
            now = time.perf_counter()
            if now - start + (now - began) > args.seconds:
                break
        metrics = end_to_end(log)
    errors = [r["error"] for r in log if "error" in r]
    error = property_error(workload, log)
    if error:
        errors.append(error)

    failed = sum(1 for r in log if "crashed" in r)
    summary = {
        "correct": not errors and not failed and bool(metrics),
        "attempted": len(log),
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as handle:
        record = {"environment": environment, "rounds": log, "errors": errors, **summary}
        json.dump(record, handle, indent=1)
    print("environment " + json.dumps(environment))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
