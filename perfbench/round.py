"""One benchmark round in a fresh process: set up, train, evaluate, then check.

Usage (run.py starts it; the environment must already be pinned):

    python3 perfbench/round.py --workload NAME --seed N --index J --trace 0|1
                               --spawned-at UNIX_TIME --workdir DIR
    python3 perfbench/round.py --describe-env

Prints one JSON line: the round's end-to-end timings, its peak resident
memory, and with --trace 1 its per-layer metrics. Exits 1 with an "error"
entry when a check fails.
"""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time

import checks
from tracer import LIBRARY_SITES, Tracer, merge, span_metrics, wrapper_cost_s
from workloads import SHIFT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def round_seed(seed, index):
    """The data seed of round `index` of a run seeded with `seed`.

    The training seed of round `index` is `index` itself: PDA train time
    varies about 2x with the training seed alone but only ~5% with the data
    seed, so a fixed set of training seeds keeps the same mix of
    initialisations in every run while the data still come from `seed`.
    """
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] & 0x7FFFFFFF)


def eval_orders(n, seed, count):
    """Row orders of the target set, one per evaluation; the first is the file's own."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    return [np.arange(n)] + [rng.permutation(n) for _ in range(count - 1)]


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def steps_per_epoch(workload):
    return math.ceil(workload.n_samples / workload.train["batch_size"])


def method_properties(workload, networks, source_x, source_y, target_x, target_y, common_acc):
    """Inputs to checks.check_method_properties: class-group mean weights and accuracy."""
    n_common, n_source_private, n_target_private = workload.split
    common = list(range(n_common))
    properties = {"common_acc": common_acc}
    if n_source_private:
        _, weights = checks.predict(networks, source_x, open_set=False)
        private = list(range(n_common, n_common + n_source_private))
        properties["source"] = checks.group_means(weights, source_y, common, private)
    if n_source_private and n_target_private:
        _, weights = checks.predict(networks, target_x, open_set=False)
        first = n_common + n_source_private
        private = list(range(first, first + n_target_private))
        properties["target"] = checks.group_means(weights, target_y, common, private)
    return properties


def library_round(workload, seed, train_seed, trace, spawned_at, workdir):
    from iwot import data, evaluation, training
    from iwot.settings import plan_for_setting

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(LIBRARY_SITES)
    split = data.LabelSplit(*workload.split)
    shift = data.ShiftSpec(SHIFT["rotation"], (SHIFT["translation"],), SHIFT["noise_std"])
    n = workload.n_samples
    generated = data.generate_pair(split, n, n, workload.dim, seed, shift=shift)
    paths = [os.path.join(workdir, name) for name in ("source.txt", "target.txt")]
    for path, dataset in zip(paths, generated):
        data.save_dataset(path, dataset)
    source, target = (data.load_dataset(path) for path in paths)
    setup_s = time.time() - spawned_at

    plan = plan_for_setting(workload.setting, **workload.experiment)
    config = training.TrainConfig(seed=train_seed, **workload.train)
    start = time.perf_counter()
    model, history = training.train(source, target.without_labels(), plan, config)
    train_s = time.perf_counter() - start

    targets = [
        data.DomainDataset(target.features[order], target.labels[order], split, "target", seed)
        for order in eval_orders(n, seed, workload.evals)
    ]
    eval_s, reports = [], []
    for evaluation_target in targets:
        start = time.perf_counter()
        report = evaluation.evaluate(model, evaluation_target, plan, source=source)
        eval_s.append(time.perf_counter() - start)
        reports.append(report.to_dict())
    peak = peak_rss_mb(resource.RUSAGE_SELF)
    if tracer:
        tracer.restore()

    rows = [vars(record) for record in history.records]
    checks.check_history(
        rows, config.epochs, config.warmup_epochs, steps_per_epoch(workload),
        (plan.beta, plan.eta, plan.epsilon),
    )
    networks = {
        name: {"activations": net.activations, "layers": list(zip(net.weights, net.biases))}
        for name, net in (
            ("feature", model.feature_net),
            ("classifier", model.classifier_net),
            ("weight", model.weight_net),
        )
    }
    checks.check_params_finite(networks)
    open_set = workload.setting in ("unida", "osda")
    for evaluation_target, report in zip(targets, reports):
        predicted, _ = checks.predict(networks, evaluation_target.features, open_set)
        common_acc = checks.check_accuracy(
            report, predicted, evaluation_target.labels, split.n_common
        )
    properties = method_properties(
        workload, networks, source.features, source.labels, target.features, target.labels,
        common_acc,
    )

    result = {"setup_s": setup_s, "train_s": train_s, "eval_s": eval_s, "peak_rss_mb": peak,
              "properties": properties}
    if tracer:
        plans, misses = checks.check_plans(tracer.plan_records())
        layers = round_layers(
            tracer.spans, rows, config.warmup_epochs, misses,
            dataset_bytes=sum(os.path.getsize(p) for p in paths), output_bytes=0,
            startup_s=cli_startup_s(),
        )
        result.update(layers=layers, plans_checked=plans)
    return result


def round_layers(spans, rows, warmup_epochs, exact_misses, dataset_bytes, output_bytes, startup_s):
    """Every per-layer metric of one traced round."""
    adapt, supervised, fallback = checks.step_counts(rows, warmup_epochs)
    layers = span_metrics(spans, wrapper_cost_s())
    layers.update({
        "ot.solve_exact.marginal_misses": exact_misses,
        "training.adapt_steps": adapt,
        "training.supervised_steps": supervised,
        "training.fallback_steps": fallback,
        "data.dataset_bytes": dataset_bytes,
        "cli.startup_s": startup_s,
        "cli.output_bytes": output_bytes,
    })
    return layers


def cli_startup_s():
    """Wall time of a fresh interpreter that imports iwot.cli and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import iwot.cli"], check=True)
    return time.perf_counter() - start


def write_config(path, workload):
    n_common, n_source_private, n_target_private = workload.split
    sections = {
        "experiment": {"setting": workload.setting, "seed": 0, **workload.experiment},
        "data": {
            "n_common": n_common,
            "n_source_private": n_source_private,
            "n_target_private": n_target_private,
            "dim": workload.dim,
            "n_source": workload.n_samples,
            "n_target": workload.n_samples,
            **SHIFT,
        },
        "train": workload.train,
    }
    lines = []
    for section, values in sections.items():
        lines.append("[%s]" % section)
        lines.extend("%s = %s" % item for item in values.items())
        lines.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def write_reordered(src, dst, order):
    with open(src, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    body = lines[6:]
    with open(dst, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:6] + [body[i] for i in order]) + "\n")


def directory_bytes(path):
    return sum(
        os.path.getsize(os.path.join(base, name)) for base, _, names in os.walk(path) for name in names
    )


def cli_round(workload, seed, train_seed, trace, workdir):
    bench_dir = os.path.join(workdir, "bench")
    run_dir = os.path.join(workdir, "run")
    os.makedirs(bench_dir)
    config = os.path.join(bench_dir, "config.ini")
    write_config(config, workload)
    traces = []

    def cli(*args):
        if trace:
            trace_path = os.path.join(bench_dir, "trace_%d.json" % len(traces))
            traces.append(trace_path)
            command = [sys.executable, os.path.join(HERE, "tracecli.py"), trace_path, *args]
        else:
            command = [sys.executable, "-m", "iwot.cli", *args]
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        checks.require(
            proc.returncode == 0,
            "iwot %s exited %d: %s" % (args[0], proc.returncode, proc.stderr.strip()[-500:]),
        )
        return elapsed

    setup_s = cli("generate", "--config", config, "--out", run_dir, "--seed", str(seed))
    train_s = cli("train", "--config", config, "--out", run_dir, "--seed", str(train_seed))
    source_path = os.path.join(run_dir, "source.txt")
    target_path = os.path.join(run_dir, "target.txt")
    eval_runs = []
    for index, order in enumerate(eval_orders(workload.n_samples, seed, workload.evals)):
        data_path = target_path
        if index:
            data_path = os.path.join(bench_dir, "target_%d.txt" % index)
            write_reordered(target_path, data_path, order)
        eval_runs.append((data_path, os.path.join(run_dir, "eval_%d" % index)))
    eval_s = [
        cli("eval", "--checkpoint", os.path.join(run_dir, "checkpoint.json"), "--data", data_path,
            "--source", source_path, "--out", out)
        for data_path, out in eval_runs
    ]
    peak = peak_rss_mb(resource.RUSAGE_CHILDREN)

    from iwot.settings import plan_for_setting

    checks.check_manifest_outputs(run_dir, "generate")
    checks.check_manifest_outputs(run_dir, "train")
    plan = plan_for_setting(workload.setting, **workload.experiment)
    rows = checks.read_history_csv(os.path.join(run_dir, "history.csv"))
    checks.check_history(
        rows, workload.train["epochs"], workload.train["warmup_epochs"],
        steps_per_epoch(workload), (plan.beta, plan.eta, plan.epsilon),
    )
    networks = checks.networks_from_checkpoint(os.path.join(run_dir, "checkpoint.json"))
    checks.check_params_finite(networks)
    n_common = workload.split[0]
    open_set = workload.setting in ("unida", "osda")
    for data_path, out in eval_runs:
        checks.check_manifest_outputs(out, "eval")
        with open(os.path.join(out, "report.json"), "r", encoding="utf-8") as handle:
            report = json.load(handle)
        features, labels = checks.read_dataset_file(data_path)
        predicted, _ = checks.predict(networks, features, open_set)
        common_acc = checks.check_accuracy(report, predicted, labels, n_common)
    source_x, source_y = checks.read_dataset_file(source_path)
    target_x, target_y = checks.read_dataset_file(target_path)
    properties = method_properties(
        workload, networks, source_x, source_y, target_x, target_y, common_acc
    )

    result = {"setup_s": setup_s, "train_s": train_s, "eval_s": eval_s, "peak_rss_mb": peak,
              "properties": properties}
    if trace:
        docs = []
        for path in traces:
            with open(path, "r", encoding="utf-8") as handle:
                docs.append(json.load(handle))
        errors = [doc["plan_error"] for doc in docs if doc["plan_error"]]
        checks.require(not errors, "; ".join(errors))
        layers = round_layers(
            merge(doc["spans"] for doc in docs), rows, workload.train["warmup_epochs"],
            sum(doc["exact_marginal_misses"] for doc in docs),
            dataset_bytes=os.path.getsize(source_path) + os.path.getsize(target_path),
            output_bytes=directory_bytes(run_dir),
            startup_s=cli_startup_s(),
        )
        result.update(layers=layers, plans_checked=sum(doc["plans_checked"] for doc in docs))
    return result


def describe_env():
    """Interpreter, NumPy/SciPy versions, BLAS library and its live thread count, cores."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", "r", encoding="utf-8") as handle:
        libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    # NumPy's wheels ship OpenBLAS with a prefixed, 64-bit-integer symbol set.
    symbols = ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        found = [getattr(handle, name) for name in symbols if hasattr(handle, name)]
        if found:
            threads = found[0]()
            break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--describe-env", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--index", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)
    if args.describe_env:
        print(json.dumps(describe_env()))
        return 0

    import iwot

    src = os.path.join(ROOT, "src", "iwot")
    if os.path.dirname(os.path.abspath(iwot.__file__)) != src:
        print(json.dumps({"error": "imported iwot from %s, not %s" % (iwot.__file__, src)}))
        return 1
    workload = WORKLOADS[args.workload]
    seed = round_seed(args.seed, args.index)
    os.makedirs(args.workdir)
    try:
        if workload.kind == "cli":
            result = cli_round(workload, seed, args.index, args.trace, args.workdir)
        else:
            result = library_round(
                workload, seed, args.index, args.trace, args.spawned_at, args.workdir
            )
    except checks.CheckError as exc:
        print(json.dumps({"error": str(exc), "round_seed": seed}))
        return 1
    result["round_seed"] = seed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
