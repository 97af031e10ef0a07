"""Each benchmark check passes on valid output and fails on a corrupted copy.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
from iwot import ot  # noqa: E402
from iwot.evaluation import score_predictions  # noqa: E402

COEFFICIENTS = (0.1, 0.3, 0.05)


def history(epochs=3, warmup=1, steps=2):
    rng = np.random.default_rng(0)
    rows = []
    for step in range(epochs * steps):
        epoch = step // steps
        c = float(rng.uniform(0.5, 2.0))
        t, s, i = (0.0, 0.0, 0.0) if epoch < warmup else tuple(float(x) for x in rng.uniform(0, 1, 3))
        beta, eta, epsilon = COEFFICIENTS
        rows.append(
            {"step": step, "epoch": epoch, "classification": c, "transport": t, "separation": s,
             "intra": i, "total": c + beta * t + eta * s + epsilon * i, "converged": True}
        )
    return rows


def check(rows):
    checks.check_history(rows, 3, 1, 2, COEFFICIENTS)


def test_history_valid_passes():
    check(history())


def test_history_total_off_recombination_fails():
    rows = history()
    rows[4]["total"] *= 1 + 1e-9
    with pytest.raises(checks.CheckError, match="recombined"):
        check(rows)


def test_history_missing_row_fails():
    with pytest.raises(checks.CheckError, match="rows"):
        check(history()[:-1])


def test_history_non_finite_value_fails():
    rows = history()
    rows[3]["separation"] = float("nan")
    with pytest.raises(checks.CheckError, match="non-finite"):
        check(rows)


def test_history_transport_in_warmup_fails():
    rows = history()
    rows[0]["transport"] = 0.5
    rows[0]["total"] = rows[0]["classification"] + 0.1 * 0.5
    with pytest.raises(checks.CheckError, match="warm-up"):
        check(rows)


def test_history_csv_round_trip(tmp_path):
    from iwot.training import StepRecord, TrainHistory

    saved = TrainHistory()
    for row in history():
        saved.append(StepRecord(**row))
    saved.save_csv(tmp_path / "history.csv")
    assert checks.read_history_csv(tmp_path / "history.csv") == history()


def test_dataset_reader_matches_library(tmp_path):
    from iwot.data import LabelSplit, generate_pair, save_dataset

    _, target = generate_pair(LabelSplit(2, 1, 1), 30, 30, 4, seed=0)
    save_dataset(tmp_path / "target.txt", target)
    features, labels = checks.read_dataset_file(tmp_path / "target.txt")
    np.testing.assert_array_equal(features, target.features)
    np.testing.assert_array_equal(labels, target.labels)


def test_step_counts_separate_fallback_from_warmup():
    rows = history()
    rows[5].update(transport=0.0, separation=0.0, intra=0.0, total=rows[5]["classification"])
    assert checks.step_counts(rows, 1) == (3, 3, 1)


def networks(rng):
    def net(dims, activations):
        layers = [(rng.normal(size=(a, b)), rng.normal(size=b)) for a, b in zip(dims, dims[1:])]
        return {"activations": activations, "layers": layers}

    return {
        "feature": net([4, 6, 3], ["relu", "identity"]),
        "classifier": net([3, 3], ["identity"]),
        "weight": net([3, 1], ["sigmoid"]),
    }


def test_non_finite_parameter_fails():
    nets = networks(np.random.default_rng(1))
    checks.check_params_finite(nets)
    nets["weight"]["layers"][0][0][1, 0] = np.inf
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_params_finite(nets)


def test_checkpoint_forward_matches_library(tmp_path):
    from iwot.nets import Mlp, save_checkpoint
    from iwot.training import TrainedModel

    nets = networks(np.random.default_rng(2))
    mlps = {
        name: Mlp([w for w, _ in n["layers"]], [b for _, b in n["layers"]], n["activations"])
        for name, n in nets.items()
    }
    save_checkpoint(tmp_path / "checkpoint.json", mlps)
    loaded = checks.networks_from_checkpoint(tmp_path / "checkpoint.json")
    x = np.random.default_rng(3).normal(size=(50, 4))
    model = TrainedModel(mlps["feature"], mlps["classifier"], mlps["weight"])
    labels, weights = checks.predict(loaded, x, open_set=False)
    np.testing.assert_array_equal(labels, model.class_logits(model.features(x)).argmax(axis=1))
    np.testing.assert_array_equal(weights, model.instance_weights(model.features(x)))


def report_for(predicted, labels, n_common):
    return json.loads(json.dumps(score_predictions(predicted, labels, n_common).to_dict()))


def test_report_accuracy_matches_recomputation():
    rng = np.random.default_rng(4)
    labels = rng.integers(-1, 4, size=200)
    predicted = np.where(rng.uniform(size=200) < 0.8, labels, rng.integers(-1, 4, size=200))
    report = report_for(predicted, labels, 3)
    assert checks.check_accuracy(report, predicted, labels, 3) == report["common_acc"]


def test_wrong_common_acc_in_report_fails():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, size=200)
    predicted = np.where(rng.uniform(size=200) < 0.8, labels, 0)
    report = report_for(predicted, labels, 4)
    report["common_acc"] += 1.0 / 200
    with pytest.raises(checks.CheckError, match="common_acc"):
        checks.check_accuracy(report, predicted, labels, 4)


def test_group_means():
    labels = np.array([0, 0, 1, 1, 2, 2])
    weights = np.array([0.9, 0.8, 0.7, 0.9, 0.2, 0.1])
    assert checks.group_means(weights, labels, [0, 1], [2]) == pytest.approx([0.825, 0.15])


def test_private_classes_outweighing_common_ones_fail():
    rounds = [{"common_acc": 0.9, "source": [0.8, 0.2]}, {"common_acc": 0.9, "source": [0.69, 0.75]}]
    checks.check_method_properties(4, rounds)
    rounds[0]["source"] = [0.7, 0.72]
    with pytest.raises(checks.CheckError, match="source common classes"):
        checks.check_method_properties(4, rounds)


def test_target_private_classes_outweighing_common_ones_fail():
    rounds = [{"common_acc": 0.9, "source": [0.8, 0.2], "target": [0.4, 0.6]}]
    with pytest.raises(checks.CheckError, match="target common classes"):
        checks.check_method_properties(3, rounds)


def test_accuracy_near_chance_fails():
    checks.check_method_properties(4, [{"common_acc": 0.9}, {"common_acc": 0.4}])
    with pytest.raises(checks.CheckError, match="chance"):
        checks.check_method_properties(4, [{"common_acc": 0.3}, {"common_acc": 0.6}])


def problem(n=6, uniform=True, seed=6):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.0, 2.0, size=(n, n))
    if uniform:
        p1 = p2 = np.full(n, 1.0 / n)
    else:
        p1, p2 = (w / w.sum() for w in rng.uniform(0.1, 1.0, size=(2, n)))
    return cost, p1, p2


@pytest.mark.parametrize("solver", ["exact", "sinkhorn"])
@pytest.mark.parametrize("uniform", [True, False])
def test_solver_plans_pass(solver, uniform):
    cost, p1, p2 = problem(uniform=uniform)
    if solver == "exact":
        plan = ot.solve_exact(cost, p1, p2)
    else:
        plan = ot.solve_sinkhorn(cost, p1, p2, reg=0.05).coupling
    assert checks.check_plans([(solver, cost, p1, p2, plan)]) == (1, 0)


@pytest.mark.parametrize(
    "solver, uniform",
    [("exact", True), ("exact", False), ("sinkhorn", True), ("sinkhorn", False)],
)
def test_plan_row_off_by_1e6_fails(solver, uniform):
    cost, p1, p2 = problem(uniform=uniform)
    if solver == "exact":
        plan = ot.solve_exact(cost, p1, p2)
    else:
        plan = ot.solve_sinkhorn(cost, p1, p2, reg=0.05).coupling
    plan[2] += 1e-6 / plan.shape[1]
    with pytest.raises(checks.CheckError):
        checks.check_plans([(solver, cost, p1, p2, plan)])


def test_exact_miss_on_learned_marginals_is_counted():
    cost, p1, p2 = problem(uniform=False)
    plan = ot.solve_exact(cost, p1, p2)
    plan[2] += 5e-8 / plan.shape[1]
    assert checks.check_plans([("exact", cost, p1, p2, plan)]) == (1, 1)
    with pytest.raises(checks.CheckError, match="marginals"):
        checks.check_plans([("sinkhorn", cost, p1, p2, plan)])


def test_negative_plan_entry_fails():
    cost, p1, p2 = problem(uniform=False)
    plan = ot.solve_exact(cost, p1, p2)
    i, j = np.unravel_index(plan.argmax(), plan.shape)
    plan[i, j] += 1e-9
    plan[i, (j + 1) % plan.shape[1]] -= 1e-9 + plan[i, (j + 1) % plan.shape[1]]
    with pytest.raises(checks.CheckError, match="below zero"):
        checks.check_plans([("exact", cost, p1, p2, plan)])


def test_feasible_but_suboptimal_exact_plan_fails():
    cost, p1, p2 = problem()
    n = cost.shape[0]
    plan = np.full((n, n), 1.0 / n**2)
    checks.check_plans([("sinkhorn", cost, p1, p2, plan)])
    with pytest.raises(checks.CheckError, match="assignment optimum"):
        checks.check_plans([("exact", cost, p1, p2, plan)])


def test_plan_below_assignment_optimum_fails():
    cost, p1, p2 = problem()
    # Marginals still within 1e-8, but the cost drops below the optimum.
    shrunk = ot.solve_exact(cost, p1, p2) * (1.0 - 1e-9)
    with pytest.raises(checks.CheckError, match="below the assignment optimum"):
        checks.check_plans([("sinkhorn", cost, p1, p2, shrunk)])


def test_manifest_with_missing_output_fails(tmp_path):
    (tmp_path / "checkpoint.json").write_text("{}")
    manifest = {"outputs": ["checkpoint.json", "history.csv"]}
    (tmp_path / "manifest_train.json").write_text(json.dumps(manifest))
    with pytest.raises(checks.CheckError, match="history.csv"):
        checks.check_manifest_outputs(str(tmp_path), "train")
    (tmp_path / "history.csv").write_text("")
    checks.check_manifest_outputs(str(tmp_path), "train")


def test_reported_names_match_benchmark_json():
    import round as bench_round

    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    layers = set(bench_round.round_layers([], [], 0, 0, 0, 0, 0.0))
    assert layers == {m["name"] for m in declared["per_layer"]}
    import run

    assert all(run.layer_unit(m["name"]) == m["unit"] for m in declared["per_layer"])

    assert set(run.END_TO_END_UNITS) == {m["name"] for m in declared["end_to_end"]}
    assert set(bench_round.WORKLOADS) == {w["name"] for w in declared["workloads"]}


def test_trace_overhead_is_wrapper_time_over_untraced_work():
    from tracer import span_metrics

    spans = [
        {"name": "training.train", "parent": None, "s": 1.0},
        {"name": "ot.solve_exact", "parent": 0, "s": 0.5},
        {"name": "evaluation.evaluate", "parent": None, "s": 1.0},
    ]
    # Three spans at 0.01 s each: 0.03 s of 2.0 s traced work, 1.97 s untraced.
    overhead = span_metrics(spans, 0.01)["trace.overhead_pct"]
    assert overhead == pytest.approx(100.0 * 0.03 / 1.97)


def test_wrapper_cost_is_small_and_positive():
    from tracer import wrapper_cost_s

    assert 0.0 < wrapper_cost_s(calls=2000, repeats=3) < 1e-3
