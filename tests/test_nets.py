"""Network stack: forward/backward correctness, optimizer algebra, checkpoints."""

import copy
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from iwot.errors import DataFormatError
from iwot.nets import (
    ACTIVATIONS,
    Mlp,
    SgdMomentum,
    cross_entropy,
    glorot_uniform,
    load_checkpoint,
    save_checkpoint,
)


def naive_forward(net, batch):
    """Loop-by-loop re-evaluation of the network, sharing no code with Mlp.forward."""
    rows = []
    for row in batch:
        current = [float(v) for v in row]
        for w, b, act in zip(net.weights, net.biases, net.activations):
            nxt = []
            for j in range(w.shape[1]):
                z = float(b[j])
                for i in range(w.shape[0]):
                    z += current[i] * float(w[i, j])
                if act == "relu":
                    nxt.append(max(z, 0.0))
                elif act == "sigmoid":
                    nxt.append(1.0 / (1.0 + math.exp(-z)))
                else:
                    nxt.append(z)
            current = nxt
        rows.append(current)
    return np.asarray(rows)


def random_net(rng, dims=None, activations=None):
    if dims is None:
        depth = rng.integers(1, 4)
        dims = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
    if activations is None:
        activations = [
            str(rng.choice(["relu", "sigmoid", "identity"])) for _ in range(len(dims) - 2)
        ] + ["identity"]
    return Mlp.init(dims, activations, rng)


class TestForward:
    def test_identity_single_layer_passes_input_through(self):
        net = Mlp([np.eye(3)], [np.zeros(3)], ["identity"])
        x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        out, _ = net.forward(x)
        assert_allclose(out, x, rtol=0, atol=0)

    def test_matches_naive_reference_evaluation(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            net = random_net(rng)
            x = rng.normal(size=(5, net.input_dim))
            out, _ = net.forward(x)
            assert_allclose(out, naive_forward(net, x), rtol=1e-12, atol=1e-12)

    def test_sigmoid_outputs_stay_in_unit_interval(self):
        rng = np.random.default_rng(0)
        net = Mlp.init([4, 8, 1], ["relu", "sigmoid"], rng)
        out, _ = net.forward(rng.normal(scale=3.0, size=(40, 4)))
        assert (out > 0.0).all() and (out < 1.0).all()

    def test_sigmoid_is_overflow_safe_at_extreme_inputs(self):
        # float64 saturates to the interval ends instead of overflowing
        net = Mlp([np.eye(1)], [np.zeros(1)], ["sigmoid"])
        out, _ = net.forward(np.array([[-1e4], [1e4]]))
        assert_allclose(out, [[0.0], [1.0]], atol=1e-12)
        assert (out >= 0.0).all() and (out <= 1.0).all()

    def test_wrong_input_width_raises(self):
        rng = np.random.default_rng(0)
        net = Mlp.init([4, 2], ["identity"], rng)
        with pytest.raises(ValueError):
            net.forward(np.zeros((3, 5)))

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        x = rng.normal(size=(6, net.input_dim))
        a, _ = net.forward(x)
        b, _ = net.forward(x)
        assert (a == b).all()


def fd_scalar_grad(fn, array, h=1e-6):
    """Central finite differences of a scalar function wrt one array."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + h
        up = fn()
        array[idx] = original - h
        down = fn()
        array[idx] = original
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def net_without_relu_kinks(rng, dims, activations, x, margin=1e-3):
    # Finite differences step across ReLU kinks; resample until no
    # preactivation sits within the step's reach of zero.
    for _ in range(50):
        net = Mlp.init(dims, activations, rng)
        _, trace = net.forward(x)
        closest = min(
            np.abs(trace[i] @ w + b).min()
            for i, (w, b, act) in enumerate(zip(net.weights, net.biases, activations))
            if act == "relu"
        ) if "relu" in activations else 1.0
        if closest > margin:
            return net
    raise AssertionError("could not draw a kink-free network")


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(1)
        net = random_net(rng)
        x = rng.normal(size=(4, net.input_dim))
        out, trace = net.forward(x)
        grad, input_grad = net.backward(trace, np.zeros_like(out))
        assert (input_grad == 0).all()
        assert grad.shape == net.flat.shape and (grad == 0).all()

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            dims = [3, 5, 4, 2]
            activations = ["relu", "sigmoid", "identity"]
            x = rng.normal(size=(4, 3))
            net = net_without_relu_kinks(rng, dims, activations, x, margin=1e-3)
            projector = rng.normal(size=(4, 2))

            def loss():
                out, _ = net.forward(x)
                return float((out * projector).sum())

            out, trace = net.forward(x)
            grad, input_grad = net.backward(trace, projector)
            for layer, (dw, db) in enumerate(zip(*net.views(grad))):
                assert_allclose(
                    dw, fd_scalar_grad(loss, net.weights[layer]), rtol=1e-5, atol=1e-7
                )
                assert_allclose(
                    db, fd_scalar_grad(loss, net.biases[layer]), rtol=1e-5, atol=1e-7
                )
            assert_allclose(input_grad, fd_scalar_grad(loss, x), rtol=1e-5, atol=1e-7)

    def test_relu_gradient_at_its_edges(self):
        # ReLU's backward reads its output: out > 0 must equal z > 0 at
        # signed zeros, the tiniest magnitudes, infinities and NaN.
        z = np.array([[0.0], [-0.0], [1e-300], [-1e-300], [np.inf], [-np.inf], [np.nan]])
        upstream = np.array([[2.0], [-3.0], [0.5], [7.0], [-1.5], [4.0], [1.0]])
        forward, backward = ACTIVATIONS["relu"]
        assert backward(upstream, forward(z)).tobytes() == (upstream * (z > 0)).tobytes()
        # Through a network, where x @ 1 + 0 is x + 0.0 (-0.0 becomes 0.0).
        net = Mlp([np.eye(1)], [np.zeros(1)], ["relu"])
        _, trace = net.forward(z)
        assert (trace[0] @ net.weights[0] + net.biases[0]).tobytes() == (z + 0.0).tobytes()
        with np.errstate(invalid="ignore"):  # dW takes inf * 0
            _, input_grad = net.backward(trace, upstream)
        assert (input_grad == upstream * (z > 0)).all()  # dz @ 1 turns -0.0 into 0.0

    def test_upstream_shape_mismatch_raises(self):
        rng = np.random.default_rng(0)
        net = Mlp.init([3, 2], ["identity"], rng)
        _, trace = net.forward(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError):
            net.backward(trace, np.zeros((4, 3)))


class TestFlatParameters:
    def test_layout_is_each_layer_weights_then_biases(self):
        rng = np.random.default_rng(3)
        weights = [rng.normal(size=(3, 5)), rng.normal(size=(5, 2))]
        biases = [rng.normal(size=5), rng.normal(size=2)]
        net = Mlp(weights, biases, ["relu", "identity"])
        expected = np.concatenate([weights[0].ravel(), biases[0], weights[1].ravel(), biases[1]])
        assert net.flat.tobytes() == expected.tobytes()
        assert not any(np.shares_memory(net.flat, array) for array in weights + biases)
        vec = np.arange(net.flat.size, dtype=np.float64)
        view_weights, view_biases = net.views(vec)
        assert [w.shape for w in view_weights] == [(3, 5), (5, 2)]
        assert all(np.shares_memory(vec, array) for array in view_weights + view_biases)
        assert view_biases[1].tolist() == vec[-2:].tolist()

    def test_writes_through_the_layer_views_reach_flat(self):
        net = random_net(np.random.default_rng(4))
        for layer in range(len(net.weights)):
            net.weights[layer][-1, 0] = 100.0 + layer
            net.biases[layer][0] = -100.0 - layer
        weights, biases = net.views(net.flat)
        for layer in range(len(net.weights)):
            assert weights[layer][-1, 0] == 100.0 + layer
            assert biases[layer][0] == -100.0 - layer
        copy_ = copy.deepcopy(net)
        assert not np.shares_memory(copy_.flat, net.flat)
        copy_.weights[0][0, 0] = 7.0
        assert copy_.flat[0] == 7.0 and net.flat[0] != 7.0

    def test_layer_views_cannot_be_rebound(self):
        net = random_net(np.random.default_rng(8))
        for kind in ("weights", "biases"):
            replacement = [np.zeros_like(array) for array in getattr(net, kind)]
            with pytest.raises(AttributeError):
                setattr(net, kind, replacement)
            with pytest.raises(TypeError):
                getattr(net, kind)[0] = replacement[0]
            assert all(np.shares_memory(net.flat, array) for array in getattr(net, kind))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_in_any_layer_is_seen(self, value):
        rng = np.random.default_rng(5)
        for layer in range(3):
            for kind in ("weights", "biases"):
                net = random_net(rng, [3, 4, 5, 2], ["relu", "sigmoid", "identity"])
                assert net.has_finite_params()
                array = getattr(net, kind)[layer]
                array.flat[array.size - 1] = value
                assert not net.has_finite_params(), (layer, kind)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 3, 5, 9):
            logits = np.zeros((4, k))
            labels = np.arange(4) % k
            loss, _ = cross_entropy(logits, labels)
            assert_allclose(loss, math.log(k), rtol=1e-14)

    def test_two_class_hand_value(self):
        # softmax((1,0)) on label 0: loss = ln(1 + e^-1)
        loss, _ = cross_entropy(np.array([[1.0, 0.0]]), np.array([0]))
        assert_allclose(loss, 0.31326168751822286, rtol=0, atol=1e-15)

    def test_dominant_logit_drives_loss_to_zero(self):
        loss, _ = cross_entropy(np.array([[50.0, 0.0, 0.0]]), np.array([0]))
        assert loss < 1e-20

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, k = rng.integers(1, 8), rng.integers(2, 6)
            logits = rng.normal(scale=5.0, size=(n, k))
            labels = rng.integers(0, k, size=n)
            loss, _ = cross_entropy(logits, labels)
            assert loss >= 0.0

    def test_extreme_logits_stay_finite(self):
        loss, grad = cross_entropy(np.array([[1e4, -1e4, 0.0]]), np.array([2]))
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = cross_entropy(logits, labels)
        fd = fd_scalar_grad(lambda: cross_entropy(logits, labels)[0], logits)
        assert_allclose(grad, fd, rtol=1e-6, atol=1e-10)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))


class TestSgdMomentum:
    def test_zero_gradient_and_decay_leave_params_unchanged(self):
        rng = np.random.default_rng(0)
        net = Mlp.init([3, 2], ["identity"], rng)
        before = [w.copy() for w in net.weights]
        opt = SgdMomentum(net, lr=0.1, momentum=0.9, weight_decay=0.0)
        opt.step(np.zeros(3 * 2 + 2))
        assert (net.weights[0] == before[0]).all()

    def test_plain_sgd_subtracts_scaled_gradient(self):
        net = Mlp([np.full((1, 1), 2.0)], [np.array([1.0])], ["identity"])
        opt = SgdMomentum(net, lr=0.5, momentum=0.0, weight_decay=0.0)
        opt.step(np.array([3.0, 4.0]))  # dW, then db
        assert_allclose(net.weights[0], [[2.0 - 0.5 * 3.0]], rtol=0, atol=0)
        assert_allclose(net.biases[0], [1.0 - 0.5 * 4.0], rtol=0, atol=0)

    def test_momentum_and_decay_match_hand_recursion(self):
        p0, g1, g2 = 2.0, 3.0, -1.0
        lr, mu, wd = 0.1, 0.9, 0.01
        net = Mlp([np.full((1, 1), p0)], [np.zeros(1)], ["identity"])
        opt = SgdMomentum(net, lr=lr, momentum=mu, weight_decay=wd)
        v1 = g1 + wd * p0
        p1 = p0 - lr * v1
        opt.step(np.array([g1, 0.0]))
        assert_allclose(net.weights[0][0, 0], p1, rtol=1e-15)
        v2 = mu * v1 + g2 + wd * p1
        p2 = p1 - lr * v2
        opt.step(np.array([g2, 0.0]))
        assert_allclose(net.weights[0][0, 0], p2, rtol=1e-15)

    def test_steps_equal_the_per_array_recursion_bit_for_bit(self):
        # The reference keeps one velocity per array and updates it out of
        # place: v = mu * v + g + wd * p, then p = p - lr * v.
        rng = np.random.default_rng(6)
        net = random_net(rng)
        lr, mu, wd = 0.05, 0.9, 5e-3
        opt = SgdMomentum(net, lr=lr, momentum=mu, weight_decay=wd)
        params = [a.copy() for a in net.weights + net.biases]
        velocity = [np.zeros_like(a) for a in params]
        for _ in range(6):
            grad = rng.normal(size=net.flat.size)
            per_array = [g.copy() for g in net.views(grad)[0] + net.views(grad)[1]]
            opt.step(grad)
            for i, g in enumerate(per_array):
                velocity[i] = mu * velocity[i] + g + wd * params[i]
                params[i] = params[i] - lr * velocity[i]
            for mine, reference in zip(net.weights + net.biases, params):
                assert mine.tobytes() == reference.tobytes()

    def test_forward_uses_the_stepped_parameters(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, [3, 5, 2], ["relu", "identity"])
        x = rng.normal(size=(4, 3))
        before, _ = net.forward(x)
        grad = rng.normal(size=net.flat.size)
        stepped = Mlp(*net.views(net.flat - 0.5 * grad), net.activations)
        SgdMomentum(net, lr=0.5, momentum=0.0).step(grad)
        after, _ = net.forward(x)
        assert after.tobytes() == stepped.forward(x)[0].tobytes()
        assert not np.array_equal(after, before)

    def test_gradient_of_another_length_raises(self):
        net = Mlp.init([2, 2], ["identity"], np.random.default_rng(0))
        opt = SgdMomentum(net, lr=0.1)
        with pytest.raises(ValueError, match="parameter vector"):
            opt.step(np.zeros(net.flat.size + 1))

    def test_invalid_hyperparameters_raise(self):
        rng = np.random.default_rng(0)
        net = Mlp.init([2, 2], ["identity"], rng)
        with pytest.raises(ValueError):
            SgdMomentum(net, lr=0.0)
        with pytest.raises(ValueError):
            SgdMomentum(net, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SgdMomentum(net, lr=0.1, weight_decay=-0.1)


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        rng = np.random.default_rng(5)
        w = glorot_uniform(20, 30, rng)
        bound = math.sqrt(6.0 / 50.0)
        assert np.abs(w).max() <= bound
        net = Mlp.init([6, 4, 2], ["relu", "identity"], rng)
        assert all((b == 0).all() for b in net.biases)

    def test_same_seed_same_network(self):
        a = Mlp.init([4, 3], ["identity"], np.random.default_rng(9))
        b = Mlp.init([4, 3], ["identity"], np.random.default_rng(9))
        assert (a.weights[0] == b.weights[0]).all()

    def test_layer_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Mlp([np.zeros((2, 3)), np.zeros((4, 1))], [np.zeros(3), np.zeros(1)],
                ["relu", "identity"])


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        nets = {
            "feature": random_net(rng),
            "weight": Mlp.init([3, 1], ["sigmoid"], rng),
        }
        meta = {"setting": "pda", "seed": 7, "beta": 0.1}
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, nets, meta)
        loaded, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        assert set(loaded) == set(nets)
        for name, net in nets.items():
            other = loaded[name]
            assert other.activations == net.activations
            for w1, w2 in zip(net.weights, other.weights):
                assert (w1 == w2).all()
            for b1, b2 in zip(net.biases, other.biases):
                assert (b1 == b2).all()

    def test_version_mismatch_raises(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, {"net": random_net(rng)}, {})
        text = path.read_text().replace('"version": 1', '"version": 99')
        path.write_text(text)
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_checkpoint(tmp_path / "nope.json")

    def test_inconsistent_entry_count_raises(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, {"net": Mlp.init([2, 2], ["identity"], rng)}, {})
        text = path.read_text().replace('"rows": 2', '"rows": 3')
        path.write_text(text)
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_non_string_activation_names_its_layer(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, {"net": Mlp.init([2, 2], ["identity"], rng)}, {})
        doc = json.loads(path.read_text())
        doc["networks"]["net"]["activations"] = [["relu"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=r"layer 0 has unknown activation \['relu'\]"):
            load_checkpoint(path)
