"""Dense networks with hand-written forward and backward passes.

The adaptation model is three small multilayer perceptrons sharing no
parameters: a feature extractor (ReLU hidden layers, linear output), a linear
classifier head over the feature space, and a linear + sigmoid head that maps
a feature vector to a scalar instance weight in (0, 1). Everything runs in
float64 and all gradients are computed by explicit backpropagation below; no
autograd framework is involved anywhere in the package. A network's parameters,
gradient and SGD velocity are each one vector of one layout, with per-layer views.

Checkpoints are versioned JSON documents ("iwot-checkpoint", version 1)
holding, per network, the activation list and each layer's shape and
row-major entries. Floats go through repr so a save/load round trip is
bit-exact.
"""

import json
import math
import os

import numpy as np

from .errors import DataFormatError
from .fileio import atomic_write_text, read_text

ACTIVATIONS = ("relu", "sigmoid", "identity")

CHECKPOINT_FORMAT = "iwot-checkpoint"
CHECKPOINT_VERSION = 1


def glorot_uniform(fan_in, fan_out, rng):
    """Weight matrix drawn uniformly from [-s, s] with s = sqrt(6 / (fan_in + fan_out))."""
    scale = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


def _apply_activation(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        # Piecewise form avoids overflow in exp for large |z|.
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if name == "identity":
        return z
    raise ValueError("unknown activation %r" % (name,))


def _activation_backward(name, upstream, z, post):
    """d(loss)/dz from d(loss)/d(act(z)); `post` is act(z)."""
    if name == "relu":
        return upstream * (z > 0.0)
    if name == "sigmoid":
        return upstream * (post * (1.0 - post))
    return upstream


class ForwardTrace:
    """Cached per-layer pre- and post-activations from one forward pass."""

    def __init__(self, batch, pre, post):
        self.batch = batch
        self.pre = pre
        self.post = post


class Mlp:
    """A stack of affine layers with elementwise activations.

    The parameters are one float64 vector `flat`: per layer, weights[i] (shape
    (fan_in, fan_out), row-major) then biases[i] (shape (fan_out,)), which are
    views into it; `views` lays out any vector of its length the same way.
    Layer i computes act(x @ weights[i] + biases[i]).
    """

    def __init__(self, weights, biases, activations):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        activations = list(activations)
        if not (len(weights) == len(biases) == len(activations)):
            raise ValueError("weights, biases and activations must align layer by layer")
        if not weights:
            raise ValueError("network needs at least one layer")
        for i, (w, b, act) in enumerate(zip(weights, biases, activations)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError("layer %d has inconsistent weight/bias shapes" % i)
            if act not in ACTIVATIONS:
                raise ValueError("layer %d has unknown activation %r" % (i, act))
            if i > 0 and weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError("layer %d input width does not match layer %d output" % (i, i - 1))
        self.activations = activations
        self._shapes = [w.shape for w in weights]
        self.flat = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
        self.weights, self.biases = self.views(self.flat)

    def __reduce__(self):  # a copy or unpickled network gets its own `flat` and views
        return Mlp, (self.weights, self.biases, self.activations)

    def views(self, vec):
        """(weights, biases): per-layer views into `vec`, laid out like `flat`."""
        weights, biases, start = [], [], 0
        for rows, cols in self._shapes:
            weights.append(vec[start : start + rows * cols].reshape(rows, cols))
            start += rows * cols + cols
            biases.append(vec[start - cols : start])
        return weights, biases

    @classmethod
    def init(cls, dims, activations, rng):
        """Fresh network over layer widths `dims` with Glorot weights and zero biases."""
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output width")
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        weights = [glorot_uniform(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
        return cls(weights, biases, activations)

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    @property
    def output_dim(self):
        return self.weights[-1].shape[1]

    def forward(self, batch):
        """Run a (batch, input_dim) array through the network.

        Returns (output, trace); feed the trace back to `backward`.
        """
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.input_dim:
            raise ValueError(
                "expected batch of shape (n, %d), got %r" % (self.input_dim, batch.shape)
            )
        pre, post = [], []
        current = batch
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = current @ w + b
            current = _apply_activation(act, z)
            pre.append(z)
            post.append(current)
        return current, ForwardTrace(batch, pre, post)

    def backward(self, trace, output_grad):
        """Backpropagate d(loss)/d(output) through the cached forward pass.

        Returns (grad, input_grad): d(loss)/d(flat), laid out like `flat` (so
        `views(grad)` gives each layer's dW and db), and d(loss)/d(batch).
        """
        output_grad = np.asarray(output_grad, dtype=np.float64)
        if output_grad.shape != trace.post[-1].shape:
            raise ValueError("output_grad shape must match the forward output")
        grad = np.empty_like(self.flat)
        dws, dbs = self.views(grad)
        upstream = output_grad
        for i in range(len(self.weights) - 1, -1, -1):
            dz = _activation_backward(self.activations[i], upstream, trace.pre[i], trace.post[i])
            below = trace.post[i - 1] if i > 0 else trace.batch
            np.matmul(below.T, dz, out=dws[i])
            dz.sum(axis=0, out=dbs[i])
            upstream = dz @ self.weights[i].T
        return grad, upstream

    def has_finite_params(self):
        return bool(np.isfinite(self.flat).all())


def cross_entropy(logits, labels):
    """Mean cross-entropy over a batch, via a stable log-softmax.

    Returns (loss, dloss/dlogits). Labels are integer class indices.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError("logits must be 2-D")
    if labels.shape != (logits.shape[0],):
        raise ValueError("labels must be 1-D with one entry per row of logits")
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label outside [0, %d)" % k)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = -log_probs[np.arange(n), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


class SgdMomentum:
    """Classical momentum SGD; weight decay adds an L2 term to the gradient.

    The update of p = net.flat, with g laid out the same way (Mlp.backward), is
        v <- momentum * v + g + weight_decay * p
        p <- p - lr * v
    in place, in that order; v is one vector, starting at zero, kept here.
    """

    def __init__(self, net, lr, momentum=0.9, weight_decay=0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        self.net = net
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros_like(net.flat)

    def step(self, grad):
        """Apply one update from `grad`, a flat gradient as returned by Mlp.backward."""
        if np.shape(grad) != self.net.flat.shape:
            raise ValueError("gradient does not match the network's parameter vector")
        self._velocity *= self.momentum
        self._velocity += grad
        self._velocity += self.weight_decay * self.net.flat
        self.net.flat -= self.lr * self._velocity


def _net_to_json(net):
    layers = []
    for w, b in zip(net.weights, net.biases):
        layers.append(
            {
                "rows": int(w.shape[0]),
                "cols": int(w.shape[1]),
                "weight": [float(x) for x in w.ravel(order="C")],
                "bias": [float(x) for x in b],
            }
        )
    return {"activations": list(net.activations), "layers": layers}


def _net_from_json(doc, name):
    weights, biases = [], []
    try:
        activations = doc["activations"]
        for layer in doc["layers"]:
            rows, cols, flat, bias = (layer[key] for key in ("rows", "cols", "weight", "bias"))
            # exact JSON types: numpy reads null as NaN, "1.0" and `true` as 1.0; int() cuts 3.7
            if {type(rows), type(cols)} != {int} or set(map(type, [*flat, *bias])) - {int, float}:
                raise TypeError("rows/cols must be JSON integers, weight/bias lists of JSON numbers")
            if rows < 0 or cols < 0 or len(flat) != rows * cols:
                raise ValueError("weight entry count does not match declared shape")
            weights.append(np.asarray(flat, dtype=np.float64).reshape(rows, cols))
            biases.append(np.asarray(bias, dtype=np.float64))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError("network %r: malformed checkpoint entry (%s)" % (name, exc)) from exc
    try:
        return Mlp(weights, biases, activations)
    except (TypeError, ValueError) as exc:
        raise DataFormatError("network %r: %s" % (name, exc)) from exc


def save_checkpoint(path, networks, meta=None):
    """Write named networks plus a free-form metadata dict as versioned JSON."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": dict(meta or {}),
        "networks": {name: _net_to_json(net) for name, net in networks.items()},
    }
    atomic_write_text(path, json.dumps(doc, indent=1))


def load_checkpoint(path):
    """Read a checkpoint written by `save_checkpoint`; returns (networks, meta)."""
    if not os.path.exists(path):
        raise DataFormatError("checkpoint %s does not exist" % (path,))
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError("checkpoint %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError("checkpoint %s has an unrecognized format tag" % (path,))
    if doc.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(
            "checkpoint %s has unsupported version %r (expected %d)"
            % (path, doc.get("version"), CHECKPOINT_VERSION)
        )
    networks, meta = doc.get("networks", {}), doc.get("meta", {})
    for key, value in (("networks", networks), ("meta", meta)):
        if not isinstance(value, dict):
            raise DataFormatError("checkpoint %s: %r is not a JSON object" % (path, key))
    return {name: _net_from_json(entry, name) for name, entry in networks.items()}, meta
