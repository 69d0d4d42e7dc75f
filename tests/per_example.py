"""Per-example references for the tests: softmax cross-entropy loss and its
analytic gradient for one example, written from the formulas and
independent of the trainer's batched forward/backward.

The parameter vector is layer-major and row-major within a layer: W, b for
the linear model; W1, b1, W2, b2 for the one-hidden-layer tanh model.
"""

import numpy as np

from mlpriv.errors import ShapeMismatchError
from mlpriv.trainer import ModelSpec


def _check(spec: ModelSpec, theta, x, y):
    """theta (P,), x (input_dim,) as float arrays and y an integer class index."""
    theta = np.asarray(theta, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if theta.shape != (spec.num_params,):
        raise ShapeMismatchError(f"theta has {theta.shape}, spec needs ({spec.num_params},)")
    if x.shape != (spec.input_dim,):
        raise ShapeMismatchError(f"x has {x.shape}, expected ({spec.input_dim},)")
    label = np.asarray(y)
    if label.shape != () or label.dtype.kind not in "iu" or not 0 <= label < spec.num_classes:
        raise ShapeMismatchError(f"label {y!r} is not an integer in [0, {spec.num_classes})")
    return theta, x, int(label)


def _layers(spec: ModelSpec, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) per dense layer, in parameter order."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    shapes = [(c, d)] if h == 0 else [(h, d), (c, h)]
    layers, o = [], 0
    for rows, cols in shapes:
        W = theta[o : o + rows * cols].reshape(rows, cols)
        o += rows * cols
        layers.append((W, theta[o : o + rows]))
        o += rows
    return layers


def _probs(layers, x):
    """Class probabilities and the hidden activations (None for linear)."""
    a = None
    if len(layers) == 2:
        W1, b1 = layers[0]
        a = np.tanh(W1 @ x + b1)
    W, b = layers[-1]
    logits = W @ (x if a is None else a) + b
    exp = np.exp(logits - logits.max())
    return exp / exp.sum(), a


def forward_loss(spec: ModelSpec, theta, x, y):
    """Softmax cross-entropy loss -log p_y and the class probabilities p."""
    theta, x, y = _check(spec, theta, x, y)
    probs, _ = _probs(_layers(spec, theta), x)
    return float(-np.log(max(probs[y], np.finfo(np.float64).tiny))), probs


def grad(spec: ModelSpec, theta, z):
    """Gradient of forward_loss at z = (x, y): dloss/dlogits = p - onehot(y);
    a dense layer with input a and output derivative g has weight gradient
    outer(g, a) and bias gradient g; through tanh, g_hidden = (W2^T g)(1 - a^2)."""
    theta, x, y = _check(spec, theta, *z)
    layers = _layers(spec, theta)
    probs, a = _probs(layers, x)
    g = probs.copy()
    g[y] -= 1.0
    if a is None:
        return np.concatenate([np.outer(g, x).ravel(), g])
    g_hidden = (layers[1][0].T @ g) * (1.0 - a * a)
    return np.concatenate([np.outer(g_hidden, x).ravel(), g_hidden, np.outer(g, a).ravel(), g])
