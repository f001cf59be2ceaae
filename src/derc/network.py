"""Minimal dense-network engine with exact reverse-mode gradients.

All arithmetic is double precision so finite-difference checks stay tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError

INIT_SCALE = 1.0 / 3.0  # s in the uniform bound l = sqrt(3 * s / n_input)
# elements per optimizer update block: 256 KiB of float64, small enough that
# the scratch product and the slices it touches stay in cache
UPDATE_BLOCK = 1 << 15
# elements of the scratch product when a row-space layer's weights are
# formed: 2 MiB of float64, wide enough for an efficient GEMM
FOLD_BLOCK = 1 << 18


def init_bound(n_input: int) -> float:
    return float(np.sqrt(3.0 * INIT_SCALE / n_input))


def init_uniform(shape, n_input: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform weights on [-l, l] with l = sqrt(3*s/n_input), s = 1/3."""
    if n_input < 1:
        raise ValidationError("n_input must be >= 1")
    l = init_bound(n_input)
    return rng.uniform(-l, l, size=shape)


def relu(z):
    return np.maximum(z, 0.0)


def sigmoid(z):
    # branch form avoids overflow in exp for large |z|
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activate(z, name):
    if name == "relu":
        return relu(z)
    if name == "sigmoid":
        return sigmoid(z)
    if name == "linear":
        return z
    raise ValidationError(f"unknown activation {name!r}")


def _activation_grad(z, a, name):
    # derivative w.r.t. pre-activation; relu'(0) defined as 0
    if name == "relu":
        return (z > 0).astype(z.dtype)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "linear":
        return np.ones_like(z)
    raise ValidationError(f"unknown activation {name!r}")


@dataclass
class DenseLayer:
    """Dense layer y = act(x @ W.T + b), weights stored n_out x n_in."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    @classmethod
    def create(cls, n_in: int, n_out: int, activation: str,
               rng: np.random.Generator) -> "DenseLayer":
        return cls(
            weights=init_uniform((n_out, n_in), n_in, rng),
            bias=np.zeros(n_out),
            activation=activation,
        )

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]


class RowSpaceLayer:
    """A dense layer trained in the row space of its training matrix x.

    A layer that only ever reads rows of x gets SGD updates dz.T @ x[rows],
    and momentum velocities built from them, so its weights stay
    W = w0 + coef.T @ x, with coef of shape n_samples x n_out (Zhang et al.
    2017, arXiv:1611.03530, sec. 5). The layer keeps the read-only w0 and
    x @ w0.T and x @ x.T, each computed once, and trains coef in place of W:
    a batch's gradient on coef is e.T @ dz, e its one-hot rows (one_hot),
    which SgdMomentum.step takes as factors like any weight gradient. The
    bias is layer's own array.
    """

    def __init__(self, layer: DenseLayer, x: np.ndarray):
        self.w0 = layer.weights.view()
        self.w0.flags.writeable = False
        self.bias, self.activation, self.x = layer.bias, layer.activation, x
        self.xw0 = x @ self.w0.T
        self.gram = x @ x.T
        self.coef = np.zeros((len(x), layer.n_out))

    @property
    def n_in(self) -> int:
        return self.w0.shape[1]

    @property
    def n_out(self) -> int:
        return self.w0.shape[0]

    def one_hot(self, rows: np.ndarray) -> np.ndarray:
        """The len(rows) x n_samples matrix e with e[i, rows[i]] = 1, else 0."""
        n = len(self.x)
        bad = rows[(rows < 0) | (rows >= n)]
        if bad.size:
            raise ValidationError(f"rows {bad.tolist()} are outside the {n} "
                                  f"training rows")
        e = np.zeros((len(rows), n))
        e[np.arange(len(rows)), rows] = 1.0
        return e

    def affine(self, a: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
        """a @ W.T + bias, for the rows of x given by rows, all of x, or any a."""
        if rows is not None:
            return self.xw0[rows] + self.gram[rows] @ self.coef + self.bias
        if a is self.x:
            return self.xw0 + self.gram @ self.coef + self.bias
        return a @ self.w0.T + (a @ self.x.T) @ self.coef + self.bias

    def fold_into(self, out: np.ndarray) -> None:
        """Write W = w0 + coef.T @ x into out, which may be w0's own buffer.

        Rows are formed a block at a time, so no W-sized temporary exists.
        """
        d = self.x.shape[1]
        rows = max(1, FOLD_BLOCK // d)
        scratch = np.empty(min(rows, self.n_out) * d)
        for r0 in range(0, self.n_out, rows):
            r1 = min(r0 + rows, self.n_out)
            block = scratch[:(r1 - r0) * d].reshape(r1 - r0, d)
            np.matmul(self.coef[:, r0:r1].T, self.x, out=block)
            np.add(self.w0[r0:r1], block, out=out[r0:r1])


class row_space_first_layer:
    """Context manager: hold layers[0] as a RowSpaceLayer on x, and yield it.

    On exit, by an exception too, the trained weights are formed in the
    dense layer's own weight array and the dense layer is put back, so what
    outlives training (a saved model, a caller's params) is dense.
    """

    def __init__(self, layers: list, x: np.ndarray):
        self.layers, self.dense, self.x = layers, layers[0], x

    def __enter__(self) -> RowSpaceLayer:
        self.layers[0] = RowSpaceLayer(self.dense, self.x)
        return self.layers[0]

    def __exit__(self, *exc) -> None:
        self.layers[0].fold_into(self.dense.weights)
        self.layers[0] = self.dense


@dataclass
class NetworkParams:
    """The model of both kinds: encoder/decoder stacks with chained shapes.

    An AE has no logvar_head. In a VAE the last encoder layer is the linear
    mean head and logvar_head is a linear layer reading the same input, so
    the encoder stack alone is the deterministic (mean) latent map.
    """

    encoder_layers: list[DenseLayer] = field(default_factory=list)
    decoder_layers: list[DenseLayer] = field(default_factory=list)
    logvar_head: DenseLayer | None = None

    @property
    def input_dim(self) -> int:
        return self.encoder_layers[0].n_in

    @property
    def latent_dim(self) -> int:
        return self.encoder_layers[-1].n_out

    def all_layers(self) -> list[DenseLayer]:
        heads = [] if self.logvar_head is None else [self.logvar_head]
        return [*self.encoder_layers, *heads, *self.decoder_layers]


def forward_layers(layers: list[DenseLayer], x: np.ndarray,
                   rows: np.ndarray | None = None):
    """Run a stack, caching (input, pre-activation, activation) per layer.

    rows, when given, are the indices of x's rows in the training matrix of
    a RowSpaceLayer at the bottom of the stack. That layer then reads them
    in place of x and caches their one-hot matrix as its input, from which
    backward_layers forms the factors of its coef gradient.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError("batch must be 2-D (samples x features)")
    if layers and x.shape[1] != layers[0].n_in:
        raise ValidationError(
            f"batch width {x.shape[1]} does not match layer fan-in {layers[0].n_in}"
        )
    cache = []
    a = x
    for layer in layers:
        if isinstance(layer, RowSpaceLayer):
            a_in = a if rows is None else layer.one_hot(rows)
            z = layer.affine(a, rows)
        else:
            z = a @ layer.weights.T + layer.bias
            a_in = a
        a_next = _activate(z, layer.activation)
        cache.append((a_in, z, a_next))
        a = a_next
    return a, cache


def backward_layers(layers: list[DenseLayer], cache, grad_out: np.ndarray):
    """Reverse-mode gradients for a stack.

    Returns ([((a, b), db)] aligned with layers, gradient w.r.t. the stack
    input). Each weight gradient a.T @ b is returned as its factors and
    never formed; flatten_grads gives the dense arrays and SgdMomentum.step
    takes the factors. They are (dz, x_in) for a dense layer's weights and
    (e, dz) for a RowSpaceLayer's coef, e the one-hot rows forward_layers
    cached. A RowSpaceLayer has no input gradient: None is returned for it.
    """
    grads = [None] * len(layers)
    g = grad_out
    for idx in range(len(layers) - 1, -1, -1):
        x_in, z, a = cache[idx]
        dz = g * _activation_grad(z, a, layers[idx].activation)
        row_space = isinstance(layers[idx], RowSpaceLayer)
        grads[idx] = ((x_in, dz) if row_space else (dz, x_in), dz.sum(axis=0))
        g = None if row_space else dz @ layers[idx].weights
    return grads, g


def mse_loss(x: np.ndarray, r: np.ndarray):
    """Per-element mean squared error and its gradient w.r.t. r."""
    if x.shape != r.shape:
        raise ValidationError(f"shape mismatch {x.shape} vs {r.shape}")
    diff = r - x
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


class SgdMomentum:
    """Classical-momentum SGD: v <- m*v - lr*g; p <- p + v.

    Parameters are updated in place, about UPDATE_BLOCK elements at a time,
    through one reusable scratch buffer, so a step allocates nothing and
    leaves the gradients untouched. A gradient is a dense array, or for a
    2-D parameter the factors (a, b) of a.T @ b from backward_layers: then
    each block of rows of the product is formed in the scratch buffer and
    applied at once, so the dense gradient never exists. With momentum 0
    the velocity would always equal -lr*g, so none is kept (velocity is
    None) and the update is p <- p - lr*g.
    """

    def __init__(self, params: list[np.ndarray], lr: float, momentum: float = 0.0):
        for p in params:
            if not p.flags.c_contiguous:
                raise ValidationError("parameters must be C-contiguous arrays")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p) for p in params] if momentum else None
        # a row block (see step) holds at most UPDATE_BLOCK + n_cols elements,
        # or three rows where two rows exceed UPDATE_BLOCK
        widest = max((p.shape[1] for p in params if p.ndim == 2), default=0)
        self._scratch = np.empty(max(UPDATE_BLOCK + widest, 3 * widest))

    def step(self, grads: list) -> None:
        if len(grads) != len(self.params):
            raise ValidationError("gradient list does not match parameter list")
        for i, (p, g) in enumerate(zip(self.params, grads)):
            v = None if self.velocity is None else self.velocity[i]
            if isinstance(g, tuple):
                a, b = g
                if len(a) != len(b) or (a.shape[1], b.shape[1]) != p.shape:
                    raise ValidationError(f"gradient factors {a.shape} and {b.shape} "
                                          f"do not form parameter {p.shape}")
                # rows of about UPDATE_BLOCK elements, never one alone unless p
                # has one: numpy forms a one-row product by GEMV, which rounds
                # unlike the GEMM of the whole gradient
                rows = max(2, UPDATE_BLOCK // p.shape[1])
                bounds = [0, *range(rows, p.shape[0] - 1, rows), p.shape[0]]
                for r0, r1 in zip(bounds, bounds[1:]):
                    g_rows = self._scratch[:(r1 - r0) * p.shape[1]].reshape(r1 - r0, -1)
                    np.matmul(a[:, r0:r1].T, b, out=g_rows)
                    self._apply(p, v, slice(r0, r1), g_rows)
            else:
                if g.shape != p.shape:
                    raise ValidationError(
                        f"gradient shape {g.shape} does not match parameter {p.shape}")
                p, g = p.reshape(-1), g.reshape(-1)
                v = None if v is None else v.reshape(-1)
                for start in range(0, p.size, UPDATE_BLOCK):
                    block = slice(start, start + UPDATE_BLOCK)
                    self._apply(p, v, block, g[block])

    def _apply(self, p, v, block, g) -> None:
        """Update p[block], v[block] by their gradient g; lr*g goes to scratch."""
        t = np.multiply(g, self.lr, out=self._scratch[:g.size].reshape(g.shape))
        p = p[block]
        if v is None:
            p -= t
        else:
            v = v[block]
            v *= self.momentum
            v -= t
            p += v


def collect_params(layers: list[DenseLayer]) -> list[np.ndarray]:
    """[W, b, ...] per layer; a RowSpaceLayer gives its coef in W's place."""
    out = []
    for layer in layers:
        out.append(layer.coef if isinstance(layer, RowSpaceLayer) else layer.weights)
        out.append(layer.bias)
    return out


def check_finite(arrays: list[np.ndarray], what: str) -> None:
    """Raise NumericError naming `what` if an array holds a NaN or an inf."""
    for i, a in enumerate(arrays):
        # min and max propagate NaN and reach every inf, with no temporary
        if a.size and not np.isfinite([a.min(), a.max()]).all():
            raise NumericError(f"{what}: non-finite value in trained parameter {i}")


def flatten_grads(grads) -> list[np.ndarray]:
    """Dense [dW, db, ...] from backward_layers' [((a, b), db), ...]."""
    out = []
    for (a, b), db in grads:
        out.append(a.T @ b)
        out.append(db)
    return out


@dataclass
class SgdConfig:
    """Mini-batch SGD settings; each trainer's config sets epochs, lr, momentum."""

    epochs: int
    lr: float
    momentum: float
    batch_size: int = 8
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        # reject a step size or momentum under which SGD does not descend
        if not 0.0 < self.lr < np.inf:
            raise ValidationError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")


def sgd_epochs(params: list[np.ndarray], n: int, cfg: SgdConfig,
               rng: np.random.Generator, batch_step, what: str):
    """Mini-batch SGD with momentum on params; yields each epoch's mean loss.

    Each epoch slices a permutation of range(n), drawn from rng, into batches
    of cfg.batch_size indices. batch_step(idx) returns the batch's loss and
    its gradients as tuples that concatenate in the order of params, as
    backward_layers' ((dz, x_in), db) do, or None to stop before the batch.
    A non-finite loss raises NumericError naming `what`. Work done between
    epochs runs before the next permutation is drawn.
    """
    opt = SgdMomentum(params, cfg.lr, cfg.momentum)
    starts = range(0, n, cfg.batch_size)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0  # a running +=: sum() rounds differently from Python 3.12
        for step, start in enumerate(starts):
            if (out := batch_step(perm[start:start + cfg.batch_size])) is None:
                return
            loss, grads = out
            if not np.isfinite(loss):
                raise NumericError(f"{what}: non-finite loss {loss} at "
                                   f"epoch {epoch}, step {step}")
            opt.step([g for group in grads for g in group])
            epoch_loss += loss
        yield epoch_loss / len(starts)
