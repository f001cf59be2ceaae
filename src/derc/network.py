"""Minimal dense-network engine with exact reverse-mode gradients.

Arithmetic, and each buffer made here, follows the dtype of its inputs, which
the stages' entries (loaders, trainers) make float64 for tight gradient checks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError

INIT_SCALE = 1.0 / 3.0  # s in the uniform bound l = sqrt(3 * s / n_input)
# elements per optimizer update block: 256 KiB of float64, small enough that
# the block product and the slices it touches stay in cache
UPDATE_BLOCK = 1 << 15
# elements of the block product when a row-space layer's weights are
# formed or a deferred layer's pending updates applied: 2 MiB of float64,
# wide enough for an efficient GEMM
FOLD_BLOCK = 1 << 18
# steps a DeferredLayer keeps pending before it applies them. At the paper's
# 2000 -> 10153 output layer and batch 8 the flush costs 9.5 / 6.2 / 5.0 ms
# per step at 8 / 18 / 32 steps, for a window of 6 / 13 / 24 MiB, against
# 44 ms for a step's dense update; a 137-sample cohort has 18 steps per
# epoch, and every epoch ends in a flush, so a longer window gains nothing
PENDING_STEPS = 18
# an epoch mean loss above this many times the lowest earlier one is divergence
# (sgd_epochs). Largest such ratio in converging runs: 1.02 in AE and VAE
# pretraining (cli_small seeds 0-4, criterion 4's five seeds, 10 paper-shape
# epochs); in DERC, 2.9 at beta 0.75 (50 epochs on criterion 4's cohorts;
# 1.002 on cli_small's, 1.001 in 5 at paper shape) and 322 at beta 0, whose
# KL-only loss starts near 0 (1.5e-8 at paper shape). A diverging 300-64 VAE
# on a 40 x 300 cohort rises 3.4e11-fold in its second epoch.
DIVERGENCE_FACTOR = 1e8


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b, into out when given: every large product in derc is formed
    here, by np.matmul on exactly the operand views given."""
    return np.matmul(a, b, out=out)


def init_bound(n_input: int) -> float:
    return float(np.sqrt(3.0 * INIT_SCALE / n_input))


def init_uniform(shape, n_input: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform weights on [-l, l] with l = sqrt(3*s/n_input), s = 1/3."""
    l = init_bound(n_input)
    return rng.uniform(-l, l, size=shape)


def relu(z):
    return np.maximum(z, 0.0)


def sigmoid(z):
    # exp(-|z|) never overflows; minimum(z, -z) keeps a NaN's sign, so each
    # value is bit for bit the branch form 1/(1 + exp(-z)), exp(z)/(1 + exp(z))
    e = np.minimum(z, -z)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


# activation name -> (its function of the pre-activation z, its derivative
# given z and the activation a); relu'(0) is defined as 0
ACTIVATIONS = {
    "relu": (relu, lambda z, a: (z > 0).astype(z.dtype)),
    "sigmoid": (sigmoid, lambda z, a: a * (1.0 - a)),
    "linear": (lambda z: z, lambda z, a: np.ones_like(z)),
}


class Layer:
    """A layer kind's training. weights is every kind's stored n_out x n_in
    matrix, C-ordered and floating (data.load_model makes a loaded one so);
    a training form (RowSpaceLayer, DeferredLayer) reads it as the base that
    it adds its own state to. params are the arrays SgdMomentum updates for
    the layer, update applies the ((a, b), db) gradient backward_layers
    gives, by default each part to its array in params, and flush applies
    what the layer holds pending, by default nothing."""

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    def update(self, opt: SgdMomentum, grad) -> None:
        for p, g in zip(self.params, grad):
            opt.update(p, g)

    def flush(self) -> None:
        pass


@dataclass
class DenseLayer(Layer):
    """Dense layer y = act(x @ W.T + b), W its weights."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        # a tuple, so that a JSON list or null is rejected, not a TypeError
        if self.activation not in tuple(ACTIVATIONS):
            raise ValidationError(f"unknown activation {self.activation!r}")

    @classmethod
    def create(cls, n_in: int, n_out: int, activation: str,
               rng: np.random.Generator) -> "DenseLayer":
        return cls(
            weights=init_uniform((n_out, n_in), n_in, rng),
            bias=np.zeros(n_out),
            activation=activation,
        )

    @property
    def params(self) -> tuple[np.ndarray, np.ndarray]:
        return self.weights, self.bias

    def forward(self, a: np.ndarray, rows: np.ndarray | None = None):
        """(input to cache, pre-activation a @ W.T + bias); rows are unused."""
        return a, matmul(a, self.weights.T) + self.bias

    def backward(self, a_in: np.ndarray, dz: np.ndarray):
        """(factors (dz, a_in) of the weight gradient, input gradient dz @ W)."""
        return (dz, a_in), matmul(dz, self.weights)


def _product_blocks(a: np.ndarray, b: np.ndarray, block: int = FOLD_BLOCK):
    """Yield (rows, out) with out = (a.T @ b)[rows], in row blocks of about
    `block` elements formed in one buffer made to hold the largest block, so
    the product never exists whole. No block is a lone row unless the product
    has one: numpy forms a one-row product by GEMV, which rounds unlike the
    GEMM of the whole product."""
    n_rows, d = a.shape[1], b.shape[1]
    step = max(2, block // d)
    bounds = [0, *range(step, n_rows - 1, step), n_rows]
    spans = list(zip(bounds, bounds[1:]))
    buf = np.empty(max(r1 - r0 for r0, r1 in spans) * d, np.result_type(a, b))
    for r0, r1 in spans:
        out = buf[:(r1 - r0) * d].reshape(r1 - r0, d)
        yield slice(r0, r1), matmul(a[:, r0:r1].T, b, out=out)


class RowSpaceLayer(Layer):
    """A dense layer trained in the row space of its training matrix x.

    A layer that only ever reads rows of x gets SGD updates dz.T @ x[rows],
    and momentum velocities built from them, so its effective matrix stays
    weights + coef.T @ x, with coef of shape n_samples x n_out (Zhang et al.
    2017, arXiv:1611.03530, sec. 5). weights is a read-only view of the
    dense layer's matrix; the layer keeps it, x @ weights.T and x @ x.T, each
    computed once, and trains coef in place of it: a batch's gradient on
    coef is e.T @ dz, e its one-hot rows (one_hot), which SgdMomentum.update
    takes as factors like any weight gradient. The bias is layer's own array.
    """

    def __init__(self, layer: DenseLayer, x: np.ndarray):
        self.weights = layer.weights.view()
        self.weights.flags.writeable = False
        self.bias, self.activation, self.x = layer.bias, layer.activation, x
        self.xw = matmul(x, self.weights.T)
        self.gram = matmul(x, x.T)
        self.coef = np.zeros((len(x), layer.n_out), dtype=self.weights.dtype)

    @property
    def params(self) -> tuple[np.ndarray, np.ndarray]:
        return self.coef, self.bias

    def one_hot(self, rows: np.ndarray) -> np.ndarray:
        """The len(rows) x n_samples matrix e with e[i, rows[i]] = 1, else 0."""
        n = len(self.x)
        bad = rows[(rows < 0) | (rows >= n)]
        if bad.size:
            raise ValidationError(f"rows {bad.tolist()} are outside the {n} "
                                  f"training rows")
        e = np.zeros((len(rows), n), dtype=self.coef.dtype)
        e[np.arange(len(rows)), rows] = 1.0
        return e

    def affine(self, a: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
        """a @ W.T + bias, for the rows of x given by rows, all of x, or any a."""
        if rows is None and a is self.x:
            rows = np.arange(len(a))
        if rows is not None:
            return self.xw[rows] + matmul(self.gram[rows], self.coef) + self.bias
        return matmul(a, self.weights.T) + matmul(matmul(a, self.x.T), self.coef) + self.bias

    def forward(self, a: np.ndarray, rows: np.ndarray | None = None):
        """(input to cache, pre-activation); with rows, the input is one_hot(rows)."""
        return (a if rows is None else self.one_hot(rows)), self.affine(a, rows)

    def backward(self, e: np.ndarray, dz: np.ndarray):
        """(factors (e, dz) of the coef gradient, None): the layer reads the data."""
        return (e, dz), None

    def fold_into(self, out: np.ndarray) -> None:
        """Write weights + coef.T @ x into out, which may be the buffer that
        weights views.

        Rows are formed a block at a time, so no W-sized temporary exists.
        """
        for rows, block in _product_blocks(self.coef, self.x):
            np.add(self.weights[rows], block, out=out[rows])


class DeferredLayer(Layer):
    """A dense layer whose SGD-momentum updates are applied in windows.

    A step's update lr * dz.T @ h has rank len(dz), yet applying it reads
    and writes all of W, and at a momentum m > 0 all of its velocity V.
    Unrolled over a window of t steps that starts from W0 and V0, with the
    rows D_s = lr * dz_s and H_s = h_s of step s, classical momentum gives

        W_t = W0 + c_t * V0 - sum_s b_ts * D_s.T @ H_s,
        V_t = m**t * V0 - sum_s m**(t - s) * D_s.T @ H_s,

    with c_t = m (1 - m**t) / (1 - m) and b_ts = (1 - m**(t - s + 1)) / (1 - m);
    at m = 0, c = 0 and b = 1. The layer keeps the rows D in pending, H in
    pending_in and each row's step s in step_of, and reads the effective
    W_t: the forward pass is h @ W0.T + c_t * (h @ V0.T) - ((h @ H.T) * b) @ D,
    the input gradient dz @ W0 + c_t * (dz @ V0) - ((dz @ D.T) * b) @ H.
    After PENDING_STEPS steps, and on flush, W_t is written to W in one GEMM
    per block of rows. The velocity is the layer's own and formed lazily: a
    flushed window's share of it only when the next window's first step
    needs it, since right after a flush c = 0. A trainer that ends on a
    flush, or trains at m = 0, never forms it. The window holds `window`
    rows of each factor. W is weights, the dense layer's own array; the bias
    is updated directly, so it alone is in params.
    """

    def __init__(self, layer: DenseLayer, window: int, momentum: float = 0.0):
        self.weights, self.bias, self.activation = (layer.weights, layer.bias,
                                                    layer.activation)
        self.momentum = momentum
        # the factors and a scaled copy of pending_in, which every flush writes
        # (window x n_in values, 2.1 MiB at the paper's shape), are cut from one
        # allocation: on a 2-vCPU host, three arrays raised train_paper's peak
        # RSS by 2.2-2.5 MiB in two of three checkouts
        n_out, n_in = layer.n_out, layer.n_in
        buf = np.empty(window * (n_out + 2 * n_in), layer.weights.dtype)
        self.pending = buf[:window * n_out].reshape(window, n_out)
        self.pending_in, self._scaled_in = buf[window * n_out:].reshape(2, window, n_in)
        self.step_of = np.zeros(window, dtype=int)
        self.velocity = None
        self.rows = self.steps = 0
        # (rows, steps) of the flushed window whose share of the velocity is
        # not formed yet
        self.unformed = (0, 0)

    @staticmethod
    def pays(layer: DenseLayer, batch_size: int) -> bool:
        """Whether a full window of both factors is smaller than W."""
        return (PENDING_STEPS * batch_size * (layer.n_in + layer.n_out)
                < layer.n_in * layer.n_out)

    @property
    def params(self) -> tuple[np.ndarray]:
        return (self.bias,)

    def update(self, opt: SgdMomentum, grad) -> None:
        """Keep the weight update pending (defer); the bias's goes through opt."""
        (dz, h), db = grad
        if opt.momentum != self.momentum:
            raise ValidationError(f"a DeferredLayer made at momentum {self.momentum} "
                                  f"cannot train at momentum {opt.momentum}")
        _check_factors(dz, h, self.weights.shape)
        self.defer(dz, h, opt.lr)
        opt.update(self.bias, db)

    def _b(self) -> np.ndarray:
        """b_ts of each pending row, all 1 at momentum 0, in the weights' dtype."""
        m = self.momentum
        b = (1.0 - m ** (self.steps - self.step_of[:self.rows] + 1)) / (1.0 - m)
        return b.astype(self.weights.dtype, copy=False)

    def _c(self) -> float:
        """c_t, the weight of V0 in W_t: 0 at momentum 0 and right after a flush."""
        m = self.momentum
        return m * (1.0 - m ** self.steps) / (1.0 - m)

    def _scaled_pending_in(self, weights: np.ndarray) -> np.ndarray:
        """The first len(weights) rows of pending_in, each times its weight
        (each 1 at momentum 0), in the layer's scratch copy."""
        h = self.pending_in[:len(weights)]
        return np.multiply(h, weights[:, None], out=self._scaled_in[:len(weights)])

    def forward(self, a: np.ndarray, rows: np.ndarray | None = None):
        """As DenseLayer.forward, through the effective weights."""
        z = matmul(a, self.weights.T)
        if r := self.rows:
            if self.velocity is not None:
                z += self._c() * matmul(a, self.velocity.T)
            z -= matmul(matmul(a, self.pending_in[:r].T) * self._b(), self.pending[:r])
        z += self.bias
        return a, z

    def backward(self, a_in: np.ndarray, dz: np.ndarray):
        """As DenseLayer.backward, through the effective weights."""
        g = matmul(dz, self.weights)
        if r := self.rows:
            if self.velocity is not None:
                g += self._c() * matmul(dz, self.velocity)
            g -= matmul(matmul(dz, self.pending[:r].T) * self._b(), self.pending_in[:r])
        return (dz, a_in), g

    def defer(self, dz: np.ndarray, h: np.ndarray, lr: float) -> None:
        """Add the update lr * dz.T @ h to the window; flush a full one."""
        r0, r1 = self.rows, self.rows + len(dz)
        if r1 > len(self.pending):
            raise ValidationError(f"a batch of {len(dz)} rows overflows the pending "
                                  f"window of {len(self.pending)} rows")
        if self.unformed[0]:
            self._form_velocity()
        np.multiply(dz, lr, out=self.pending[r0:r1])
        self.pending_in[r0:r1] = h
        self.rows, self.steps = r1, self.steps + 1
        self.step_of[r0:r1] = self.steps
        if self.steps == PENDING_STEPS:
            self.flush()

    def flush(self) -> None:
        """Write W_t to W, a block of rows at a time, and start a new window."""
        if self.rows:
            c = self._c()
            for rows, block in _product_blocks(self.pending[:self.rows],
                                               self._scaled_pending_in(self._b())):
                self.weights[rows] -= block
                if self.velocity is not None:
                    # block is the generator's buffer, free once applied
                    self.weights[rows] += np.multiply(self.velocity[rows], c, out=block)
            if self.momentum:
                self.unformed = (self.rows, self.steps)
        self.rows = self.steps = 0

    def _form_velocity(self) -> None:
        """Bring V0 to the flushed window's V_t, a block of rows at a time."""
        rows, t = self.unformed
        m = self.momentum
        decay = m ** (t - self.step_of[:rows])
        h = self._scaled_pending_in(decay.astype(self.weights.dtype, copy=False))
        if self.velocity is None:
            self.velocity = np.zeros_like(self.weights)
        for r, block in _product_blocks(self.pending[:rows], h):
            v = self.velocity[r]
            v *= m ** t
            v -= block
        self.unformed = (0, 0)


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


@contextmanager
def training_layers(params: NetworkParams, x: np.ndarray, cfg: SgdConfig):
    """Context: hold params' layers in the forms they train in on x.

    The first encoder layer trains in x's row space (RowSpaceLayer), except
    in a VAE without a trunk, whose two heads both read the input. The
    decoder's output layer keeps its updates pending (DeferredLayer) where
    that pays at cfg.batch_size. On exit, by an exception too, the dense
    layers are put back, holding the trained weights, so what outlives
    training (a saved model, a caller's params) is dense.
    """
    enc, dec = params.encoder_layers, params.decoder_layers
    first, last = enc[0], dec[-1]
    try:
        if params.logvar_head is None or len(enc) > 1:
            enc[0] = RowSpaceLayer(first, x)
        if DeferredLayer.pays(last, cfg.batch_size):
            # sgd_epochs flushes every epoch, so the window never holds more
            # rows than the len(x) an epoch runs through
            dec[-1] = DeferredLayer(last, min(PENDING_STEPS * cfg.batch_size, len(x)),
                                    cfg.momentum)
        yield
    finally:
        row_space, deferred = enc[0], dec[-1]
        enc[0], dec[-1] = first, last
        if row_space is not first:
            row_space.fold_into(first.weights)
        deferred.flush()


def forward_layers(layers: list[DenseLayer], x: np.ndarray,
                   rows: np.ndarray | None = None):
    """Run a stack, caching (input, pre-activation, activation) per layer.

    rows, when given, are the indices of x's rows in the training matrix of
    a RowSpaceLayer at the bottom of the stack. That layer then reads them
    in place of x and caches their one-hot matrix as its input, from which
    backward_layers forms the factors of its coef gradient. Each layer
    (DenseLayer, RowSpaceLayer, DeferredLayer) gives its own input to cache
    and pre-activation through its forward method.
    """
    if x.ndim != 2:
        raise ValidationError("batch must be 2-D (samples x features)")
    if layers and x.shape[1] != layers[0].n_in:
        raise ValidationError(
            f"batch width {x.shape[1]} does not match layer fan-in {layers[0].n_in}"
        )
    cache = []
    a = x
    for layer in layers:
        a_in, z = layer.forward(a, rows)
        a_next = ACTIVATIONS[layer.activation][0](z)
        cache.append((a_in, z, a_next))
        a = a_next
    return a, cache


def backward_layers(layers: list[DenseLayer], cache, grad_out: np.ndarray):
    """Reverse-mode gradients for a stack.

    Returns ([((a, b), db)] aligned with layers, gradient w.r.t. the stack
    input). Each weight gradient a.T @ b is returned as its factors and
    never formed; each layer's update takes the factors. They are (dz, x_in)
    for a dense layer's weights and (e, dz) for a RowSpaceLayer's coef, e the
    one-hot rows forward_layers cached. A RowSpaceLayer has no input gradient: None is
    returned for it.
    """
    grads = [None] * len(layers)
    g = grad_out
    for idx in range(len(layers) - 1, -1, -1):
        x_in, z, a = cache[idx]
        dz = g * ACTIVATIONS[layers[idx].activation][1](z, a)
        factors, g = layers[idx].backward(x_in, dz)
        grads[idx] = (factors, dz.sum(axis=0))
    return grads, g


def mse_loss(x: np.ndarray, r: np.ndarray):
    """Per-element mean squared error and its gradient w.r.t. r."""
    if x.shape != r.shape:
        raise ValidationError(f"shape mismatch {x.shape} vs {r.shape}")
    diff = r - x
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def _check_factors(a: np.ndarray, b: np.ndarray, shape: tuple) -> None:
    if len(a) != len(b) or (a.shape[1], b.shape[1]) != shape:
        raise ValidationError(f"gradient factors {a.shape} and {b.shape} "
                              f"do not form parameter {shape}")


class SgdMomentum:
    """Classical-momentum SGD: v <- m*v - lr*g; p <- p + v.

    params are layers, each applying its own gradient (Layer.update), and
    arrays such as DERC's centroids. Arrays are updated in place by update,
    which leaves the gradients untouched. A gradient is a dense array,
    scaled whole, or for a 2-D array the factors (a, b) of a.T @ b: then
    each _product_blocks row block of the product is formed, scaled in
    place and applied at once, so the dense gradient never exists.
    With momentum 0 the velocity would always equal -lr*g, so none is kept
    (velocity is None) and the update is p <- p - lr*g; else velocity holds
    one array for each of collect_params(params).
    """

    def __init__(self, params: list, lr: float, momentum: float = 0.0):
        arrays = collect_params(params)
        for p in arrays:
            if not p.flags.c_contiguous:
                raise ValidationError("parameters must be C-contiguous arrays")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p) for p in arrays] if momentum else None
        self._velocity_of = dict(zip(map(id, arrays), self.velocity or ()))

    def step(self, grads: list) -> None:
        if len(grads) != len(self.params):
            raise ValidationError("gradient list does not match parameter list")
        for p, g in zip(self.params, grads):
            if isinstance(p, np.ndarray):
                self.update(p, g)
            else:
                p.update(self, g)

    def update(self, p: np.ndarray, g) -> None:
        """Apply g, a dense gradient or factors (a, b), to p, one of
        collect_params(params)."""
        v = None if self.velocity is None else self._velocity_of[id(p)]
        if isinstance(g, tuple):
            a, b = g
            _check_factors(a, b, p.shape)
            for rows, g_rows in _product_blocks(a, b, UPDATE_BLOCK):
                self._apply(p, v, rows, np.multiply(g_rows, self.lr, out=g_rows))
        else:
            if g.shape != p.shape:
                raise ValidationError(
                    f"gradient shape {g.shape} does not match parameter {p.shape}")
            self._apply(p, v, ..., g * self.lr)

    def _apply(self, p, v, block, t) -> None:
        """Update p[block], v[block] by t, their gradient times lr."""
        p = p[block]
        if v is None:
            p -= t
        else:
            v = v[block]
            v *= self.momentum
            v -= t
            p += v

    def flush(self) -> None:
        """Apply the updates the layers hold pending."""
        for p in self.params:
            if not isinstance(p, np.ndarray):
                p.flush()


def collect_params(params: list) -> list[np.ndarray]:
    """The arrays of params, layers and arrays: each layer's own params
    ([W, b], or a RowSpaceLayer's [coef, b]), and each array itself."""
    return [a for p in params for a in ((p,) if isinstance(p, np.ndarray) else p.params)]


def all_finite(a: np.ndarray) -> bool:
    """Whether the real array a holds no NaN and no inf."""
    # a block's dot product with zeros is NaN iff the block holds a NaN or an
    # inf (0 * inf = NaN; every other product is exactly 0, so nothing
    # overflows): one BLAS pass over a in its memory order, so that a C- or
    # F-ordered a is not copied, against one UPDATE_BLOCK of zeros
    flat = a.ravel(order="K")
    zeros = np.zeros(min(flat.size, UPDATE_BLOCK), dtype=flat.dtype)
    with np.errstate(invalid="ignore"):
        return all(np.isfinite(np.dot(block, zeros[:block.size]))
                   for block in np.split(flat, range(UPDATE_BLOCK, flat.size, UPDATE_BLOCK)))


def check_finite(params: list, what: str) -> None:
    """Raise NumericError naming `what` if one of collect_params(params)
    holds a NaN or an inf."""
    for i, a in enumerate(collect_params(params)):
        if not all_finite(a):
            raise NumericError(f"{what}: non-finite value in trained parameter {i}")


@dataclass(frozen=True)
class SgdConfig:
    """Mini-batch SGD settings, checked when made; each trainer sets epochs, lr, momentum."""

    epochs: int
    lr: float
    momentum: float
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        # reject a step size or momentum under which SGD does not descend
        if not 0.0 < self.lr < np.inf:
            raise ValidationError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")


def sgd_epochs(params: list, n: int, cfg: SgdConfig,
               rng: np.random.Generator, batch_step, what: str):
    """Mini-batch SGD with momentum on params, layers and arrays (see
    SgdMomentum); yields each epoch's mean loss.

    Each epoch slices a permutation of range(n), drawn from rng, into batches
    of cfg.batch_size indices. batch_step(idx) returns the batch's loss and
    one gradient for each of params, or None to stop before the batch. A
    non-finite loss, or an epoch mean above DIVERGENCE_FACTOR times the
    lowest earlier one, raises NumericError naming `what`. Work done between
    epochs runs before the next permutation is drawn, and after every
    pending update (DeferredLayer) is applied.
    """
    opt = SgdMomentum(params, cfg.lr, cfg.momentum)
    starts = range(0, n, cfg.batch_size)
    lowest = np.inf
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
            opt.step(grads)
            epoch_loss += loss
        opt.flush()
        mean = epoch_loss / len(starts)
        # a zero mean gives no scale to tell a rise from noise by
        if 0.0 < lowest and mean > DIVERGENCE_FACTOR * lowest:
            raise NumericError(f"{what}: epoch {epoch} mean loss {mean:.6g} exceeds "
                               f"{DIVERGENCE_FACTOR:g} times the lowest earlier epoch "
                               f"mean {lowest:.6g}; training diverges")
        lowest = min(lowest, mean)
        yield mean
