"""Stacked conventional autoencoder and variational autoencoder pretraining.

Both reduce prescreened beta-value matrices to a low-dimensional latent
space. Both are a network.NetworkParams; its encoder stack, which ends in
the mean head for a VAE, is the deterministic map used downstream for
clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import (
    DenseLayer,
    NetworkParams,
    SgdConfig,
    backward_layers,
    check_finite,
    forward_layers,
    mse_loss,
    sgd_epochs,
    training_layers,
)

DEFAULT_HIDDEN_DIMS = (2000, 500, 70, 10)


@dataclass(frozen=True)
class AeSpec:
    """Layer widths for the symmetric encoder/decoder stacks.

    layer_dims starts at the input width and ends at the latent width,
    e.g. [10153, 2000, 500, 70, 10]. The decoder mirrors the encoder and
    ends in a sigmoid so outputs stay in the beta-value range. None takes
    the data's width and DEFAULT_HIDDEN_DIMS.
    """

    layer_dims: list[int] | None = None

    def __post_init__(self) -> None:
        if self.layer_dims is not None and len(self.layer_dims) < 2:
            raise ValidationError(f"layer_dims {list(self.layer_dims)} must hold at least "
                                  f"two widths, the input and the latent")
        for pos, width in enumerate(self.layer_dims or ()):
            if width < 1:
                raise ValidationError(f"layer width {width} at position {pos} of "
                                      f"{list(self.layer_dims)} must be >= 1")

    def resolve(self, d_in: int) -> list[int]:
        """The widths for data d_in wide, checked against that width."""
        dims = self.layer_dims if self.layer_dims is not None else [d_in, *DEFAULT_HIDDEN_DIMS]
        if dims[0] != d_in:
            raise ValidationError(
                f"spec input width {dims[0]} does not match data width {d_in}"
            )
        if dims[-1] >= d_in:
            raise ValidationError(
                f"latent dim {dims[-1]} must be smaller than input dim {d_in}"
            )
        return list(dims)


@dataclass(frozen=True)
class PretrainConfig(SgdConfig):
    epochs: int = 300
    lr: float = 1.0
    momentum: float = 0.0
    vae_recon_weight: float = 0.8
    validation_fraction: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValidationError("validation_fraction must be in [0, 1)")
        if not 0.0 <= self.vae_recon_weight <= 1.0:
            raise ValidationError("vae_recon_weight must be in [0, 1]")


def _build(dims: list[int], rng: np.random.Generator, vae: bool) -> NetworkParams:
    # draw order: encoder trunk, last encoder (mean) layer, log-variance head,
    # decoder; changing it changes every trained model
    encoder = [
        DenseLayer.create(dims[i], dims[i + 1], "relu", rng)
        for i in range(len(dims) - 2)
    ]
    encoder.append(DenseLayer.create(dims[-2], dims[-1],
                                     "linear" if vae else "relu", rng))
    logvar_head = DenseLayer.create(dims[-2], dims[-1], "linear", rng) if vae else None
    rev = dims[::-1]
    decoder = [
        DenseLayer.create(rev[i], rev[i + 1],
                          "sigmoid" if i == len(rev) - 2 else "relu", rng)
        for i in range(len(rev) - 1)
    ]
    return NetworkParams(encoder_layers=encoder, decoder_layers=decoder,
                         logvar_head=logvar_head)


def build_ae(dims: list[int], rng: np.random.Generator) -> NetworkParams:
    return _build(dims, rng, vae=False)


def build_vae(dims: list[int], rng: np.random.Generator) -> NetworkParams:
    """An encoder ending in a linear mean head, a log-variance head, a decoder."""
    return _build(dims, rng, vae=True)


def encode(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Deterministic latent map: encoder output (AE) or mean vector (VAE)."""
    z, _ = forward_layers(params.encoder_layers, x)
    return z


def vae_kl(mu: np.ndarray, log_var: np.ndarray) -> float:
    """KL divergence from N(mu, sigma) to N(0, 1), summed over dimensions.

    Nonnegative; zero iff mu = 0 and log_var = 0.
    """
    return float(-0.5 * np.sum(1.0 + log_var - mu * mu - np.exp(log_var)))


def vae_forward(params: NetworkParams, x: np.ndarray, eps: np.ndarray | None,
                rows: np.ndarray | None = None):
    """The forward pass of every model; returns reconstruction and caches.

    z is the encoder's output; a model with a logvar_head samples
    z = mu + exp(lv / 2) * eps from it, and an AE takes eps=None. rows are
    x's row indices in the training matrix (see forward_layers).
    """
    mu, enc_cache = forward_layers(params.encoder_layers, x, rows)
    cache = dict(enc=enc_cache, mu_val=mu, z=mu)
    if params.logvar_head is not None:
        # the log-variance head reads the mean head's input
        lv, lv_cache = forward_layers([params.logvar_head], enc_cache[-1][0])
        cache.update(lv=lv_cache, lv_val=lv, eps=eps, z=mu + np.exp(0.5 * lv) * eps)
    r, cache["dec"] = forward_layers(params.decoder_layers, cache["z"])
    return r, cache


def vae_loss_and_grads(params: NetworkParams, x: np.ndarray, eps: np.ndarray | None,
                       recon_weight: float, rows: np.ndarray | None = None,
                       latent=None):
    """The training objective of every model, and its gradients.

    The loss is w*MSE, plus (1-w)*mean-KL for a model with a logvar_head,
    plus the loss of latent(z) -> (loss, dz, own gradients) when given.
    Gradients are backward_layers' ((dz, x_in), db) per layer, ordered as
    params.all_layers(), then latent's own; eps and rows are as in
    vae_forward.
    """
    n = x.shape[0]
    r, cache = vae_forward(params, x, eps, rows)
    mse, dmse = mse_loss(x, r)
    w = recon_weight
    loss = w * mse
    aux = dict(mse=mse)
    dec_grads, dz = backward_layers(params.decoder_layers, cache["dec"], w * dmse)
    own = []
    if latent is not None:
        aux["latent"], dz_latent, own = latent(cache["z"])
        loss += aux["latent"]
        dz = dz + dz_latent
    enc, enc_cache, lv_grads = params.encoder_layers, cache["enc"], []
    if params.logvar_head is not None:
        mu, lv = cache["mu_val"], cache["lv_val"]
        aux["kl_mean"] = vae_kl(mu, lv) / n
        loss += (1.0 - w) * aux["kl_mean"]
        dlv = dz * cache["eps"] * 0.5 * np.exp(0.5 * lv) \
            + (1.0 - w) * (np.exp(lv) - 1.0) / (2.0 * n)
        dz = dz + (1.0 - w) * mu / n
        lv_grads, dh_lv = backward_layers([params.logvar_head], cache["lv"], dlv)
    head_grads, dh = backward_layers(enc[-1:], enc_cache[-1:], dz)
    if lv_grads:
        # an AE's dh is not summed with zeros, which would turn its -0.0 to +0.0
        dh = dh + dh_lv
    trunk_grads, _ = backward_layers(enc[:-1], enc_cache[:-1], dh)
    return loss, [*trunk_grads, *head_grads, *lv_grads, *dec_grads, *own], aux


def _split_train_val(n: int, fraction: float, rng: np.random.Generator):
    if fraction <= 0.0:
        return np.arange(n), np.array([], dtype=int)
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * fraction)))
    if n_val >= n:
        raise ValidationError(f"validation_fraction {fraction} holds out all {n} samples")
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _pretrain(values, spec: AeSpec, cfg: PretrainConfig, kind: str):
    """Both pretrainers on network.sgd_epochs; returns (params, history).

    Each batch's loss and gradients are vae_loss_and_grads', at w = 1 for
    an AE and cfg.vae_recon_weight for a VAE; vae_reconstruction_loss scores
    the validation split after each epoch. All draws come from one generator
    seeded by cfg.seed: build, split, then per epoch the permutation, the
    batches' and the validation draws, which only a VAE makes. The layers
    train in the forms network.training_layers picks for the training split.
    """
    x = np.asarray(values, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    build, w = (build_vae, cfg.vae_recon_weight) if kind == "vae" else (build_ae, 1.0)
    params = build(spec.resolve(x.shape[1]), rng)
    train_idx, val_idx = _split_train_val(x.shape[0], cfg.validation_fraction, rng)
    x_train, x_val = x[train_idx], x[val_idx]

    def batch_loss(idx):
        eps = (None if params.logvar_head is None
               else rng.standard_normal((len(idx), params.latent_dim)))
        return vae_loss_and_grads(params, x_train[idx], eps, w, idx)[:2]

    history = []
    with training_layers(params, x_train, cfg):
        epochs = sgd_epochs(params.all_layers(), len(x_train), cfg, rng, batch_loss,
                            f"pretrain {kind}")
        for epoch, train_loss in enumerate(epochs):
            val = vae_reconstruction_loss(params, x_val, rng) if len(x_val) else float("nan")
            history.append((epoch, train_loss, val))
    check_finite(params.all_layers(), f"pretrain {kind}")
    return params, history


def pretrain_ae(values: np.ndarray, spec: AeSpec, cfg: PretrainConfig):
    """Train the conventional autoencoder; returns (params, history).

    History rows are (epoch, train_loss, val_loss); val_loss is NaN when
    no validation split is configured.
    """
    return _pretrain(values, spec, cfg, "ae")


def pretrain_vae(values: np.ndarray, spec: AeSpec, cfg: PretrainConfig):
    """Train the variational autoencoder; returns (params, history).

    History rows are as in pretrain_ae; val_loss is the reconstruction MSE
    with sampled latents.
    """
    return _pretrain(values, spec, cfg, "vae")


def vae_reconstruction_loss(params: NetworkParams, x: np.ndarray,
                            seed: int | np.random.Generator = 0) -> float:
    """Reconstruction MSE; a VAE's z is sampled from seed (an int or a Generator)."""
    eps = (None if params.logvar_head is None else
           np.random.default_rng(seed).standard_normal((x.shape[0], params.latent_dim)))
    r, _ = vae_forward(params, x, eps)
    return mse_loss(x, r)[0]
