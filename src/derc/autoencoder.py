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


@dataclass
class AeSpec:
    """Layer widths for the symmetric encoder/decoder stacks.

    layer_dims starts at the input width and ends at the latent width,
    e.g. [10153, 2000, 500, 70, 10]. The decoder mirrors the encoder and
    ends in a sigmoid so outputs stay in the beta-value range.
    """

    layer_dims: list[int] | None = None

    def resolve(self, d_in: int) -> list[int]:
        dims = self.layer_dims if self.layer_dims is not None else [d_in, *DEFAULT_HIDDEN_DIMS]
        for pos, width in enumerate(dims):
            if width < 1:
                raise ValidationError(f"layer width {width} at position {pos} of "
                                      f"{list(dims)} must be >= 1")
        if dims[0] != d_in:
            raise ValidationError(
                f"spec input width {dims[0]} does not match data width {d_in}"
            )
        if dims[-1] >= d_in:
            raise ValidationError(
                f"latent dim {dims[-1]} must be smaller than input dim {d_in}"
            )
        return list(dims)


@dataclass
class PretrainConfig(SgdConfig):
    epochs: int = 300
    lr: float = 1.0
    momentum: float = 0.0
    vae_recon_weight: float = 0.8
    validation_fraction: float = 0.0

    def validate(self) -> None:
        super().validate()
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


def reconstruct(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    z, _ = forward_layers(params.encoder_layers, x)
    r, _ = forward_layers(params.decoder_layers, z)
    return r


def vae_kl(mu: np.ndarray, log_var: np.ndarray) -> float:
    """KL divergence from N(mu, sigma) to N(0, 1), summed over dimensions.

    Nonnegative; zero iff mu = 0 and log_var = 0.
    """
    mu = np.asarray(mu, dtype=float)
    log_var = np.asarray(log_var, dtype=float)
    if mu.shape != log_var.shape:
        raise ValidationError("mu and log_var must have equal shapes")
    return float(-0.5 * np.sum(1.0 + log_var - mu * mu - np.exp(log_var)))


def vae_forward(params: NetworkParams, x: np.ndarray, eps: np.ndarray,
                rows: np.ndarray | None = None):
    """Reparameterised forward pass; returns reconstruction and caches.

    rows are x's row indices in the training matrix (see forward_layers).
    """
    mu, enc_cache = forward_layers(params.encoder_layers, x, rows)
    # the log-variance head reads the mean head's input
    lv, lv_cache = forward_layers([params.logvar_head], enc_cache[-1][0])
    z = mu + np.exp(0.5 * lv) * eps
    r, dec_cache = forward_layers(params.decoder_layers, z)
    cache = dict(enc=enc_cache, lv=lv_cache, dec=dec_cache,
                 mu_val=mu, lv_val=lv, eps=eps, z=z)
    return r, cache


def vae_loss_and_grads(params: NetworkParams, x: np.ndarray, eps: np.ndarray,
                       recon_weight: float, rows: np.ndarray | None = None):
    """Weighted loss w*MSE + (1-w)*mean-KL and gradients for every tensor.

    Gradients are backward_layers' ((dz, x_in), db) per layer, ordered as
    params.all_layers(); rows are as in vae_forward.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    r, cache = vae_forward(params, x, eps, rows)
    mse, dmse = mse_loss(x, r)
    mu, lv = cache["mu_val"], cache["lv_val"]
    kl_mean = vae_kl(mu, lv) / n
    w = recon_weight
    loss = w * mse + (1.0 - w) * kl_mean

    enc, enc_cache = params.encoder_layers, cache["enc"]
    dec_grads, dz = backward_layers(params.decoder_layers, cache["dec"], w * dmse)
    dmu = dz + (1.0 - w) * mu / n
    dlv = dz * cache["eps"] * 0.5 * np.exp(0.5 * lv) \
        + (1.0 - w) * (np.exp(lv) - 1.0) / (2.0 * n)
    aux = dict(mse=mse, kl_mean=kl_mean, recon=r)
    mu_grads, dh_mu = backward_layers(enc[-1:], enc_cache[-1:], dmu)
    lv_grads, dh_lv = backward_layers([params.logvar_head], cache["lv"], dlv)
    trunk_grads, _ = backward_layers(enc[:-1], enc_cache[:-1], dh_mu + dh_lv)
    return loss, [*trunk_grads, *mu_grads, *lv_grads, *dec_grads], aux


def _split_train_val(n: int, fraction: float, rng: np.random.Generator):
    if fraction <= 0.0:
        return np.arange(n), np.array([], dtype=int)
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * fraction)))
    if n_val >= n:
        raise ValidationError(f"validation_fraction {fraction} holds out all {n} samples")
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _pretrain(values, spec: AeSpec, cfg: PretrainConfig, kind: str, build,
              batch_loss, val_loss):
    """Both pretrainers on network.sgd_epochs; returns (params, history).

    build(dims, rng) makes the model. batch_loss(params, batch, rows, rng)
    returns a batch's loss and its backward_layers gradients, ordered as
    params.all_layers(); rows are the batch's indices in the training split.
    val_loss(params, x_val, rng) scores the validation split after each
    epoch. All draws come from one generator seeded by cfg.seed: build,
    split, then per epoch the permutation, the batches' and the validation
    draws. The layers train in the forms network.training_layers picks for
    the training split.
    """
    cfg.validate()
    x = np.asarray(values, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    params = build(spec.resolve(x.shape[1]), rng)
    train_idx, val_idx = _split_train_val(x.shape[0], cfg.validation_fraction, rng)
    x_train, x_val = x[train_idx], x[val_idx]
    history = []
    with training_layers(params, x_train, cfg):
        epochs = sgd_epochs(params.all_layers(), len(x_train), cfg, rng,
                            lambda idx: batch_loss(params, x_train[idx], idx, rng),
                            f"pretrain {kind}")
        for epoch, train_loss in enumerate(epochs):
            val = val_loss(params, x_val, rng) if len(x_val) else float("nan")
            history.append((epoch, train_loss, val))
    check_finite(params.all_layers(), f"pretrain {kind}")
    return params, history


def _ae_batch_loss(params: NetworkParams, batch, rows, rng):
    z, enc_cache = forward_layers(params.encoder_layers, batch, rows)
    r, dec_cache = forward_layers(params.decoder_layers, z)
    loss, dmse = mse_loss(batch, r)
    dec_grads, dz = backward_layers(params.decoder_layers, dec_cache, dmse)
    enc_grads, _ = backward_layers(params.encoder_layers, enc_cache, dz)
    return loss, [*enc_grads, *dec_grads]


def _ae_val_loss(params: NetworkParams, x_val, rng) -> float:
    return mse_loss(x_val, reconstruct(params, x_val))[0]


def pretrain_ae(values: np.ndarray, spec: AeSpec, cfg: PretrainConfig):
    """Train the conventional autoencoder; returns (params, history).

    History rows are (epoch, train_loss, val_loss); val_loss is NaN when
    no validation split is configured.
    """
    return _pretrain(values, spec, cfg, "ae", build_ae, _ae_batch_loss, _ae_val_loss)


def pretrain_vae(values: np.ndarray, spec: AeSpec, cfg: PretrainConfig):
    """Train the variational autoencoder; returns (params, history).

    History rows are as in pretrain_ae; val_loss is the reconstruction MSE
    with sampled latents.
    """
    def batch_loss(params, batch, rows, rng):
        eps = rng.standard_normal((batch.shape[0], params.latent_dim))
        return vae_loss_and_grads(params, batch, eps, cfg.vae_recon_weight, rows)[:2]

    return _pretrain(values, spec, cfg, "vae", build_vae, batch_loss,
                     vae_reconstruction_loss)


def vae_reconstruction_loss(params: NetworkParams, x: np.ndarray,
                            seed: int | np.random.Generator = 0) -> float:
    """Reconstruction MSE with z sampled from seed (an int or a Generator)."""
    x = np.asarray(x, dtype=float)
    eps = np.random.default_rng(seed).standard_normal((x.shape[0], params.latent_dim))
    r, _ = vae_forward(params, x, eps)
    return mse_loss(x, r)[0]
