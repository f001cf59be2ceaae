"""Joint reconstruction + clustering optimisation (the DERC trainer).

The clustering layer soft-assigns latent points to centroids with a
Student's-t kernel (one degree of freedom), sharpens those assignments
into a target distribution, and minimises

    L = L_cluster + beta * L_rec

where L_cluster = KL(P || Q). Encoder weights receive gradients from both
terms, decoder weights only from the reconstruction term, centroids only
from the clustering term. Targets are refreshed on the full dataset every
T mini-batch iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .network import (
    NetworkParams,
    SgdConfig,
    backward_layers,
    check_finite,
    collect_params,
    forward_layers,
    mse_loss,
    row_space_first_layer,
    sgd_epochs,
)


@dataclass
class DercConfig(SgdConfig):
    epochs: int = 50
    lr: float = 0.01
    momentum: float = 0.9
    beta: float = 0.75
    target_interval: int = 10          # T: iterations between P refreshes
    k: int = 2
    # optional early stop: fraction of samples whose hard assignment may
    # change between refreshes before stopping; None runs the full budget
    stop_delta: float | None = None

    def validate(self) -> None:
        super().validate()
        if self.beta < 0:
            raise ValidationError("beta must be >= 0")
        if self.target_interval < 1:
            raise ValidationError("target_interval must be >= 1")
        if self.k < 1:
            raise ValidationError("k must be >= 1")


@dataclass
class DercResult:
    params: NetworkParams
    centroids: np.ndarray
    q: np.ndarray
    p: np.ndarray
    cluster_ids: np.ndarray
    history: list


def soft_assign(z: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Student's-t (df=1) soft assignment; rows sum to 1."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    centroids = np.asarray(centroids, dtype=float)
    if z.shape[1] != centroids.shape[1]:
        raise ValidationError("latent and centroid widths differ")
    diff = z[:, None, :] - centroids[None, :, :]
    kernel = 1.0 / (1.0 + np.sum(diff * diff, axis=2))
    return kernel / kernel.sum(axis=1, keepdims=True)


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened targets p_ij = (q_ij^2 / f_j) / sum_j' (q_ij'^2 / f_j')."""
    q = np.asarray(q, dtype=float)
    f = q.sum(axis=0)
    if np.any(f <= 0.0):
        dead = np.nonzero(f <= 0.0)[0]
        raise NumericError(f"degenerate cluster(s) with zero frequency: {dead.tolist()}")
    weight = q * q / f
    return weight / weight.sum(axis=1, keepdims=True)


def cluster_kl_loss(p: np.ndarray, q: np.ndarray, z: np.ndarray,
                    centroids: np.ndarray):
    """KL(P || Q) summed over the batch plus gradients w.r.t. z and centroids.

    q must be the soft assignment of (z, centroids); the gradient formulas
    assume the df=1 Student kernel.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any((q == 0.0) & (p > 0.0)):
        raise NumericError("q_ij = 0 with p_ij > 0; KL undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p / q), 0.0)
    loss = float(terms.sum())

    diff = z[:, None, :] - centroids[None, :, :]        # (n, k, d)
    kernel = 1.0 / (1.0 + np.sum(diff * diff, axis=2))  # (n, k)
    w = kernel * (p - q)
    dz = 2.0 * np.einsum("ij,ijd->id", w, diff)
    dmu = -2.0 * np.einsum("ij,ijd->jd", w, diff)
    return loss, dz, dmu


def _derc_batch_loss(params: NetworkParams, centroids: np.ndarray,
                     batch: np.ndarray, p: np.ndarray, beta: float,
                     rows: np.ndarray | None = None):
    """A batch's loss KL(P || Q) / bs + beta * MSE with the targets p held fixed.

    Returns (total, cluster term, reconstruction term, gradients); the
    gradients are backward_layers' ((dz, x_in), db) per encoder and decoder
    layer, then the centroids' (dmu,). rows are the batch's indices in the
    training matrix (see network.forward_layers).
    """
    bs = len(batch)
    z, enc_cache = forward_layers(params.encoder_layers, batch, rows)
    r, dec_cache = forward_layers(params.decoder_layers, z)
    rec_loss, dmse = mse_loss(batch, r)
    q_b = soft_assign(z, centroids)
    cl_loss, dz_cl, dmu = cluster_kl_loss(p, q_b, z, centroids)
    total = cl_loss / bs + beta * rec_loss

    # dz_rec already carries beta, from the decoder's beta * dmse
    dec_grads, dz_rec = backward_layers(params.decoder_layers, dec_cache, beta * dmse)
    enc_grads, _ = backward_layers(params.encoder_layers, enc_cache, dz_rec + dz_cl / bs)
    return total, cl_loss / bs, rec_loss, [*enc_grads, *dec_grads, (dmu / bs,)]


def train_derc(values: np.ndarray, params: NetworkParams,
               centroids: np.ndarray, cfg: DercConfig) -> DercResult:
    """End-to-end joint training; see the module docstring for the scheme.

    Targets P are refreshed on the full dataset at iteration 0 and then
    every cfg.target_interval mini-batch steps. History rows are
    (iteration, cluster_loss_per_sample, recon_loss, total). A VAE model is
    trained through its mean encoding; its log-variance head is not updated.
    The first encoder layer trains in the row space of values
    (network.RowSpaceLayer) and is dense again in the result.
    """
    from .autoencoder import encode

    cfg.validate()
    x = np.asarray(values, dtype=float)
    n = x.shape[0]
    if cfg.k > n:
        raise ValidationError(f"k={cfg.k} exceeds sample count {n}")
    centroids = np.asarray(centroids, dtype=float).copy()
    if centroids.shape[0] != cfg.k:
        raise ValidationError(
            f"centroid count {centroids.shape[0]} does not match k={cfg.k}"
        )

    history = []
    p_full = prev_hard = None

    def batch_step(idx):
        nonlocal p_full, prev_hard
        ite = len(history)
        if ite % cfg.target_interval == 0:
            q_full = soft_assign(encode(params, x), centroids)
            # P before the stop test, so a degenerate cluster still raises
            p_full = target_distribution(q_full)
            hard = np.argmax(q_full, axis=1)
            if (cfg.stop_delta is not None and prev_hard is not None
                    and np.mean(hard != prev_hard) < cfg.stop_delta):
                return None
            prev_hard = hard
        total, cl_loss, rec_loss, grads = _derc_batch_loss(
            params, centroids, x[idx], p_full[idx], cfg.beta, idx)
        history.append((ite, cl_loss, rec_loss, total))
        return total, grads

    with row_space_first_layer(params.encoder_layers, x):
        layers = [*params.encoder_layers, *params.decoder_layers]
        for _ in sgd_epochs([*collect_params(layers), centroids], n, cfg,
                            np.random.default_rng(cfg.seed), batch_step, "train-derc"):
            pass
        q_final = soft_assign(encode(params, x), centroids)
    check_finite([*collect_params(params.all_layers()), centroids], "train-derc")
    return DercResult(params=params, centroids=centroids, q=q_final,
                      p=target_distribution(q_final),
                      cluster_ids=np.argmax(q_final, axis=1), history=history)
