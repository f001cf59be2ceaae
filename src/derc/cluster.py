"""Joint reconstruction + clustering optimisation (the DERC trainer).

The clustering layer soft-assigns latent points to centroids with a
Student's-t kernel (one degree of freedom), sharpens those assignments
into a target distribution, and minimises

    L = L_cluster + beta * L_rec

where L_cluster = KL(P || Q). Encoder weights receive gradients from both
terms, decoder weights only from the reconstruction term, centroids only
from the clustering term. Targets are refreshed on the full dataset every
T mini-batch iterations. A batch's L is autoencoder.vae_loss_and_grads at
w = beta, with clustering_term as its latent term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoencoder import encode, vae_loss_and_grads
from .errors import NumericError, ValidationError
from .network import NetworkParams, SgdConfig, check_finite, sgd_epochs, training_layers


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
        if not 0.0 <= self.beta < np.inf:
            raise ValidationError(f"beta must be finite and >= 0, got {self.beta}")
        if self.target_interval < 1:
            raise ValidationError("target_interval must be >= 1")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.stop_delta is not None and not 0.0 <= self.stop_delta <= 1.0:
            raise ValidationError(f"stop_delta must be in [0, 1], got {self.stop_delta}")


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
    z = np.atleast_2d(z)
    if z.shape[1] != centroids.shape[1]:
        raise ValidationError("latent and centroid widths differ")
    diff = z[:, None, :] - centroids[None, :, :]
    kernel = 1.0 / (1.0 + np.sum(diff * diff, axis=2))
    return kernel / kernel.sum(axis=1, keepdims=True)


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened targets p_ij = (q_ij^2 / f_j) / sum_j' (q_ij'^2 / f_j')."""
    f = q.sum(axis=0)
    if np.any(f <= 0.0):
        dead = np.nonzero(f <= 0.0)[0]
        raise NumericError(f"degenerate cluster(s) with zero frequency: {dead.tolist()}")
    weight = q * q / f
    return weight / weight.sum(axis=1, keepdims=True)


def cluster_kl_loss(p: np.ndarray, z: np.ndarray, centroids: np.ndarray):
    """KL(P || Q) summed over the batch plus gradients w.r.t. z and centroids.

    Q is the soft assignment of (z, centroids), formed as soft_assign forms
    it; the gradient formulas assume its df=1 Student kernel.
    """
    diff = z[:, None, :] - centroids[None, :, :]        # (n, k, d)
    kernel = 1.0 / (1.0 + np.sum(diff * diff, axis=2))  # (n, k)
    q = kernel / kernel.sum(axis=1, keepdims=True)
    if np.any((q == 0.0) & (p > 0.0)):
        raise NumericError("q_ij = 0 with p_ij > 0; KL undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p / q), 0.0)
    loss = float(terms.sum())
    w = kernel * (p - q)
    dz = 2.0 * np.einsum("ij,ijd->id", w, diff)
    dmu = -2.0 * np.einsum("ij,ijd->jd", w, diff)
    return loss, dz, dmu


def clustering_term(p: np.ndarray, centroids: np.ndarray):
    """A batch's clustering term with the targets p held fixed, as the
    latent term of autoencoder.vae_loss_and_grads: z -> (KL(P || Q) / bs,
    its gradient w.r.t. z, [the centroids' gradient])."""
    def term(z):
        bs = len(z)
        loss, dz, dmu = cluster_kl_loss(p, z, centroids)
        return loss / bs, dz / bs, [dmu / bs]
    return term


def train_derc(values: np.ndarray, params: NetworkParams,
               centroids: np.ndarray, cfg: DercConfig) -> DercResult:
    """End-to-end joint training; see the module docstring for the scheme.

    Targets P are refreshed on the full dataset at iteration 0 and then
    every cfg.target_interval mini-batch steps. History rows are
    (iteration, cluster_loss_per_sample, recon_loss, total). A VAE model is
    trained through its mean encoding; its log-variance head is not updated.
    The layers train in the forms network.training_layers picks for values,
    and are dense again in the result.
    """
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
        total, grads, aux = vae_loss_and_grads(
            trained, x[idx], None, cfg.beta, idx,
            clustering_term(p_full[idx], centroids))
        history.append((ite, aux["latent"], aux["mse"], total))
        return total, grads

    # the network trained here: the log-variance head is neither read nor
    # updated, so even a VAE without a trunk trains its mean head in row space
    trained = NetworkParams(params.encoder_layers, params.decoder_layers)
    with training_layers(trained, x, cfg):
        for _ in sgd_epochs([*trained.all_layers(), centroids], n, cfg,
                            np.random.default_rng(cfg.seed), batch_step, "train-derc"):
            pass
        q_final = soft_assign(encode(params, x), centroids)
    check_finite([*params.all_layers(), centroids], "train-derc")
    return DercResult(params=params, centroids=centroids, q=q_final,
                      p=target_distribution(q_final),
                      cluster_ids=np.argmax(q_final, axis=1), history=history)
