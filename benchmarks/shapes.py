"""Workload sizes shared by the runner, the worker and the input generator.

`full` is what the benchmark measures; `tiny` keeps every code path but
shrinks each input so the smoke test finishes in seconds.
"""

WORKLOADS = ("cli_small", "prescreen_wide", "train_paper")

SIZES = {
    "full": {
        "cli_small": dict(
            n_samples=40, n_features=2000, n_informative=200, n_dup_groups=20,
            n_missing=12, pretrain_epochs=100, derc_epochs=50, batch_size=8,
            target_interval=10, restarts=80, hidden=32, latent=10,
        ),
        "prescreen_wide": dict(
            n_samples=137, n_class1=23, n_probes=10000, n_informative=300,
            n_dup_groups=40, n_missing=25,
        ),
        "train_paper": dict(
            n_samples=137, n_class1=23, n_features=10153, n_informative=500,
            hidden=(2000, 500, 70, 10), epochs=1, batch_size=8,
            target_interval=10, restarts=80,
        ),
    },
    "tiny": {
        "cli_small": dict(
            n_samples=24, n_features=200, n_informative=60, n_dup_groups=4,
            n_missing=4, pretrain_epochs=60, derc_epochs=5, batch_size=8,
            target_interval=10, restarts=5, hidden=16, latent=4,
        ),
        "prescreen_wide": dict(
            n_samples=60, n_class1=12, n_probes=300, n_informative=30,
            n_dup_groups=5, n_missing=5,
        ),
        "train_paper": dict(
            n_samples=40, n_class1=8, n_features=300, n_informative=30,
            hidden=(64, 16, 4), epochs=1, batch_size=8,
            target_interval=10, restarts=5,
        ),
    },
}

# derc modules each workload imports; setup_s times a fresh interpreter
# until these are loaded
IMPORTS = {
    "cli_small": ("derc.cli",),
    "prescreen_wide": ("derc.data", "derc.prescreen"),
    "train_paper": ("derc.autoencoder", "derc.cluster", "derc.kmeans", "derc.metrics"),
}


def n_batches(n_samples: int, batch_size: int) -> int:
    return -(-n_samples // batch_size)


def dense_weights(dims) -> int:
    """Weight count of the mirrored AE over `dims` (input width first)."""
    return 2 * sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def dense_params(dims) -> int:
    """Weights plus biases of the mirrored AE over `dims`."""
    return dense_weights(dims) + sum(dims[1:]) + sum(dims[:-1])
