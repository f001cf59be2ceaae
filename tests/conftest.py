import io
import json
import struct
import tracemalloc

import numpy as np


def jitter_biases(layers, rng, scale=0.1):
    """Move biases off zero so no ReLU sits exactly at its kink during checks."""
    for layer in layers:
        layer.bias += rng.normal(0.0, scale, size=layer.bias.shape)


def flatten_grads(grads) -> list[np.ndarray]:
    """Dense [dW, db, ...] from backward_layers' [((a, b), db), ...]."""
    out = []
    for (a, b), db in grads:
        out.append(a.T @ b)
        out.append(db)
    return out


def finite_diff(loss_fn, tensors, grads, eps=1e-5):
    """Max relative error between analytic grads and central differences."""
    worst = 0.0
    for t, g in zip(tensors, grads):
        it = np.nditer(t, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            old = t[i]
            t[i] = old + eps
            lp = loss_fn()
            t[i] = old - eps
            lm = loss_fn()
            t[i] = old
            num = (lp - lm) / (2.0 * eps)
            denom = max(abs(num), abs(g[i]), 1e-8)
            worst = max(worst, abs(num - g[i]) / denom)
    return worst


def poison_last_step(monkeypatch, n_steps):
    """Make SgdMomentum.step write an inf into its first parameter array on
    call n_steps.

    Returns the list that gets one entry per step.
    """
    from derc.network import SgdMomentum, collect_params

    calls = []
    step = SgdMomentum.step

    def poisoned(self, grads):
        step(self, grads)
        calls.append(None)
        if len(calls) == n_steps:
            collect_params(self.params)[0].flat[0] = np.inf

    monkeypatch.setattr(SgdMomentum, "step", poisoned)
    return calls


def traced_peak(fn) -> int:
    """Peak bytes of the allocations fn makes, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# near-duplicate probe pairs, several across the correlation blocks' edges
DUPLICATE_PROBES = [(0, 599), (250, 260), (255, 256), (100, 300), (511, 512),
                    (400, 257), (1000, 2999)]


def write_series_matrix(path, n_samples, n_probes, seed):
    """A GEO series matrix with every cell form the loader accepts.

    Beta values at 6 decimals, near-duplicate probes, and scattered null,
    NA, empty and quoted cells; probe 1 is all missing and probe 2 constant.
    """
    rng = np.random.default_rng(seed)
    values = rng.beta(2.0, 2.0, size=(n_probes, n_samples))
    for i, j in DUPLICATE_PROBES:
        if j < n_probes:
            values[j] = np.clip(values[i] + rng.normal(0.0, 0.01, n_samples), 0.0, 1.0)
    values[2] = 0.5
    cells = [[f"{v:.6f}" for v in row] for row in values]
    cells[1] = [("null", "", "NA")[c % 3] for c in range(n_samples)]
    odd = ["null", "", "NA", None]
    for k in range(n_probes // 5):
        r, c = int(rng.integers(3, n_probes)), int(rng.integers(n_samples))
        cells[r][c] = odd[k % 4] or f'"{cells[r][c]}"'
    lines = ['!Series_title\t"test cohort"',
             "!series_matrix_table_begin",
             "\t".join(['"ID_REF"', *(f'"GSM{i}"' for i in range(n_samples))]),
             *("\t".join([f'"cg{r:08d}"', *row]) for r, row in enumerate(cells)),
             "!series_matrix_table_end"]
    path.write_text("\n".join(lines) + "\n")
    return path


def set_compression_method(path, method):
    """Make the first central-directory entry of the container at path name
    the zip compression method `method`."""
    raw = bytearray(path.read_bytes())
    at = raw.find(b"PK\x01\x02") + 10  # the entry's compression method
    raw[at:at + 2] = method.to_bytes(2, "little")
    path.write_bytes(bytes(raw))


def write_deflated_container(path, arrays, meta, corrupt=False):
    """data.save_container's layout with the archive deflated by
    np.savez_compressed; when corrupt, the first byte of the first member's
    deflate data is inverted, which zlib cannot decompress."""
    from derc import data

    buf = io.BytesIO()
    np.savez_compressed(buf, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                        **arrays)
    raw = bytearray(buf.getvalue())
    if corrupt:
        # a zip local header is 30 bytes, then the member's name and extra field
        name_len, extra_len = struct.unpack("<HH", raw[26:30])
        raw[30 + name_len + extra_len] ^= 0xFF
    path.write_bytes(data.CONTAINER_MAGIC + struct.pack("<I", data.CONTAINER_VERSION) + raw)
