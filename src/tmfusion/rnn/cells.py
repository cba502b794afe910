"""Recurrent cells in plain numpy: forward passes and exact backward passes.

Four cell kinds share one parameter container and one batched sequence
interface: inputs are (T, B, M) arrays, hidden states (B, N). The
independently-recurrent cell couples each hidden unit only to itself
through an elementwise recurrent vector; the simple cell uses a full
recurrent matrix; the gated cells follow their standard gate algebra with
a sigmoid-gated forget/input/output (and tanh candidates).

The gated cells store one block per gate (``W_f``, ``U_f``, ``b_f``, ...)
and compute on stacked gates: at call time the blocks are concatenated in
gate order (f,i,g,o for the LSTM, z,r,h for the GRU) into ``W`` (G·N × M),
``U`` (G·N × N) and ``b`` (G·N). The GRU applies ``U_z|U_r`` to h and
``U_h`` apart, to ``r * h``. Each step writes one input GEMM and one
recurrent GEMM into row t of a (T, B, G·N) gate buffer and applies the
activations in place; that buffer is the backward cache, and the previous
states are the cached sequences shifted by one step. Backward forms one
(B, G·N) gate gradient per step; per-gate weight gradients are views of
the stacked sums.

``literal_forms`` switches two alternate formulations: the independently
recurrent cell adds its bias outside the activation instead of inside,
and the gated-update candidate uses a sigmoid instead of tanh.

Recurrent dropout is a per-sequence multiplicative mask on the
hidden-to-hidden path (the direct carry path of the gated-update cell is
left undropped); passing ``rec_mask=None`` disables it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError

CELL_KINDS = ("simple", "indrnn", "lstm", "gru")

#: Gate order of the stacked blocks of the gated cells.
_GATES = {"lstm": "figo", "gru": "zrh"}


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)); cannot overflow.

    Returns float64. ``out`` is a float64 array of ``x``'s shape that
    receives the result; it may be ``x`` itself.
    """
    if out is None:
        out = np.empty(np.shape(x))
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def block_shapes(kind: str, input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Parameter block names and shapes, in canonical (initialization) order."""
    m, n = input_dim, hidden_dim
    if kind == "simple":
        return {"W": (n, m), "U": (n, n), "b": (n,)}
    if kind == "indrnn":
        return {"W": (n, m), "u": (n,), "b": (n,)}
    if kind in _GATES:
        return {
            f"{prefix}_{g}": shape
            for prefix, shape in (("W", (n, m)), ("U", (n, n)), ("b", (n,)))
            for g in _GATES[kind]
        }
    raise InvalidArgumentError(f"unknown cell kind {kind!r}")


@dataclass
class CellParams:
    """One recurrent layer's weights."""

    kind: str
    input_dim: int
    hidden_dim: int
    blocks: dict[str, np.ndarray]
    literal_forms: bool = False

    def __post_init__(self) -> None:
        expected = block_shapes(self.kind, self.input_dim, self.hidden_dim)
        if set(self.blocks) != set(expected):
            raise InvalidArgumentError(
                f"{self.kind} cell expects blocks {sorted(expected)}, got {sorted(self.blocks)}"
            )
        for name, shape in expected.items():
            arr = self.blocks[name]
            if arr.shape != shape:
                raise InvalidArgumentError(f"block {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise InvalidArgumentError(f"block {name} contains non-finite values")

    @classmethod
    def init(
        cls,
        kind: str,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        literal_forms: bool = False,
    ) -> "CellParams":
        """Uniform(-s, s) matrices with s = sqrt(6 / (fan_in + fan_out));
        the elementwise recurrent vector draws from [0, 1], biases start at 0."""
        blocks: dict[str, np.ndarray] = {}
        for name, shape in block_shapes(kind, input_dim, hidden_dim).items():
            if name == "u":
                blocks[name] = rng.uniform(0.0, 1.0, shape)
            elif len(shape) == 1:
                blocks[name] = np.zeros(shape)
            else:
                fan_out, fan_in = shape
                s = math.sqrt(6.0 / (fan_in + fan_out))
                blocks[name] = rng.uniform(-s, s, shape)
        return cls(kind, input_dim, hidden_dim, blocks, literal_forms)

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.blocks.items()}


def _check_seq(p: CellParams, xs: np.ndarray) -> None:
    if xs.ndim != 3 or xs.shape[2] != p.input_dim:
        raise InvalidArgumentError(
            f"expected inputs (T, B, {p.input_dim}), got {xs.shape}"
        )


def _init_hidden(p: CellParams, xs: np.ndarray, h0: np.ndarray | None) -> np.ndarray:
    b = xs.shape[1]
    if h0 is None:
        return np.zeros((b, p.hidden_dim))
    h0 = np.asarray(h0, dtype=np.float64)
    if h0.shape != (b, p.hidden_dim):
        raise InvalidArgumentError(f"h0 must have shape ({b}, {p.hidden_dim}), got {h0.shape}")
    return h0


def _stacked(p: CellParams) -> list[np.ndarray]:
    """``W``, ``U`` and ``b`` of a gated cell: per-gate blocks concatenated in gate order."""
    gates = _GATES[p.kind]
    return [np.concatenate([p.blocks[f"{prefix}_{g}"] for g in gates]) for prefix in "WUb"]


def _split(p: CellParams, **stacked: np.ndarray) -> dict[str, np.ndarray]:
    """Per-gate views of a gated cell's stacked gradients, keyed by block name."""
    n = p.hidden_dim
    return {
        f"{prefix}_{g}": arr[k * n : (k + 1) * n]
        for prefix, arr in stacked.items()
        for k, g in enumerate(_GATES[p.kind])
    }


def _gate_views(a: np.ndarray, n: int) -> list[np.ndarray]:
    """Per-gate (B, N) views of a (B, G·N) stacked row."""
    return [a[:, k * n : (k + 1) * n] for k in range(a.shape[1] // n)]


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def forward(
    p: CellParams,
    xs: np.ndarray,
    h0: np.ndarray | None = None,
    q0: np.ndarray | None = None,
    rec_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Run one layer over a (T, B, M) batch of sequences.

    Returns the (T, B, N) hidden sequence and a cache holding everything the
    matching backward pass needs.
    """
    _check_seq(p, xs)
    if p.kind == "simple":
        return _simple_forward(p, xs, h0, rec_mask)
    if p.kind == "indrnn":
        return _indrnn_forward(p, xs, h0, rec_mask)
    if p.kind == "lstm":
        return _lstm_forward(p, xs, h0, q0, rec_mask)
    return _gru_forward(p, xs, h0, rec_mask)


def _simple_forward(p, xs, h0, rec_mask):
    W, U, b = p.blocks["W"], p.blocks["U"], p.blocks["b"]
    t_len, batch, _ = xs.shape
    hs = np.zeros((t_len, batch, p.hidden_dim))
    hds = np.zeros_like(hs)  # dropped previous hidden per step
    h_prev = _init_hidden(p, xs, h0)
    for t in range(t_len):
        hd = h_prev if rec_mask is None else h_prev * rec_mask
        hds[t] = hd
        sigmoid(xs[t] @ W.T + hd @ U.T + b, out=hs[t])
        h_prev = hs[t]
    cache = {"xs": xs, "hs": hs, "hds": hds, "rec_mask": rec_mask}
    return hs, cache


def _indrnn_forward(p, xs, h0, rec_mask):
    W, u, b = p.blocks["W"], p.blocks["u"], p.blocks["b"]
    t_len, batch, _ = xs.shape
    hs = np.zeros((t_len, batch, p.hidden_dim))
    ss = np.zeros_like(hs)  # activation outputs (pre-bias in literal mode)
    hds = np.zeros_like(hs)
    h_prev = _init_hidden(p, xs, h0)
    for t in range(t_len):
        hd = h_prev if rec_mask is None else h_prev * rec_mask
        hds[t] = hd
        pre = xs[t] @ W.T + hd * u
        if p.literal_forms:
            sigmoid(pre, out=ss[t])
            np.add(ss[t], b, out=hs[t])
        else:
            pre += b
            sigmoid(pre, out=ss[t])
            hs[t] = ss[t]
        h_prev = hs[t]
    cache = {"xs": xs, "hs": hs, "ss": ss, "hds": hds, "rec_mask": rec_mask}
    return hs, cache


def _lstm_forward(p, xs, h0, q0, rec_mask):
    W, U, b = _stacked(p)
    t_len, batch, _ = xs.shape
    n = p.hidden_dim
    acts = np.empty((t_len, batch, 4 * n))  # gate activations f|i|g|o
    hs, qs, tqs, hds = (np.empty((t_len, batch, n)) for _ in range(4))
    h0 = _init_hidden(p, xs, h0)
    q0 = np.zeros((batch, n)) if q0 is None else np.asarray(q0, dtype=np.float64)
    for t in range(t_len):
        h_prev = hs[t - 1] if t else h0
        hds[t] = h_prev if rec_mask is None else h_prev * rec_mask
        a = np.matmul(xs[t], W.T, out=acts[t])
        a += hds[t] @ U.T
        a += b
        f, i, g, o = _gate_views(a, n)
        np.tanh(g, out=g)
        for gate in (f, i, o):
            sigmoid(gate, out=gate)
        q = np.multiply(f, qs[t - 1] if t else q0, out=qs[t])
        q += i * g
        np.tanh(q, out=tqs[t])
        np.multiply(o, tqs[t], out=hs[t])
    return hs, {
        "xs": xs, "hs": hs, "hds": hds, "acts": acts,
        "qs": qs, "tqs": tqs, "q0": q0, "rec_mask": rec_mask,
    }


def _gru_forward(p, xs, h0, rec_mask):
    W, U, b = _stacked(p)
    t_len, batch, _ = xs.shape
    n = p.hidden_dim
    U_zr, U_h = U[: 2 * n], U[2 * n :]
    acts = np.empty((t_len, batch, 3 * n))  # z|r gates, then the candidate
    hs, hds, rhds = (np.empty((t_len, batch, n)) for _ in range(3))
    h0 = _init_hidden(p, xs, h0)
    for t in range(t_len):
        h_prev = hs[t - 1] if t else h0
        hds[t] = h_prev if rec_mask is None else h_prev * rec_mask
        a = np.matmul(xs[t], W.T, out=acts[t])
        a += b
        zr = a[:, : 2 * n]
        zr += hds[t] @ U_zr.T
        sigmoid(zr, out=zr)
        z, r, c = _gate_views(a, n)
        np.multiply(r, hds[t], out=rhds[t])
        c += rhds[t] @ U_h.T
        (sigmoid if p.literal_forms else np.tanh)(c, out=c)
        # interpolation carries the undropped previous hidden state
        hs[t] = (1.0 - z) * h_prev + z * c
    return hs, {
        "xs": xs, "hs": hs, "hds": hds, "rhds": rhds, "acts": acts,
        "h0": h0, "rec_mask": rec_mask,
    }


# ---------------------------------------------------------------------------
# Backward passes
# ---------------------------------------------------------------------------


def backward(p: CellParams, cache: dict, d_hs: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backpropagate-through-time one layer.

    ``d_hs`` is the upstream gradient on every hidden output (T, B, N).
    Returns the gradient on the layer's input sequence and per-block weight
    gradients (summed over batch and time, no regularization).
    """
    if p.kind == "simple":
        return _simple_backward(p, cache, d_hs)
    if p.kind == "indrnn":
        return _indrnn_backward(p, cache, d_hs)
    if p.kind == "lstm":
        return _lstm_backward(p, cache, d_hs)
    return _gru_backward(p, cache, d_hs)


def _mask_or_one(cache) -> np.ndarray | float:
    return 1.0 if cache["rec_mask"] is None else cache["rec_mask"]


def _simple_backward(p, cache, d_hs):
    W, U = p.blocks["W"], p.blocks["U"]
    xs, hs, hds = cache["xs"], cache["hs"], cache["hds"]
    mask = _mask_or_one(cache)
    grads = p.zero_grads()
    d_xs = np.zeros_like(xs)
    carry = np.zeros((xs.shape[1], p.hidden_dim))
    for t in range(xs.shape[0] - 1, -1, -1):
        dh = d_hs[t] + carry
        dpre = dh * hs[t] * (1.0 - hs[t])
        grads["W"] += dpre.T @ xs[t]
        grads["U"] += dpre.T @ hds[t]
        grads["b"] += dpre.sum(axis=0)
        d_xs[t] = dpre @ W
        carry = (dpre @ U) * mask
    return d_xs, grads


def _indrnn_backward(p, cache, d_hs):
    W, u = p.blocks["W"], p.blocks["u"]
    xs, ss, hds = cache["xs"], cache["ss"], cache["hds"]
    mask = _mask_or_one(cache)
    grads = p.zero_grads()
    d_xs = np.zeros_like(xs)
    carry = np.zeros((xs.shape[1], p.hidden_dim))
    for t in range(xs.shape[0] - 1, -1, -1):
        dh = d_hs[t] + carry
        if p.literal_forms:
            grads["b"] += dh.sum(axis=0)
            dpre = dh * ss[t] * (1.0 - ss[t])
        else:
            dpre = dh * ss[t] * (1.0 - ss[t])
            grads["b"] += dpre.sum(axis=0)
        grads["W"] += dpre.T @ xs[t]
        grads["u"] += (dpre * hds[t]).sum(axis=0)
        d_xs[t] = dpre @ W
        carry = dpre * u * mask
    return d_xs, grads


def _lstm_backward(p, cache, d_hs):
    W, U, _ = _stacked(p)
    xs, hds, acts = cache["xs"], cache["hds"], cache["acts"]
    qs, tqs = cache["qs"], cache["tqs"]
    mask = _mask_or_one(cache)
    n = p.hidden_dim
    dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros(4 * n)
    d_xs = np.empty(xs.shape)
    da = np.empty((xs.shape[1], 4 * n))  # pre-activation gradient f|i|g|o
    daf, dai, dag, dao = _gate_views(da, n)
    carry_h = carry_q = 0.0
    for t in range(xs.shape[0] - 1, -1, -1):
        f, i, g, o = (np.ascontiguousarray(v) for v in _gate_views(acts[t], n))
        tq = tqs[t]
        dh = d_hs[t] + carry_h
        dq = carry_q + dh * o * (1.0 - tq * tq)
        np.multiply(dh * tq, o * (1.0 - o), out=dao)
        np.multiply(dq * (qs[t - 1] if t else cache["q0"]), f * (1.0 - f), out=daf)
        np.multiply(dq * g, i * (1.0 - i), out=dai)
        np.multiply(dq * i, 1.0 - g * g, out=dag)
        carry_q = dq * f

        dW += da.T @ xs[t]
        dU += da.T @ hds[t]
        db += da.sum(axis=0)
        np.matmul(da, W, out=d_xs[t])
        carry_h = (da @ U) * mask
    return d_xs, _split(p, W=dW, U=dU, b=db)


def _gru_backward(p, cache, d_hs):
    W, U, _ = _stacked(p)
    xs, hs, hds, rhds, acts = (cache[k] for k in ("xs", "hs", "hds", "rhds", "acts"))
    mask = _mask_or_one(cache)
    n = p.hidden_dim
    dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros(3 * n)
    d_xs = np.empty(xs.shape)
    da = np.empty((xs.shape[1], 3 * n))  # pre-activation gradient z|r|h
    daz, dar, dac = _gate_views(da, n)
    da_zr = da[:, : 2 * n]
    carry = 0.0
    for t in range(xs.shape[0] - 1, -1, -1):
        z, r, c = (np.ascontiguousarray(v) for v in _gate_views(acts[t], n))
        dh = d_hs[t] + carry
        np.multiply(dh * (c - (hs[t - 1] if t else cache["h0"])), z * (1.0 - z), out=daz)
        np.multiply(dh * z, c * (1.0 - c) if p.literal_forms else 1.0 - c * c, out=dac)
        d_rhd = dac @ U[2 * n :]
        np.multiply(d_rhd * hds[t], r * (1.0 - r), out=dar)
        dhd = d_rhd * r + da_zr @ U[: 2 * n]

        dW += da.T @ xs[t]
        dU[: 2 * n] += da_zr.T @ hds[t]
        dU[2 * n :] += dac.T @ rhds[t]
        db += da.sum(axis=0)
        np.matmul(da, W, out=d_xs[t])
        carry = dh * (1.0 - z) + dhd * mask
    return d_xs, _split(p, W=dW, U=dU, b=db)


# ---------------------------------------------------------------------------
# Single-sequence convenience wrappers
# ---------------------------------------------------------------------------


def _wrap_single(p, xs, h0):
    xs = np.asarray(xs, dtype=np.float64)
    single = xs.ndim == 2
    if single:
        xs = xs[:, None, :]
        if h0 is not None:
            h0 = np.asarray(h0, dtype=np.float64)[None, :]
    return xs, h0, single


def indrnn_forward(p: CellParams, xs: np.ndarray, h0: np.ndarray | None = None) -> np.ndarray:
    """Hidden sequence of the independently recurrent cell; accepts (T, M) or (T, B, M)."""
    if p.kind != "indrnn":
        raise InvalidArgumentError(f"expected an indrnn cell, got {p.kind}")
    xs, h0, single = _wrap_single(p, xs, h0)
    hs, _ = forward(p, xs, h0=h0)
    return hs[:, 0, :] if single else hs


def lstm_forward(
    p: CellParams, xs: np.ndarray, h0: np.ndarray | None = None, q0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(hidden sequence, cell-state sequence); accepts (T, M) or (T, B, M)."""
    if p.kind != "lstm":
        raise InvalidArgumentError(f"expected an lstm cell, got {p.kind}")
    xs, h0, single = _wrap_single(p, xs, h0)
    if q0 is not None and single:
        q0 = np.asarray(q0, dtype=np.float64)[None, :]
    hs, cache = forward(p, xs, h0=h0, q0=q0)
    qs = cache["qs"]
    return (hs[:, 0, :], qs[:, 0, :]) if single else (hs, qs)


def gru_forward(p: CellParams, xs: np.ndarray, h0: np.ndarray | None = None) -> np.ndarray:
    """Hidden sequence of the gated-update cell; accepts (T, M) or (T, B, M)."""
    if p.kind != "gru":
        raise InvalidArgumentError(f"expected a gru cell, got {p.kind}")
    xs, h0, single = _wrap_single(p, xs, h0)
    hs, _ = forward(p, xs, h0=h0)
    return hs[:, 0, :] if single else hs
