"""Recurrent cells in plain numpy: forward passes and exact backward passes.

Four cell kinds share one parameter container and one batched sequence
interface: inputs are (T, B, M) arrays, hidden sequences (T, B, N) and
initial states (B, N). The independently-recurrent cell couples each
hidden unit only to itself through an elementwise recurrent vector; the
simple cell uses a full recurrent matrix; the gated cells follow their
standard gate algebra with a sigmoid-gated forget/input/output (and tanh
candidates).

Layout. All four cells compute feature-major: a step's pre-activations
are ``W @ x_tᵀ + U @ h`` with states shaped (N, B), written into row t of
a (T, G·N, B) buffer, so each of the G gates is one contiguous (N, B)
block (G = 1 for the simple and independently recurrent cells; the LSTM
stacks f,i,g,o and the GRU z,r,h). The activations are applied in place
on that buffer, which is the backward cache; previous states are the
cached sequences shifted by one step, and backward recomputes the dropped
previous state ``h * mask`` (and the GRU's ``r * h``) instead of caching
it. The public shapes are unchanged: the (T, B, N) outputs and the
(T, B, M) input gradients are transposed views of (T, N, B) and (T, M, B)
arrays, and ``d_hs`` may be either kind of (T, B, N) array.

The gated cells store one block per gate (``W_f``, ``U_f``, ``b_f``, ...)
and concatenate them in gate order at call time into ``W`` (G·N × M),
``U`` (G·N × N) and ``b`` (G·N). The GRU applies ``U_z|U_r`` to h and
``U_h`` apart, to ``r * h``. Per-gate weight gradients are views of the
stacked sums; bias gradients are sums over the contiguous gate rows.

Workspace. ``forward`` and ``backward`` take an optional ``ws``: one
layer's dict of flat float64 buffers (see ``workspace_array``). A buffer
grows to the largest request it sees and serves every smaller one as a
C-contiguous prefix view, so a training run that passes the same dicts on
every step allocates its caches once instead of faulting fresh pages in
on each step. The next call with the same dict overwrites its buffers, so
outputs, caches and input gradients stay valid only until then. Without
``ws`` every array is a fresh ``np.empty``; the arithmetic is the same.

``literal_forms`` switches two alternate formulations: the independently
recurrent cell adds its bias outside the activation instead of inside,
and the gated-update candidate uses a sigmoid instead of tanh.

Recurrent dropout is a per-sequence multiplicative (B, N) mask on the
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


def workspace_array(
    ws: dict[str, np.ndarray] | None, name: str, shape: tuple[int, ...]
) -> np.ndarray:
    """An uninitialized float64 array of ``shape``.

    Without a workspace it is a fresh ``np.empty``. With one, it is a
    C-contiguous prefix view of the flat buffer ``ws[name]``, which is
    (re)allocated only when a request is larger than any before it.
    """
    if ws is None:
        return np.empty(shape)
    size = math.prod(shape)
    flat = ws.get(name)
    if flat is None or flat.size < size:
        flat = ws[name] = np.empty(size)
    return flat[:size].reshape(shape)


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


def _initial_state(p: CellParams, batch: int, s0: np.ndarray | None, name: str) -> np.ndarray:
    """The (N, B) initial state: zeros, or the transpose of a given (B, N) ``s0``."""
    if s0 is None:
        return np.zeros((p.hidden_dim, batch))
    s0 = np.asarray(s0, dtype=np.float64)
    if s0.shape != (batch, p.hidden_dim):
        raise InvalidArgumentError(
            f"{name} must have shape ({batch}, {p.hidden_dim}), got {s0.shape}"
        )
    return np.ascontiguousarray(s0.T)


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


def _dropped(h: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return h if mask is None else h * mask


def _prev(cache: dict, state: str, t: int) -> np.ndarray:
    """The (N, B) state ``state`` ("h" or "q") entering step t."""
    return cache[f"{state}s"][t - 1] if t else cache[f"{state}0"]


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def forward(
    p: CellParams,
    xs: np.ndarray,
    h0: np.ndarray | None = None,
    q0: np.ndarray | None = None,
    rec_mask: np.ndarray | None = None,
    ws: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, dict]:
    """Run one layer over a (T, B, M) batch of sequences.

    Returns the (T, B, N) hidden sequence and a cache holding everything the
    matching backward pass needs. ``ws`` is this layer's workspace dict, if
    any; the output and the cache then live in its buffers.
    """
    if xs.ndim != 3 or xs.shape[2] != p.input_dim:
        raise InvalidArgumentError(f"expected inputs (T, B, {p.input_dim}), got {xs.shape}")
    batch = xs.shape[1]
    cache = {
        "xs": xs,
        "h0": _initial_state(p, batch, h0, "h0"),
        "mask": None if rec_mask is None else np.ascontiguousarray(rec_mask.T),
    }
    if p.kind == "lstm":
        cache["q0"] = _initial_state(p, batch, q0, "q0")
    _FORWARD[p.kind](p, cache, ws)
    return cache["hs"].transpose(0, 2, 1), cache


def _simple_forward(p, cache, ws):
    W, U, b = p.blocks["W"], p.blocks["U"], p.blocks["b"][:, None]
    xs, mask = cache["xs"], cache["mask"]
    hs = workspace_array(ws, "hs", (xs.shape[0], p.hidden_dim, xs.shape[1]))
    h_prev = cache["h0"]
    for t in range(xs.shape[0]):
        h = np.matmul(W, xs[t].T, out=hs[t])
        h += U @ _dropped(h_prev, mask)
        h += b
        h_prev = sigmoid(h, out=h)
    cache["hs"] = hs


def _indrnn_forward(p, cache, ws):
    W, u, b = p.blocks["W"], p.blocks["u"][:, None], p.blocks["b"][:, None]
    xs, mask = cache["xs"], cache["mask"]
    shape = (xs.shape[0], p.hidden_dim, xs.shape[1])
    hs = workspace_array(ws, "hs", shape)
    # activation outputs: the hidden states, or apart from them in literal mode
    ss = workspace_array(ws, "ss", shape) if p.literal_forms else hs
    h_prev = cache["h0"]
    for t in range(xs.shape[0]):
        s = np.matmul(W, xs[t].T, out=ss[t])
        s += _dropped(h_prev, mask) * u
        if p.literal_forms:
            sigmoid(s, out=s)
            h_prev = np.add(s, b, out=hs[t])
        else:
            s += b
            h_prev = sigmoid(s, out=s)
    cache.update(hs=hs, ss=ss)


def _lstm_forward(p, cache, ws):
    W, U, b = _stacked(p)
    xs, mask = cache["xs"], cache["mask"]
    t_len, batch, _ = xs.shape
    n = p.hidden_dim
    acts = workspace_array(ws, "acts", (t_len, 4 * n, batch))  # gate activations f|i|g|o
    hs, qs, tqs = (workspace_array(ws, name, (t_len, n, batch)) for name in ("hs", "qs", "tqs"))
    rec = workspace_array(ws, "rec", (4 * n, batch))
    b = b[:, None]
    h_prev, q_prev = cache["h0"], cache["q0"]
    for t in range(t_len):
        a = np.matmul(W, xs[t].T, out=acts[t])
        a += np.matmul(U, _dropped(h_prev, mask), out=rec)
        a += b
        f, i, g, o = a.reshape(4, n, batch)
        sigmoid(a[: 2 * n], out=a[: 2 * n])  # f and i
        np.tanh(g, out=g)
        sigmoid(o, out=o)
        q_prev = np.multiply(f, q_prev, out=qs[t])
        q_prev += i * g
        np.tanh(q_prev, out=tqs[t])
        h_prev = np.multiply(o, tqs[t], out=hs[t])
    cache.update(acts=acts, hs=hs, qs=qs, tqs=tqs)


def _gru_forward(p, cache, ws):
    W, U, b = _stacked(p)
    xs, mask = cache["xs"], cache["mask"]
    t_len, batch, _ = xs.shape
    n = p.hidden_dim
    U_zr, U_h = U[: 2 * n], U[2 * n :]
    acts = workspace_array(ws, "acts", (t_len, 3 * n, batch))  # z|r gates, then the candidate
    hs = workspace_array(ws, "hs", (t_len, n, batch))
    rec = workspace_array(ws, "rec", (2 * n, batch))
    b = b[:, None]
    h_prev = cache["h0"]
    for t in range(t_len):
        hd = _dropped(h_prev, mask)
        a = np.matmul(W, xs[t].T, out=acts[t])
        a += b
        zr = a[: 2 * n]
        zr += np.matmul(U_zr, hd, out=rec)
        sigmoid(zr, out=zr)
        z, r, c = a.reshape(3, n, batch)
        c += np.matmul(U_h, r * hd, out=rec[:n])
        (sigmoid if p.literal_forms else np.tanh)(c, out=c)
        # interpolation h_prev + z * (c - h_prev) carries the undropped state
        h = np.subtract(c, h_prev, out=hs[t])
        h *= z
        h_prev = np.add(h, h_prev, out=h)
    cache.update(acts=acts, hs=hs)


_FORWARD = {
    "simple": _simple_forward,
    "indrnn": _indrnn_forward,
    "lstm": _lstm_forward,
    "gru": _gru_forward,
}


# ---------------------------------------------------------------------------
# Backward passes
# ---------------------------------------------------------------------------


def backward(
    p: CellParams,
    cache: dict,
    d_hs: np.ndarray,
    ws: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backpropagate-through-time one layer.

    ``d_hs`` is the upstream gradient on every hidden output (T, B, N).
    Returns the gradient on the layer's input sequence (T, B, M) and
    per-block weight gradients (summed over batch and time, no
    regularization). With ``ws``, the layer's workspace dict, the input
    gradient lives in its buffers; pass the dict the forward used.
    """
    # no copy when d_hs is a transposed view of a feature-major array
    dhs = np.ascontiguousarray(np.asarray(d_hs, dtype=np.float64).transpose(0, 2, 1))
    xs = cache["xs"]
    d_xs = workspace_array(ws, "d_xs", (xs.shape[0], p.input_dim, xs.shape[1]))
    grads = _BACKWARD[p.kind](p, cache, dhs, d_xs, ws)
    return d_xs.transpose(0, 2, 1), grads


def _simple_backward(p, cache, dhs, d_xs, ws):
    W, U = p.blocks["W"], p.blocks["U"]
    xs, hs, mask = cache["xs"], cache["hs"], cache["mask"]
    grads = p.zero_grads()
    carry = 0.0
    for t in range(xs.shape[0] - 1, -1, -1):
        dh = dhs[t] + carry
        dpre = dh * hs[t] * (1.0 - hs[t])
        grads["W"] += dpre @ xs[t]
        grads["U"] += dpre @ _dropped(_prev(cache, "h", t), mask).T
        grads["b"] += dpre.sum(axis=1)
        np.matmul(W.T, dpre, out=d_xs[t])
        carry = _dropped(U.T @ dpre, mask)
    return grads


def _indrnn_backward(p, cache, dhs, d_xs, ws):
    W, u = p.blocks["W"], p.blocks["u"][:, None]
    xs, ss, mask = cache["xs"], cache["ss"], cache["mask"]
    grads = p.zero_grads()
    carry = 0.0
    for t in range(xs.shape[0] - 1, -1, -1):
        dh = dhs[t] + carry
        if p.literal_forms:
            grads["b"] += dh.sum(axis=1)
            dpre = dh * ss[t] * (1.0 - ss[t])
        else:
            dpre = dh * ss[t] * (1.0 - ss[t])
            grads["b"] += dpre.sum(axis=1)
        grads["W"] += dpre @ xs[t]
        grads["u"] += (dpre * _dropped(_prev(cache, "h", t), mask)).sum(axis=1)
        np.matmul(W.T, dpre, out=d_xs[t])
        carry = _dropped(dpre * u, mask)
    return grads


def _lstm_backward(p, cache, dhs, d_xs, ws):
    W, U, _ = _stacked(p)
    xs, acts, tqs, mask = cache["xs"], cache["acts"], cache["tqs"], cache["mask"]
    batch, n = xs.shape[1], p.hidden_dim
    dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros(4 * n)
    da = workspace_array(ws, "da", (4 * n, batch))  # pre-activation gradient f|i|g|o
    daf, dai, dag, dao = da.reshape(4, n, batch)
    carry_h = carry_q = 0.0
    for t in range(xs.shape[0] - 1, -1, -1):
        f, i, g, o = acts[t].reshape(4, n, batch)
        tq = tqs[t]
        dh = dhs[t] + carry_h
        dq = carry_q + dh * o * (1.0 - tq * tq)
        np.multiply(dh * tq, o * (1.0 - o), out=dao)
        np.multiply(dq * _prev(cache, "q", t), f * (1.0 - f), out=daf)
        np.multiply(dq * g, i * (1.0 - i), out=dai)
        np.multiply(dq * i, 1.0 - g * g, out=dag)
        carry_q = dq * f

        dW += da @ xs[t]
        dU += da @ _dropped(_prev(cache, "h", t), mask).T
        db += da.sum(axis=1)
        np.matmul(W.T, da, out=d_xs[t])
        carry_h = _dropped(U.T @ da, mask)
    return _split(p, W=dW, U=dU, b=db)


def _gru_backward(p, cache, dhs, d_xs, ws):
    W, U, _ = _stacked(p)
    xs, acts, mask = cache["xs"], cache["acts"], cache["mask"]
    batch, n = xs.shape[1], p.hidden_dim
    U_zr, U_h = U[: 2 * n], U[2 * n :]
    dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros(3 * n)
    da = workspace_array(ws, "da", (3 * n, batch))  # pre-activation gradient z|r|h
    daz, dar, dac = da.reshape(3, n, batch)
    da_zr = da[: 2 * n]
    carry = 0.0
    for t in range(xs.shape[0] - 1, -1, -1):
        z, r, c = acts[t].reshape(3, n, batch)
        h_prev = _prev(cache, "h", t)
        hd = _dropped(h_prev, mask)
        dh = dhs[t] + carry
        np.multiply(dh * (c - h_prev), z * (1.0 - z), out=daz)
        np.multiply(dh * z, c * (1.0 - c) if p.literal_forms else 1.0 - c * c, out=dac)
        d_rhd = U_h.T @ dac
        np.multiply(d_rhd * hd, r * (1.0 - r), out=dar)
        dhd = d_rhd * r + U_zr.T @ da_zr

        dW += da @ xs[t]
        dU[: 2 * n] += da_zr @ hd.T
        dU[2 * n :] += dac @ (r * hd).T
        db += da.sum(axis=1)
        np.matmul(W.T, da, out=d_xs[t])
        carry = dh * (1.0 - z) + _dropped(dhd, mask)
    return _split(p, W=dW, U=dU, b=db)


_BACKWARD = {
    "simple": _simple_backward,
    "indrnn": _indrnn_backward,
    "lstm": _lstm_backward,
    "gru": _gru_backward,
}


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
    qs = cache["qs"].transpose(0, 2, 1)
    return (hs[:, 0, :], qs[:, 0, :]) if single else (hs, qs)


def gru_forward(p: CellParams, xs: np.ndarray, h0: np.ndarray | None = None) -> np.ndarray:
    """Hidden sequence of the gated-update cell; accepts (T, M) or (T, B, M)."""
    if p.kind != "gru":
        raise InvalidArgumentError(f"expected a gru cell, got {p.kind}")
    xs, h0, single = _wrap_single(p, xs, h0)
    hs, _ = forward(p, xs, h0=h0)
    return hs[:, 0, :] if single else hs
