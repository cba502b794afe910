"""Recurrent cells in plain numpy: forward passes and exact backward passes.

Three cell kinds share one parameter container and one batched sequence
interface: inputs are (T, B, M) sequences, hidden sequences (T, B, N) and
initial states (B, N). An input is an array or a step source
(``dataset.Steps``): the kernels read only its ``shape`` and each (B, M)
step ``xs[t]`` right after indexing it, so a source may fill one buffer
per step. Each kind has one formulation. The independently-recurrent cell
couples each hidden unit only to itself through an elementwise recurrent
vector, ``h_t = sigmoid(W x_t + u * h_{t-1} + b)``; the gated cells follow
their standard gate algebra with a sigmoid-gated forget/input/output (and
tanh candidates).

Layout. All three cells compute feature-major: a step's pre-activations
are ``W @ x_tᵀ + U @ h`` with states shaped (N, B), written into row t of
a (T, G·N, B) buffer, so each of the G gates is one contiguous (N, B)
block (G = 1 for the independently recurrent cell; the LSTM
stacks f,i,g,o and the GRU z,r,h). The activations are applied in place
on that buffer, which is the backward cache; previous states are the
cached sequences shifted by one step, and backward recomputes the dropped
previous state ``h * mask`` (and the GRU's ``r * h``) instead of caching
it. The public shapes are unchanged: the (T, B, N) outputs and the
(T, B, M) input gradients are transposed views of (T, N, B) and (T, M, B)
arrays, and ``d_hs`` may be either kind of (T, B, N) array, or the
(B, N) gradient on the final step alone.

Storage. A layer's parameters are one flat float64 vector, laid out as
the stacked ``W`` (G·N × M), ``U`` (G·N × N; the independently recurrent
cell's (N,) ``u``) and ``b`` (G·N), gates in order, and its gradient is a
twin vector of the same layout. The kernels compute with the stacked
views and backward accumulates straight into the gradient's views; the
per-gate blocks (``W_f``, ``U_z``, ...) are views of the same memory that
exist only for checkpoints and tests. The GRU applies ``U_z|U_r`` to h and
``U_h`` apart, to ``r * h``.

Workspace. ``forward`` and ``backward`` take an optional ``ws``: one
layer's dict of flat float64 buffers (see ``workspace_array``). A buffer
grows to the largest request it sees and serves every smaller one as a
C-contiguous prefix view, so a training run that passes the same dicts on
every step allocates its caches once instead of faulting fresh pages in
on each step. The next call with the same dict overwrites its buffers, so
outputs, caches and input gradients stay valid only until then. Without
``ws`` every array is a fresh ``np.empty``; the arithmetic is the same.

Recurrent dropout is a per-sequence multiplicative (B, N) mask on the
hidden-to-hidden path (the direct carry path of the gated-update cell is
left undropped); passing ``rec_mask=None`` disables it.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import CELL_KINDS, checked_value  # CELL_KINDS re-exported for callers
from ..errors import InvalidArgumentError

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
    """Per-gate parameter block names and shapes, in canonical order.

    The blocks tile a layer's flat parameter vector in this order, which is
    also the order their initial values are drawn in.
    """
    m, n = input_dim, hidden_dim
    if checked_value("cell", kind) == "indrnn":
        return {"W": (n, m), "u": (n,), "b": (n,)}
    return {
        f"{prefix}_{g}": shape
        for prefix, shape in (("W", (n, m)), ("U", (n, n)), ("b", (n,)))
        for g in _GATES[kind]
    }


def param_size(kind: str, input_dim: int, hidden_dim: int) -> int:
    """Length of a layer's flat parameter vector."""
    return sum(math.prod(shape) for shape in block_shapes(kind, input_dim, hidden_dim).values())


def carve(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one per shape, from its start."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


def _flat_buffer(arr: np.ndarray | None, size: int, name: str) -> np.ndarray:
    if arr is None:
        return np.zeros(size)
    if arr.shape != (size,) or arr.dtype != np.float64:
        raise InvalidArgumentError(
            f"{name} must be a float64 vector of length {size}, got {arr.dtype} {arr.shape}"
        )
    return arr


class CellParams:
    """One recurrent layer's weights and their gradient.

    ``theta`` is the layer's flat float64 parameter vector and ``grad`` its
    twin; both are fresh zeros unless given, as a model gives views of its
    own two vectors. Everything else is a view of one of the two:

    - ``W`` (G·N × M), ``U`` (G·N × N) and ``b`` (G·N): the stacked blocks
      the kernels compute with, gates in order; the independently recurrent
      cell's ``U`` is its (N,) recurrent vector ``u``;
    - ``dW``, ``dU`` and ``db``: the same views of ``grad``;
    - ``blocks`` and ``grads``: the per-gate blocks of ``block_shapes``
      (``W_f``, ``U_z``, ...), keyed by name, for checkpoints and tests.
    """

    def __init__(
        self,
        kind: str,
        input_dim: int,
        hidden_dim: int,
        theta: np.ndarray | None = None,
        grad: np.ndarray | None = None,
    ) -> None:
        shapes = block_shapes(kind, input_dim, hidden_dim)
        size = param_size(kind, input_dim, hidden_dim)
        self.kind, self.input_dim, self.hidden_dim = kind, input_dim, hidden_dim
        self.theta = _flat_buffer(theta, size, "theta")
        self.grad = _flat_buffer(grad, size, "grad")
        self.blocks = dict(zip(shapes, carve(self.theta, shapes.values())))
        self.grads = dict(zip(shapes, carve(self.grad, shapes.values())))
        gn = hidden_dim * (len(_GATES[kind]) if kind in _GATES else 1)
        recurrent = (hidden_dim,) if kind == "indrnn" else (gn, hidden_dim)
        stacked = ((gn, input_dim), recurrent, (gn,))
        self.W, self.U, self.b = carve(self.theta, stacked)
        self.dW, self.dU, self.db = carve(self.grad, stacked)

    def initialize(self, rng: np.random.Generator) -> None:
        """Draw fresh weights in place, block by block in canonical order.

        Matrices are Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out)),
        taken per gate; the elementwise recurrent vector draws from [0, 1],
        biases start at 0.
        """
        for name, arr in self.blocks.items():
            if name == "u":
                arr[...] = rng.uniform(0.0, 1.0, arr.shape)
            elif arr.ndim == 1:
                arr[...] = 0.0
            else:
                fan_out, fan_in = arr.shape
                s = math.sqrt(6.0 / (fan_in + fan_out))
                arr[...] = rng.uniform(-s, s, arr.shape)


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


def _dropped(h: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return h if mask is None else h * mask


class _FinalStep:
    """An upstream gradient on a sequence's final step only, as (N, B) ``final``.

    Step ``t`` reads as ``final`` at the last step and as the scalar 0.0
    before it, so ``dhs[t] + carry`` adds what a zero step would add and
    no (T, N, B) buffer of zeros exists.
    """

    def __init__(self, final: np.ndarray, steps: int) -> None:
        self.final, self.last = final, steps - 1

    def __getitem__(self, t: int):
        return self.final if t == self.last else 0.0


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
    keep_gates: bool = True,
) -> tuple[np.ndarray, dict]:
    """Run one layer over a (T, B, M) batch of sequences, an array or a step source.

    Returns the (T, B, N) hidden sequence and a cache holding everything the
    matching backward pass needs. ``ws`` is this layer's workspace dict, if
    any; the output and the cache then live in its buffers.
    ``keep_gates=False`` is for a forward that no backward follows: the
    buffers of the gates and of the other per-step values a backward reads
    (the LSTM's cell states) then hold one step, which every step reuses,
    and the cache cannot be passed to ``backward``. The hidden sequence and
    the outputs are the same.
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
    _FORWARD[p.kind](p, cache, ws, xs.shape[0] if keep_gates else 1)
    return cache["hs"].transpose(0, 2, 1), cache


# Each kernel keeps ``gate_steps`` steps of its gate buffers, T or 1, and
# writes step t into row ``t % gate_steps`` of them.


def _forward_indrnn(p, cache, ws, gate_steps):
    W, u, b = p.W, p.U[:, None], p.b[:, None]
    xs, mask = cache["xs"], cache["mask"]
    hs = workspace_array(ws, "hs", (xs.shape[0], p.hidden_dim, xs.shape[1]))
    h_prev = cache["h0"]
    for t in range(xs.shape[0]):
        h = np.matmul(W, xs[t].T, out=hs[t])
        h += _dropped(h_prev, mask) * u
        h += b
        h_prev = sigmoid(h, out=h)
    cache["hs"] = hs


def _forward_lstm(p, cache, ws, gate_steps):
    W, U, b = p.W, p.U, p.b[:, None]
    xs, mask = cache["xs"], cache["mask"]
    t_len, batch, _ = xs.shape
    n = p.hidden_dim
    acts = workspace_array(ws, "acts", (gate_steps, 4 * n, batch))  # gate activations f|i|g|o
    hs = workspace_array(ws, "hs", (t_len, n, batch))
    qs, tqs = (workspace_array(ws, name, (gate_steps, n, batch)) for name in ("qs", "tqs"))
    rec = workspace_array(ws, "rec", (4 * n, batch))
    h_prev, q_prev = cache["h0"], cache["q0"]
    for t in range(t_len):
        g_t = t % gate_steps
        a = np.matmul(W, xs[t].T, out=acts[g_t])
        a += np.matmul(U, _dropped(h_prev, mask), out=rec)
        a += b
        f, i, g, o = a.reshape(4, n, batch)
        sigmoid(a[: 2 * n], out=a[: 2 * n])  # f and i
        np.tanh(g, out=g)
        sigmoid(o, out=o)
        q_prev = np.multiply(f, q_prev, out=qs[g_t])
        q_prev += i * g
        np.tanh(q_prev, out=tqs[g_t])
        h_prev = np.multiply(o, tqs[g_t], out=hs[t])
    cache.update(acts=acts, hs=hs, qs=qs, tqs=tqs)


def _forward_gru(p, cache, ws, gate_steps):
    W, U, b = p.W, p.U, p.b[:, None]
    xs, mask = cache["xs"], cache["mask"]
    t_len, batch, _ = xs.shape
    n = p.hidden_dim
    U_zr, U_h = U[: 2 * n], U[2 * n :]
    acts = workspace_array(ws, "acts", (gate_steps, 3 * n, batch))  # z|r gates, then the candidate
    hs = workspace_array(ws, "hs", (t_len, n, batch))
    rec = workspace_array(ws, "rec", (2 * n, batch))
    h_prev = cache["h0"]
    for t in range(t_len):
        hd = _dropped(h_prev, mask)
        a = np.matmul(W, xs[t].T, out=acts[t % gate_steps])
        a += b
        zr = a[: 2 * n]
        zr += np.matmul(U_zr, hd, out=rec)
        sigmoid(zr, out=zr)
        z, r, c = a.reshape(3, n, batch)
        c += np.matmul(U_h, r * hd, out=rec[:n])
        np.tanh(c, out=c)
        # interpolation h_prev + z * (c - h_prev) carries the undropped state
        h = np.subtract(c, h_prev, out=hs[t])
        h *= z
        h_prev = np.add(h, h_prev, out=h)
    cache.update(acts=acts, hs=hs)


_FORWARD = {
    "indrnn": _forward_indrnn,
    "lstm": _forward_lstm,
    "gru": _forward_gru,
}


# ---------------------------------------------------------------------------
# Backward passes
# ---------------------------------------------------------------------------


def backward(
    p: CellParams,
    cache: dict,
    d_hs: np.ndarray,
    ws: dict[str, np.ndarray] | None = None,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backpropagate-through-time one layer.

    ``d_hs`` is the upstream gradient on every hidden output (T, B, N),
    or on the final one alone (B, N), as a model's top layer gets it.
    Returns the gradient on the layer's input sequence (T, B, M) and adds
    the weight gradient (summed over batch and time, no regularization) to
    ``p.grad``, so calls over consecutive parts of a batch accumulate the
    whole batch's; zero ``p.grad`` first for one call's own. With ``ws``,
    the layer's workspace dict, the input gradient lives in its buffers;
    pass the dict the forward used.
    ``input_grad=False`` skips the input gradient, one GEMM per step, and
    returns None: a model's first layer has no layer below to pass it to.
    """
    xs = cache["xs"]
    d_hs = np.asarray(d_hs, dtype=np.float64)
    if d_hs.ndim == 2:
        dhs = _FinalStep(np.ascontiguousarray(d_hs.T), xs.shape[0])
    else:
        # no copy when d_hs is a transposed view of a feature-major array
        dhs = np.ascontiguousarray(d_hs.transpose(0, 2, 1))
    d_xs = None
    if input_grad:
        d_xs = workspace_array(ws, "d_xs", (xs.shape[0], p.input_dim, xs.shape[1]))
    _BACKWARD[p.kind](p, cache, dhs, d_xs, ws)
    return None if d_xs is None else d_xs.transpose(0, 2, 1)


def _backward_indrnn(p, cache, dhs, d_xs, ws):
    W, u, dW, du, db = p.W, p.U[:, None], p.dW, p.dU, p.db
    xs, hs, mask = cache["xs"], cache["hs"], cache["mask"]
    carry = 0.0
    for t in range(xs.shape[0] - 1, -1, -1):
        dh = dhs[t] + carry
        dpre = dh * hs[t] * (1.0 - hs[t])
        db += dpre.sum(axis=1)
        dW += dpre @ xs[t]
        du += (dpre * _dropped(_prev(cache, "h", t), mask)).sum(axis=1)
        if d_xs is not None:
            np.matmul(W.T, dpre, out=d_xs[t])
        carry = _dropped(dpre * u, mask)


def _backward_lstm(p, cache, dhs, d_xs, ws):
    W, U, dW, dU, db = p.W, p.U, p.dW, p.dU, p.db
    xs, acts, tqs, mask = cache["xs"], cache["acts"], cache["tqs"], cache["mask"]
    batch, n = xs.shape[1], p.hidden_dim
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
        if d_xs is not None:
            np.matmul(W.T, da, out=d_xs[t])
        carry_h = _dropped(U.T @ da, mask)


def _backward_gru(p, cache, dhs, d_xs, ws):
    xs, acts, mask = cache["xs"], cache["acts"], cache["mask"]
    batch, n = xs.shape[1], p.hidden_dim
    W, U_zr, U_h = p.W, p.U[: 2 * n], p.U[2 * n :]
    dW, dU_zr, dU_h, db = p.dW, p.dU[: 2 * n], p.dU[2 * n :], p.db
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
        np.multiply(dh * z, 1.0 - c * c, out=dac)
        d_rhd = U_h.T @ dac
        np.multiply(d_rhd * hd, r * (1.0 - r), out=dar)
        dhd = d_rhd * r + U_zr.T @ da_zr

        dW += da @ xs[t]
        dU_zr += da_zr @ hd.T
        dU_h += dac @ (r * hd).T
        db += da.sum(axis=1)
        if d_xs is not None:
            np.matmul(W.T, da, out=d_xs[t])
        carry = dh * (1.0 - z) + _dropped(dhd, mask)


_BACKWARD = {
    "indrnn": _backward_indrnn,
    "lstm": _backward_lstm,
    "gru": _backward_gru,
}
