"""Small dense networks with explicit forward, reverse, and tangent passes.

The package trains by assembling gradients and curvature factors by hand, so
the network keeps its internals open: `forward(capture=True)` records the
per-layer inputs and `backward` records the pre-activation gradients, which
are exactly the two statistics the Kronecker-factored Fisher needs.  A
forward-mode `jvp_captured` provides Jacobian-vector products for the
capacity penalty, and `jvp_adjoint` differentiates a weighted squared JVP with
respect to the parameters (reverse over forward), which is the gradient
path of that penalty.

A captured forward pass, `forward(x, capture=True)`, is the one primal
loop of a training step.  It keeps each layer's input, pre-activation and
activation derivative f'(s, y), and the passes that require it read them
instead of running the layers again: `backward`, its pre-activation-only
route `backward_deltas` (what the Kronecker factors read), and
`jvp_captured`, the tangents of the captured batch, which is the only JVP.
Tangents come S per row, as an (S, B, in_dim) array: the primal values
belong to the B rows, and the tangent products run on the S*B (probe, row)
pairs.  `jvp_adjoint` sums a layer's primal-track adjoint over a row's S
probes before the product with the row's input, so no input row is copied
S times.  Identity layers hold no derivative array, and the passes skip
the products by their unit and zero derivatives, which would change no
bit.

A network holds its parameters as one flat float64 vector, `params`.  The
vector is the layers' augmented blocks [W | b], each of shape (out, in+1),
laid end to end row-major, so the total count is sum((in+1) * out).
`layer_blocks` is the one place that cuts a flat vector into those blocks:
the network reads its weights through block views into `params`, gradients
are written through block views into one flat vector of the same layout,
and the Kronecker-factored Fisher cuts its flat operands the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# explicit_jacobian refuses to materialize anything larger than this.
JACOBIAN_SIZE_GUARD = 10_000


def _sigmoid(s: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |s| in both directions
    return 0.5 * (1.0 + np.tanh(0.5 * s))


def _softplus_dd(s, y):
    p = _sigmoid(s)
    return p * (1.0 - p)


# name: (f(s), f'(s, y), f''(s, y)) at pre-activation s, where y = f(s) is the
# layer output the pass already holds.  Identity's scalar derivatives give the
# same bits as multiplying by arrays of ones and zeros.
_TABLE = {
    "identity": (lambda s: s, lambda s, y: 1.0, lambda s, y: 0.0),
    "tanh": (np.tanh, lambda s, y: 1.0 - y * y,
             lambda s, y: -2.0 * y * (1.0 - y * y)),
    "softplus": (lambda s: np.logaddexp(0.0, s), lambda s, y: _sigmoid(s),
                 _softplus_dd),
}
ACTIVATIONS = tuple(_TABLE)


def _fold(a: np.ndarray) -> np.ndarray:
    """An (S, B, w) array of per-(probe, row) values as (S*B, w) rows."""
    return a.reshape(-1, a.shape[-1])


def layer_blocks(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the 1-D contiguous vector `flat` as consecutive row-major
    blocks of the given (out, in+1) shapes; writes through them land in
    `flat`.  ValueError if `flat` does not hold exactly their entries."""
    sizes = [rows * cols for rows, cols in shapes]
    if flat.shape != (sum(sizes),):
        raise ValueError(f"flat vector has shape {flat.shape}, expected "
                         f"({sum(sizes)},) entries for blocks {tuple(shapes)}")
    blocks, start = [], 0
    for size, shape in zip(sizes, shapes):
        blocks.append(flat[start : start + size].reshape(shape))
        start += size
    return blocks


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: out = activation(W x + b)."""

    in_dim: int
    out_dim: int
    activation: str = "identity"

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError(f"layer dims must be positive, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )


class Network:
    """A stack of dense layers over float64 arrays.

    Attributes:
        params: the flat parameter vector.  Update it in place; the block
            views read from it.
        blocks: per-layer (out, in+1) [W | b] views into `params`.
        shapes: the blocks' shapes, the layout of every flat gradient.

    Args:
        specs: layer specs; consecutive dims must chain.
        rng: source for the initial draw.  Weights are uniform in
            +-sqrt(6 / (in_dim + out_dim)), biases start at zero.
    """

    def __init__(self, specs, rng=None):
        specs = tuple(specs)
        if not specs:
            raise ValueError("network needs at least one layer")
        for a, b in zip(specs, specs[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}"
                )
        self.specs = specs
        self.shapes = tuple((sp.out_dim, sp.in_dim + 1) for sp in specs)
        self.params = np.zeros(sum(rows * cols for rows, cols in self.shapes))
        self.blocks = layer_blocks(self.params, self.shapes)
        if rng is not None:
            for sp, blk in zip(specs, self.blocks):
                bound = np.sqrt(6.0 / (sp.in_dim + sp.out_dim))
                blk[:, :-1] = rng.uniform(-bound, bound, (sp.out_dim, sp.in_dim))
        self._acts = None       # layer outputs a_0 = x .. a_L, captured
        self._pre = None        # pre-activations s_0 .. s_{L-1}, captured
        self._derivs = None     # f'(s_l, a_{l+1}), None for identity, captured
        self._grads_pre = None  # pre-activation gradients, captured by backward

    # ------------------------------------------------------------------ shape

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    @property
    def n_layers(self) -> int:
        return len(self.specs)

    @property
    def n_params(self) -> int:
        return self.params.shape[0]

    # ------------------------------------------------------------- parameters

    def get_params(self) -> np.ndarray:
        """A copy of the flat parameter vector."""
        return self.params.copy()

    def set_params(self, flat) -> None:
        """Copy `flat` into the parameter vector."""
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.shape[0] != self.n_params:
            raise ValueError(
                f"expected {self.n_params} parameters, got {flat.shape[0]}"
            )
        self.params[:] = flat

    def copy(self) -> "Network":
        net = Network(self.specs)
        net.params[:] = self.params
        return net

    # ---------------------------------------------------------------- forward

    def _primal(self, x, derivs: bool = False):
        """Layer outputs a_0 = x .. a_L, pre-activations s_0 .. s_{L-1}
        and, when `derivs`, the activation derivatives f'(s_l, a_{l+1})
        (None for an identity layer, whose derivative is 1)."""
        acts, pre, ds = [x], [], []
        for sp, blk in zip(self.specs, self.blocks):
            f, df, _ = _TABLE[sp.activation]
            s = acts[-1] @ blk[:, :-1].T + blk[:, -1]
            pre.append(s)
            acts.append(f(s))
            if derivs:
                ds.append(None if sp.activation == "identity" else df(s, acts[-1]))
        return acts, pre, ds

    def forward(self, x, capture: bool = False) -> np.ndarray:
        """Run the network on a batch.

        Args:
            x: (B, in_dim) batch.
            capture: record per-layer inputs, pre-activations and activation
                derivatives, which `backward`, `backward_deltas` and
                `jvp_captured` read, and from which Fisher factors are read.

        Returns:
            (B, out_dim) outputs.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"input has shape {x.shape}, expected (*, {self.in_dim})"
            )
        acts, pre, derivs = self._primal(x, derivs=capture)
        if capture:
            self._acts, self._pre, self._derivs = acts, pre, derivs
            self._grads_pre = None
        return acts[-1]

    def _deltas(self, upstream, input_grad: bool):
        """Pre-activation gradients of sum(upstream * output) over the
        captured batch, recorded for `captured_stats`, and d/dx when
        `input_grad` (else None)."""
        if self._acts is None:
            raise RuntimeError("backward requires a captured forward pass")
        delta = np.asarray(upstream, dtype=np.float64)
        batch = self._acts[0].shape[0]
        if delta.shape != (batch, self.out_dim):
            raise ValueError(
                f"upstream has shape {delta.shape}, expected {(batch, self.out_dim)}"
            )
        grads_pre: list[np.ndarray] = [None] * self.n_layers
        for l in range(self.n_layers - 1, -1, -1):
            if self._derivs[l] is not None:
                delta = delta * self._derivs[l]
            grads_pre[l] = delta
            if l > 0 or input_grad:
                delta = delta @ self.blocks[l][:, :-1]
        self._grads_pre = grads_pre
        return delta if input_grad else None

    def backward_deltas(self, upstream) -> None:
        """Record the pre-activation gradients of sum(upstream * output)
        over the captured batch, for `captured_stats`, and form nothing
        else: no parameter gradient and no input gradient.

        Requires a preceding `forward(..., capture=True)`; `upstream` is as
        in `backward`, which records the same bits.

        Raises:
            RuntimeError: if no captured forward pass is available.
        """
        self._deltas(upstream, input_grad=False)

    def backward(self, upstream, return_input_grad: bool = False):
        """Gradients of sum(upstream * output) over the captured batch.

        Requires a preceding `forward(..., capture=True)`.  The pre-activation
        gradients of every layer are recorded for Fisher factor estimation,
        as `backward_deltas` records them.

        Args:
            upstream: (B, out_dim) adjoint of the output.
            return_input_grad: also return d/dx, shape (B, in_dim).

        Returns:
            The flat parameter gradient, laid out like `params`; optionally
            (grad, input_grad).

        Raises:
            RuntimeError: if no captured forward pass is available.
        """
        input_grad = self._deltas(upstream, return_input_grad)
        grad = np.empty_like(self.params)
        for blk, delta, a in zip(layer_blocks(grad, self.shapes),
                                 self._grads_pre, self._acts):
            blk[:, :-1] = delta.T @ a
            blk[:, -1] = delta.sum(axis=0)
        if return_input_grad:
            return grad, input_grad
        return grad

    def captured_stats(self):
        """(layer inputs, pre-activation gradients) recorded by the last
        capture + backward pair, for Kronecker factor updates."""
        if self._acts is None or self._grads_pre is None:
            raise RuntimeError("no captured forward/backward pair available")
        return self._acts[:-1], self._grads_pre

    def captured_output(self) -> np.ndarray:
        """The (B, out_dim) output of the last captured forward pass."""
        if self._acts is None:
            raise RuntimeError("no captured forward pass available")
        return self._acts[-1]

    # --------------------------------------------------------------- tangents

    def jvp_captured(self, v):
        """J(x_i) v_si for S tangent vectors per row of the captured batch
        x, with the intermediate tangents returned.

        Requires a preceding `forward(x, capture=True)` with the parameters
        unchanged since, as `backward` does, and reads its primal values and
        activation derivatives.  The tangent products run folded over the
        S*B (probe, row) pairs, so each pair's bits are those of a pass over
        the replicated rows.  A one-row capture with S > 1 tangents runs
        its primal again on two copies of the row.

        Args:
            v: (S, B, in_dim) tangent vectors, S per captured row.

        Returns:
            (u, cache): u is the (S, B, out_dim) tangent output; cache holds
            the intermediates needed by `jvp_adjoint`.

        Raises:
            RuntimeError: if no captured forward pass is available.
        """
        if self._acts is None:
            raise RuntimeError("jvp_captured requires a captured forward pass")
        x = self._acts[0]
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 3 or v.shape[1:] != x.shape:
            raise ValueError(
                f"v must be (S, B, {self.in_dim}) with the same B as the "
                f"captured batch, {x.shape[0]}, got {v.shape}"
            )
        acts, pre, derivs = self._acts, self._pre, self._derivs
        # A one-row product takes BLAS's matrix-vector route, which rounds
        # otherwise than the matrix-matrix route that a pass over S > 1
        # replicated rows takes; a second copy of the row keeps it there.
        if x.shape[0] == 1 and v.shape[0] > 1:
            acts, pre, derivs = self._primal(np.repeat(x, 2, axis=0), derivs=True)
            acts, pre = [a[:1] for a in acts], [s[:1] for s in pre]
            derivs = [d if d is None else d[:1] for d in derivs]
        t = v
        tangents, tan_pre = [v], []
        for d, blk in zip(derivs, self.blocks):
            ts = (_fold(t) @ blk[:, :-1].T).reshape(*v.shape[:2], -1)
            tan_pre.append(ts)
            t = ts if d is None else d * ts
            tangents.append(t)
        return t, (acts, pre, derivs, tangents, tan_pre)

    def jvp_adjoint(self, cache, u_bar) -> np.ndarray:
        """Parameter gradient of sum(u_bar * u) where u_si = J(x_i) v_si.

        This is reverse-mode applied to the forward-tangent computation of
        `jvp_captured`: adjoints flow through both the primal track (because
        activation derivatives depend on the pre-activations) and the tangent
        track.  The derivatives held for the B rows broadcast over the S
        probes, and the tangent-track products run over the folded S*B
        pairs.  The primal values are shared by a row's S probes, so a
        layer's primal-track weight gradient is (sum_s s_bar_s)^T a_l, one
        product over the B captured rows, and its bias gradient is the row
        sum of that probe sum.

        The primal-track adjoint is identically +0 above the topmost
        nonlinear layer, since an identity layer's second derivative is 0.
        While it is, the pass skips the products and sums that would only
        add +0, and adds 0.0 where the sum would turn a -0 into +0.

        Args:
            cache: second output of `jvp_captured`.
            u_bar: (S, B, out_dim) adjoint of the tangent output.

        Returns:
            The flat parameter gradient, laid out like `params`.
        """
        acts, pre, derivs, tangents, tan_pre = cache
        u_bar = np.asarray(u_bar, dtype=np.float64)
        shape = (*tangents[0].shape[:2], self.out_dim)
        if u_bar.shape != shape:
            raise ValueError(
                f"u_bar has shape {u_bar.shape}, expected {shape}"
            )
        grad = np.empty_like(self.params)
        grad_blocks = layer_blocks(grad, self.shapes)
        a_bar = None  # the primal-track adjoint; None while it is +0
        t_bar = u_bar
        for l in range(self.n_layers - 1, -1, -1):
            d = derivs[l]
            ts_bar = _fold(t_bar if d is None else t_bar * d)
            tan_w = ts_bar.T @ _fold(tangents[l])
            if a_bar is None and d is None:
                s_bar = None
                np.add(tan_w, 0.0, out=grad_blocks[l][:, :-1])
                grad_blocks[l][:, -1] = 0.0
            else:
                dd = _TABLE[self.specs[l].activation][2](pre[l], acts[l + 1])
                s_bar = t_bar * tan_pre[l] * dd
                if a_bar is None:
                    s_bar = s_bar + 0.0
                else:
                    s_bar = (a_bar if d is None else a_bar * d) + s_bar
                # the S probes of a row share its primal input a_l
                s_sum = s_bar.sum(axis=0)
                grad_blocks[l][:, :-1] = s_sum.T @ acts[l] + tan_w
                grad_blocks[l][:, -1] = s_sum.sum(axis=0)
            if l > 0:
                w = self.blocks[l][:, :-1]
                if s_bar is not None:
                    a_bar = (_fold(s_bar) @ w).reshape(tangents[l].shape)
                t_bar = (ts_bar @ w).reshape(tangents[l].shape)
        return grad

    def explicit_jacobian(self, x) -> np.ndarray:
        """Materialize J(x) row by row via basis-vector JVPs.

        Captures a forward pass at x for `jvp_captured`, which replaces the
        net's capture.  Refuses when out_dim * in_dim exceeds the 10^4
        element guard.
        """
        if self.out_dim * self.in_dim > JACOBIAN_SIZE_GUARD:
            raise ValueError(
                f"explicit Jacobian of {self.out_dim}x{self.in_dim} exceeds the "
                f"{JACOBIAN_SIZE_GUARD}-element guard"
            )
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.in_dim,):
            raise ValueError(f"x must have shape ({self.in_dim},), got {x.shape}")
        self.forward(x[None, :], capture=True)
        u, _ = self.jvp_captured(np.eye(self.in_dim)[:, None, :])
        return u[:, 0, :].T.copy()

    # --------------------------------------------------------------------- io

    def save(self, path) -> None:
        """Write a text header (layer dims and activations) followed by the
        flat parameter vector as little-endian float64."""
        header = "net " + " ".join(
            f"{sp.in_dim}:{sp.activation}:{sp.out_dim}" for sp in self.specs
        )
        with open(path, "wb") as fh:
            fh.write((header + "\n").encode("ascii"))
            fh.write(self.params.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "Network":
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").strip()
            payload = fh.read()
        fields = header.split()
        if not fields or fields[0] != "net":
            raise ValueError(f"{path}: not a network file (header {header!r})")
        specs = []
        for tok in fields[1:]:
            parts = tok.split(":")
            if len(parts) != 3:
                raise ValueError(f"{path}: bad layer token {tok!r}")
            specs.append(LayerSpec(int(parts[0]), int(parts[2]), parts[1]))
        net = cls(specs)
        flat = np.frombuffer(payload, dtype="<f8")
        if flat.shape[0] != net.n_params:
            raise ValueError(
                f"{path}: payload holds {flat.shape[0]} floats, "
                f"expected {net.n_params}"
            )
        net.set_params(flat)
        return net
