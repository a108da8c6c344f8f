"""Dense tensors, layer parameter containers, and the gradient tape."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """Dense n-dimensional array of reals in row-major order.

    Feature maps use batch/height/width/channel layout; vectors are flat.
    The dtype is float64 in verification mode and float32 in training mode.

    ``border``, when set, is ``(buffer, top, left)``: a feature map's zero
    border. ``buffer`` is a (B, H', W', C) array whose rows top..top+H-1 and
    columns left..left+W-1 are ``data``, a view of it, and which is zero
    outside them. Nothing writes to the zeros, so a convolution reads its
    padded input as a view of ``buffer`` instead of copying ``data`` (see
    ``ops``).
    """

    __slots__ = ("data", "border", "__weakref__")

    def __init__(self, data, dtype=None, border=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.border = border

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> str:
        return self.data.dtype.name

    @property
    def size(self) -> int:
        return self.data.size

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype))

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)}, dtype={self.dtype})"


LAYER_KINDS = ("conv", "depthwise-conv", "linear")


@dataclass
class LayerParams:
    """Weights plus one bias per output channel or unit for a single layer."""

    kind: str
    weights: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ShapeError("layer-params", f"unknown layer kind {self.kind!r}")
        w, b = self.weights.shape, self.bias.shape
        expected_rank = {"conv": 4, "depthwise-conv": 3, "linear": 2}[self.kind]
        if len(w) != expected_rank:
            raise ShapeError(
                "layer-params",
                f"{self.kind} weights must be rank {expected_rank}, got shape {w}",
            )
        if len(b) != 1 or b[0] != w[-1]:
            raise ShapeError(
                "layer-params",
                f"{self.kind} bias shape {b} does not match {w[-1]} outputs (weights {w})",
            )

    @property
    def out_channels(self) -> int:
        return self.weights.shape[-1]


class Tape:
    """Ordered record of executed ops, enough to run the chain rule in reverse.

    Single-owner while recording. Each node holds the op name, the produced
    tensor, and a closure that pushes gradients to the op's inputs; the
    closure holds the activations its backward reads.

    ``wrt`` names the leaf tensors (those no recorded op produced, such as
    parameters and input images) whose gradients the caller will read.
    ``None``, the default, wants every leaf. With a list, the backward
    computes no gradient for any other leaf: training passes the
    parameters, so the costliest gradient of a step, the one with respect
    to the images, is never formed.

    A tape serves one backward. ``backward_multi`` drops each node as soon
    as its closure has run, so the activations are freed while the backward
    goes on; a second backward on the consumed tape raises ``UsageError``.
    """

    def __init__(self, wrt=None):
        self._nodes = []
        self._wrt = None if wrt is None else list(wrt)
        self._consumed = False

    def record(self, op: str, output: Tensor, backward_fn) -> None:
        self._nodes.append((op, output, backward_fn))

    def wants(self, tensor: Tensor) -> bool:
        """True unless ``wrt`` excludes ``tensor``: a leaf not named in it.
        An op on an excluded leaf need not record itself, since a backward
        would form no gradient for it."""
        return (self._wrt is None or any(t is tensor for t in self._wrt)
                or any(out is tensor for _, out, _ in self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def _check_unused(self) -> None:
        if self._consumed:
            raise UsageError("backward: the tape was consumed by an earlier backward")
        if not self._nodes:
            raise UsageError("backward before forward: tape is empty")

    @property
    def last_output(self) -> Tensor:
        self._check_unused()
        return self._nodes[-1][1]

    def op_counts(self) -> dict:
        counts = {}
        for op, _, _ in self._nodes:
            counts[op] = counts.get(op, 0) + 1
        return counts


class Gradients:
    """Gradients accumulated per tensor, keyed by tensor identity.

    ``wanted`` is the set of ids of the tensors whose gradients may be
    formed, or ``None`` for every tensor; ops ask ``wants`` before
    computing an input gradient.

    ``release`` hands over a tensor's gradient and forgets it; the backward
    releases the gradient of each tape output once the output's node has
    run. Reading a released gradient raises ``UsageError``: it is gone, and
    zero would be a wrong answer.
    """

    def __init__(self, wanted=None):
        self._grads = {}
        self._tensors = {}
        self._released = {}  # id -> weak reference to the tensor released
        self._wanted = wanted

    def wants(self, tensor: Tensor) -> bool:
        """True unless the tape's ``wrt`` excluded this tensor."""
        return self._wanted is None or id(tensor) in self._wanted

    def accumulate(self, tensor: Tensor, grad: np.ndarray) -> None:
        key = id(tensor)
        if key in self._grads:
            self._grads[key] = self._grads[key] + grad
        else:
            self._grads[key] = grad
            self._tensors[key] = tensor

    def release(self, tensor: Tensor):
        """The tensor's accumulated gradient, or None if it was never
        reached; either way this object no longer holds it or the tensor."""
        key = id(tensor)
        self._tensors.pop(key, None)
        self._released[key] = weakref.ref(tensor)
        return self._grads.pop(key, None)

    def _check_kept(self, tensor: Tensor) -> None:
        ref = self._released.get(id(tensor))
        if ref is not None and ref() is tensor:
            raise UsageError(
                f"no gradient for tensor of shape {tuple(tensor.shape)}: it is a tape "
                "output, whose gradient the backward released"
            )

    def get(self, tensor: Tensor):
        """Accumulated gradient, or None if the tensor was never reached."""
        self._check_kept(tensor)
        return self._grads.get(id(tensor))

    def wrt(self, tensor: Tensor) -> np.ndarray:
        """Accumulated gradient, zero-filled for a wanted tensor never reached.

        Raises ``UsageError`` for a tensor the tape's ``wrt`` excluded, or
        one whose gradient was released: it was never computed or is gone,
        and zero would be a wrong answer.
        """
        self._check_kept(tensor)
        g = self._grads.get(id(tensor))
        if g is not None:
            return g
        if not self.wants(tensor):
            raise UsageError(
                f"no gradient for tensor of shape {tuple(tensor.shape)}: "
                "the tape's wrt excluded it"
            )
        return np.zeros_like(tensor.data)


def backward_multi(tape: Tape, seeds) -> Gradients:
    """Reverse-mode accumulation over the tape from several output seeds.

    ``seeds`` is an iterable of (tensor, gradient) pairs, one per output the
    scalar loss depends on. Gradients add when a value feeds multiple ops;
    traversal is in exact reverse execution order.

    Pruning: when the tape was made with ``wrt``, each closure gets a
    ``Gradients`` that wants every tape output and the ``wrt`` leaves and
    nothing else, and it forms only the input gradients wanted. Pruning
    never changes a wanted gradient: a leaf's gradient flows into no other
    gradient, so skipping it leaves every other sum, and its order, as is.

    Memory: the backward consumes the tape. Once a node's closure has run,
    the node (its closure and the activations the closure holds), its
    output's gradient and the output itself are dropped. In reverse order a
    producer runs after all of its consumers, so nothing later reads them,
    and the memory of a backward falls as it goes. The ``Gradients``
    returned keeps the gradients of the leaves (with ``wrt``, of the
    ``wrt`` leaves); asking it for a tape output's raises ``UsageError``,
    and so does a second backward on the consumed tape. Nothing of this
    changes a bit of a gradient.
    """
    tape._check_unused()
    wanted = None
    if tape._wrt is not None:
        wanted = {id(output) for _, output, _ in tape._nodes}
        wanted.update(id(t) for t in tape._wrt)
    grads = Gradients(wanted)
    seeded = False
    for tensor, grad in seeds:
        g = np.asarray(grad, dtype=tensor.data.dtype)
        if g.shape != tensor.data.shape:
            raise ShapeError(
                "backward",
                f"seed gradient shape {g.shape} does not match output shape {tensor.data.shape}",
            )
        grads.accumulate(tensor, g)
        seeded = True
    if not seeded:
        raise UsageError("backward: no seed gradients given")
    tape._consumed = True
    nodes = tape._nodes
    while nodes:
        _, output, backward_fn = nodes.pop()
        g = grads.release(output)
        if g is not None:
            backward_fn(g, grads)
    if wanted is not None:  # the released outputs' ids may be reused
        grads._wanted = {id(t) for t in tape._wrt}
    return grads


def backward(tape: Tape, loss_grad, output: Tensor | None = None) -> Gradients:
    """Reverse pass seeded with d(scalar loss)/d(output).

    ``output`` defaults to the last tensor recorded on the tape.
    """
    out = output if output is not None else tape.last_output
    g = loss_grad.data if isinstance(loss_grad, Tensor) else np.asarray(loss_grad)
    return backward_multi(tape, [(out, g)])
