"""Dense NCHW-style tensors and a reverse-mode tape.

A Tensor is a thin wrapper over a contiguous numpy array (float32 for
compute, float64 for verification) of any rank. Operators in
:mod:`lightformer.ops` push one node per call onto the innermost active
Tape; ``Tape.backward`` pops the nodes in reverse, summing adjoints at
fan-in points in a fixed order, so gradients are deterministic. The sweep
consumes the tape and keeps only the adjoints of leaves, the tensors no
recorded op produced.

Typical use::

    with Tape() as tape:
        loss = ...            # scalar Tensor built from ops
    grads = tape.backward(loss)   # {leaf: adjoint}; the tape is now empty
    g_w = grads[w]
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np


class ShapeError(ValueError):
    """A shape or dtype precondition failed; the message names the offending dim."""


class TapeError(RuntimeError):
    """Backward-pass contract violation (non-scalar loss, missing adjoint, ...)."""


class Tensor:
    """Dense numeric array with an autodiff participation flag."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        # ascontiguousarray would promote rank-0 to shape (1,); keep scalars scalar.
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}{flag})"

    # Arithmetic dunders are attached by lightformer.ops at import time to
    # avoid a circular import; see the bottom of that module.


class TapeNode:
    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op: str, inputs: tuple, output: Tensor, backward):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


def active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Ordered op records; append order is execution order, hence topological."""

    def __init__(self):
        self._nodes: list[TapeNode] = []
        self._swept = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must unwind in LIFO order"

    @property
    def nodes(self) -> tuple:
        return tuple(self._nodes)

    def record(
        self,
        op: str,
        inputs: Iterable[Tensor],
        output: Tensor,
        backward: "Callable[[np.ndarray], tuple] | None",
    ) -> None:
        """Append one node. ``backward`` maps d(out) to a grad per input (None allowed)."""
        self._nodes.append(TapeNode(op, tuple(inputs), output, backward))

    def backward(self, loss: Tensor) -> dict:
        """Reverse sweep from a scalar ``loss``; consumes the tape, returns ``{leaf: adjoint}``."""
        if not isinstance(loss, Tensor):
            raise TapeError("backward expects the loss as a Tensor")
        if loss.size != 1:
            raise TapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        if self._swept:
            raise TapeError("backward already ran on this tape")
        self._swept = True
        grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
        while self._nodes:
            node = self._nodes.pop()
            # Every consumer of this output came later on the tape: its adjoint is complete.
            g_out = grads.pop(node.output, None)
            if g_out is None:
                continue
            if node.backward is None:
                raise TapeError(f"op '{node.op}' has no adjoint registered")
            for inp, g in zip(node.inputs, node.backward(g_out)):
                if g is None or not inp.requires_grad:
                    continue
                prev = grads.get(inp)
                # Reassign instead of in-place += : adjoints may be views into
                # other stored buffers (reshape/permute backwards).
                grads[inp] = g if prev is None else prev + g
        return grads
