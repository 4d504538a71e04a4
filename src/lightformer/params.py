"""Named parameter registry shared by blocks, networks, and the optimizer.

Layers register uniquely named entries at construction time and keep the
returned Tensor, which holds a read-only zero placeholder of the entry's
shape; ``init`` then fills every entry from a per-name random stream, so
values depend only on (seed, name, dtype), never on registration order.
Buffers (running statistics) live in the same namespace with
``trainable=False`` and are excluded from parameter counts and gradient
updates but included in checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream
from .tensor import Tensor


@dataclass
class _Entry:
    tensor: Tensor
    init: tuple
    trainable: bool


class ParamStore:
    def __init__(self):
        self._entries: dict[str, _Entry] = {}

    def add(self, name: str, shape, init: tuple, trainable: bool = True) -> Tensor:
        """Register one entry; ``init`` is ('kaiming', fan_in) | ('zeros',) | ('ones',)."""
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        kind = init[0]
        if kind not in ("kaiming", "zeros", "ones"):
            raise ValueError(f"{name}: unknown init spec {init!r}")
        shape = tuple(shape)
        t = Tensor(np.zeros((), dtype=np.float32), requires_grad=trainable)
        # A zero-stride view of an immutable zero: shape, size and dtype work
        # for pricing an uninitialized model, and a write before init raises.
        t.data = np.ndarray(shape, np.float32, buffer=bytes(4), strides=(0,) * len(shape))
        self._entries[name] = _Entry(tensor=t, init=init, trainable=trainable)
        return t

    def init(self, seed: int, dtype=np.float32) -> None:
        """Materialize every entry at ``dtype`` from per-name streams."""
        for name, entry in self._entries.items():
            shape = entry.tensor.shape
            kind = entry.init[0]
            if kind == "zeros":
                data = np.zeros(shape, dtype=dtype)
            elif kind == "ones":
                data = np.ones(shape, dtype=dtype)
            else:
                fan_in = entry.init[1]
                std = np.sqrt(2.0 / fan_in)
                data = (stream(seed, "init", name).standard_normal(shape) * std).astype(dtype)
            entry.tensor.data = data

    def tensors(self):
        return [(name, e.tensor) for name, e in self._entries.items()]

    def trainable(self):
        return [(name, e.tensor) for name, e in self._entries.items() if e.trainable]

    def total_params(self) -> int:
        """Number of trainable scalars (buffers excluded)."""
        return sum(t.size for _, t in self.trainable())

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name].tensor

    def state_arrays(self) -> dict:
        """name -> a copy of each param and buffer array, in registration order.

        The copies stay a snapshot: ``training.AdamW`` updates a parameter's
        ``.data`` in place at every step.
        """
        return {name: e.tensor.data.copy() for name, e in self._entries.items()}

    def load_state(self, arrays: dict) -> None:
        """Replace entry data from ``arrays``; names and shapes must match exactly."""
        missing = [n for n in self._entries if n not in arrays]
        extra = [n for n in arrays if n not in self._entries]
        if missing or extra:
            raise ValueError(f"state mismatch: missing {missing[:3]}..., unexpected {extra[:3]}..."
                             if len(missing) > 3 or len(extra) > 3
                             else f"state mismatch: missing {missing}, unexpected {extra}")
        for name, entry in self._entries.items():
            arr = np.asarray(arrays[name])
            if tuple(arr.shape) != tuple(entry.tensor.shape):
                raise ValueError(f"{name}: stored shape {arr.shape} != expected {entry.tensor.shape}")
            entry.tensor.data = np.ascontiguousarray(arr, dtype=entry.tensor.dtype)
