"""Minimal module system: parameters, containment, training mode.

Deliberately torch-like in shape (``Module.forward``, ``parameters()``)
but tiny: layers receive the :class:`~repro.nn.context.ExecutionContext`
explicitly, and backward is an explicit reverse traversal (each layer saves
what it needs during a training-mode forward)."""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np


@dataclasses.dataclass(frozen=True)
class NormalInit:
    """Recipe for a ``std``-scaled standard-normal tensor drawn from its own
    ``default_rng(seed)`` stream (picklable, unlike a closure)."""

    shape: Tuple[int, ...]
    seed: int
    std: float

    def draw(self) -> np.ndarray:
        values = np.random.default_rng(self.seed).standard_normal(self.shape)
        values *= self.std
        return values.astype(np.float32)


@dataclasses.dataclass(frozen=True)
class ConstantInit:
    """Recipe for a tensor filled with ``value``."""

    shape: Tuple[int, ...]
    value: float

    def draw(self) -> np.ndarray:
        return np.full(self.shape, self.value, dtype=np.float32)


class Parameter:
    """A learnable float32 array with an accumulated gradient.

    Built from ``data``, or shape-only from an ``init`` recipe: shape,
    dtype and byte count are known at once, and the values are drawn on
    the first :attr:`data` read.  Assigning :attr:`data` first (a loaded
    checkpoint) discards the pending draw, so simulate-only runs, which
    read shapes alone, never draw at all.  :attr:`init` is the pending
    recipe, ``None`` once the values exist.
    """

    def __init__(
        self,
        data: Optional[np.ndarray] = None,
        *,
        init: Union[NormalInit, ConstantInit, None] = None,
    ):
        if (data is None) == (init is None):
            raise ValueError("Parameter takes exactly one of data and init")
        self.init = init
        self._data = None if data is None else np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = self.init.draw()
            self.init = None
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self.init = None

    def peek(self) -> np.ndarray:
        """The values, without filling in a pending draw: the held array
        if there is one, else a fresh draw that is not stored, so
        :attr:`init` stays pending.  Treat the result as read-only."""
        return self.init.draw() if self._data is None else self._data

    @property
    def shape(self) -> tuple:
        return self.init.shape if self._data is None else self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32) if self._data is None else self._data.dtype

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.dtype.itemsize

    def shape_only(self) -> np.ndarray:
        """Read-only zero-strided zeros of this parameter's shape, for
        simulate-only execution; never draws."""
        return np.broadcast_to(np.zeros((), dtype=self.dtype), self.shape)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None or not self.grad.flags.writeable:
            self.grad = np.zeros(self.shape, dtype=self.dtype)
        self.grad += grad.astype(np.float32)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for all layers and networks."""

    def __init__(self) -> None:
        self.training = False

    # ------------------------------------------------------------------ #
    # Containment (discovered by attribute scan; no __setattr__ magic)
    # ------------------------------------------------------------------ #
    def children(self) -> Iterator[Tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, ModuleList):
                for i, child in enumerate(value):
                    yield f"{name}.{i}", child

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix or type(self).__name__, self
        for name, child in self.children():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield (f"{prefix}.{name}" if prefix else name), value
        for name, child in self.children():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.parameters())

    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """All parameters (and batch-norm running stats) by name."""
        state = {
            name: param.data.copy()
            for name, param in self.named_parameters()
        }
        for name, module in self.named_modules():
            for attr in ("running_mean", "running_var"):
                value = getattr(module, attr, None)
                if isinstance(value, np.ndarray):
                    state[f"{name}.{attr}"] = value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict`; shapes must match exactly."""
        params = dict(self.named_parameters())
        consumed = set()
        for name, param in params.items():
            if name not in state:
                raise KeyError(f"state dict is missing parameter {name!r}")
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: checkpoint "
                    f"{value.shape} vs model {param.shape}"
                )
            param.data = value.astype(np.float32).copy()
            consumed.add(name)
        for name, module in self.named_modules():
            for attr in ("running_mean", "running_var"):
                key = f"{name}.{attr}"
                if key in state and hasattr(module, attr):
                    setattr(module, attr, np.asarray(state[key]).copy())
                    consumed.add(key)
        extra = set(state) - consumed
        if extra:
            raise KeyError(f"unexpected keys in state dict: {sorted(extra)}")

    # ------------------------------------------------------------------ #
    def forward(self, x, ctx):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad, ctx):  # pragma: no cover - abstract
        raise NotImplementedError(
            f"{type(self).__name__} does not implement backward"
        )

    def __call__(self, x, ctx):
        return self.forward(x, ctx)

    def __repr__(self) -> str:
        child_names = ", ".join(name for name, _ in self.children())
        return f"{type(self).__name__}({child_names})"


class ModuleList:
    """A list of modules discovered by the containment scan."""

    def __init__(self, modules: Optional[List[Module]] = None):
        self._modules: List[Module] = list(modules or [])

    def append(self, module: Module) -> None:
        self._modules.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[index]
