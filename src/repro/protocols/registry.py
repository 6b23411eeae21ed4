"""The protocol registry: name -> :class:`~repro.protocols.base.ProtocolAdapter`.

Built-in adapters (``mdst``, ``spanning_tree``, ``pif_max_degree``) are
registered lazily on first lookup rather than at import time, so importing
the contract or the runner does not load every protocol implementation.  Lookup through :func:`get_protocol` (or any read of
:data:`PROTOCOLS`) triggers the one-time built-in load; third-party
protocols join via :func:`register_protocol` at any point.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping

from ..exceptions import ConfigurationError
from .base import ProtocolAdapter

__all__ = ["PROTOCOLS", "capable_names", "get_protocol", "protocol_names",
           "register_protocol"]

_ADAPTERS: Dict[str, ProtocolAdapter] = {}
_BUILTINS_LOADED = False


def _load_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Importing the modules runs their register_protocol(...) calls.  The
    # flag flips only after they all succeed: a failed import propagates to
    # every caller (Python's module cache keeps the retry cheap) instead of
    # leaving a silently empty registry behind the first traceback.
    from . import mdst, pif, spanning_tree  # noqa: F401
    _BUILTINS_LOADED = True


def register_protocol(adapter: ProtocolAdapter,
                      replace: bool = False) -> ProtocolAdapter:
    """Register ``adapter`` under its :attr:`~ProtocolAdapter.name`.

    Returns the adapter so the call can double as a module-level
    declaration.  Re-registering an existing name requires ``replace=True``
    (guards against two protocols silently shadowing each other).
    """
    if not adapter.name:
        raise ConfigurationError("protocol adapters need a non-empty name")
    if adapter.name in _ADAPTERS and not replace:
        raise ConfigurationError(
            f"protocol {adapter.name!r} is already registered "
            f"(pass replace=True to override)")
    _ADAPTERS[adapter.name] = adapter
    return adapter


def get_protocol(name: str) -> ProtocolAdapter:
    """The registered adapter for ``name``; unknown names list the registry."""
    _load_builtins()
    try:
        return _ADAPTERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; registered protocols: "
            f"{', '.join(protocol_names())}") from None


def protocol_names() -> List[str]:
    """Sorted names of every registered protocol."""
    _load_builtins()
    return sorted(_ADAPTERS)


def capable_names(flag: str) -> List[str]:
    """Sorted names of the protocols whose capability ``flag`` is set.

    ``flag`` is one of the :class:`~repro.protocols.base.ProtocolAdapter`
    capability attributes (``supports_churn``, ``supports_initial_tree``,
    ``supports_array_backend``); ``ProtocolAdapter.require`` lists them in
    its refusal.  A name that is no capability attribute raises
    ``AttributeError``.
    """
    _load_builtins()
    return sorted(name for name, adapter in _ADAPTERS.items()
                  if getattr(adapter, flag))


class _ProtocolRegistry(Mapping):
    """Read-only mapping view over the registry (lazy built-in load).

    Supports everything a plain dict of adapters would -- iteration,
    ``in``, ``len``, ``PROTOCOLS["mdst"]`` -- while deferring the built-in
    imports until first use.
    """

    def __getitem__(self, name: str) -> ProtocolAdapter:
        _load_builtins()
        return _ADAPTERS[name]

    def __iter__(self) -> Iterator[str]:
        return iter(protocol_names())

    def __len__(self) -> int:
        _load_builtins()
        return len(_ADAPTERS)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PROTOCOLS({protocol_names()})"


#: The registry, as a lazy read-only mapping ``name -> adapter``.
PROTOCOLS = _ProtocolRegistry()
