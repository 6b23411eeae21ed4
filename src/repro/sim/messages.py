"""Message base classes for the asynchronous message-passing simulator.

The simulator is protocol-agnostic: any object deriving from
:class:`Message` can travel over a FIFO channel.  Messages know how to
estimate their own size in *bits* so that the experiments can measure the
``O(n log n)`` message-length claim of the paper without serialising
anything for real.

Size accounting convention
--------------------------
* a node identifier or integer counter costs ``ceil(log2(n)) + 1`` bits,
  where ``n`` is the network size (provided by the accounting context);
* a boolean costs 1 bit;
* a list costs the sum of its elements plus a length field;
* the message type tag costs a constant 4 bits (there are < 16 types).

This mirrors the paper's accounting, where all variables are "of size
O(log n) bits".

Hot-path layout
---------------
Message objects are the single most allocated kind of object in a
simulation, so the hierarchy is kept as flat as the interpreter allows:
on Python >= 3.10 every message class declared through
:func:`message_dataclass` is a *slotted* frozen dataclass (no per-instance
``__dict__``), and the per-instance size cache is an ordinary slot.  Its
constructor writes each field through the slot's member descriptor, one
call per field, where dataclass's frozen ``__init__`` goes through
``object.__setattr__``; ``size_bits`` stores the cache through the same
descriptor.  The class stays frozen, and its signature, defaults,
equality, hash, repr and pickling are dataclass's own.  On 3.9 the classes
fall back to plain frozen dataclasses with identical semantics.

A message is never mutated after it is built, so one object can stand
for many sends: a node re-broadcasts one interned ``MInfo`` while its
gossiped variables hold, and a ``Deblock`` flood sends one ``Deblock`` to
every tree neighbour.

Every message is sized once, when a channel enqueues it.  A broadcast
enqueues one message object on every incident channel, and the
``(n, bits)`` cache on the instance makes the second and later sizings for
the same ``n`` a lookup.  The first sizing of
a fresh message -- every hop of a ``Search`` token builds one, with its
DFS ``path`` and ``visited`` tuples -- is a lookup too when its class
declares a *size shape* (:func:`size_shape`): a function of the message
whose value, with ``n``, determines the size.  A ``Search`` of the MDST
protocol, say, has the size of every other ``Search`` with the same
``idblock is None``, ``len(path)`` and ``len(visited)``, since each of its
payload leaves is an ``int``, a ``bool`` or ``None``.  Sizes are kept in one
bounded table keyed by the exact class, ``n`` and the shape; a miss fills
the entry with the one recursive sizer :func:`_bits`.  A shape is declared
for one exact class: a subclass, which may add payload fields, does not
inherit it, and like every class without a shape (``GarbageMessage`` among
them) it is sized by :func:`_bits` each time.

:func:`_bits` takes the identifier width once per message instead of once
per integer, and tests the exact types of the protocol payloads (``int``
and ``tuple``, then ``None`` and ``bool``) before the general
``isinstance`` chain.  The fast paths return what the chain returns for
those types, so every size is unchanged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

__all__ = ["Message", "estimate_bits", "id_bits", "message_dataclass",
           "size_shape"]

#: Constant cost (bits) of the message type tag.
TYPE_TAG_BITS = 4


if sys.version_info >= (3, 10):
    def message_dataclass(cls):
        """Declare a message type: a slotted frozen dataclass.

        Use instead of ``@dataclass(frozen=True)`` for every class in the
        message hierarchy; third-party subclasses declared with a plain
        ``@dataclass(frozen=True)`` remain fully compatible (they simply
        keep a ``__dict__`` and dataclass's own constructor).  The
        generated ``__init__`` is replaced by :func:`_slot_init`'s, so a
        class with a second constructor path -- ``__post_init__``, an
        ``InitVar`` or a ``kw_only`` field -- is a ``TypeError``.
        """
        cls = dataclass(frozen=True, slots=True)(cls)
        cls.__init__ = _slot_init(cls)
        return cls
else:  # pragma: no cover - exercised by the 3.9 CI lane
    def message_dataclass(cls):
        """Declare a message type (3.9 fallback: no ``__slots__``)."""
        return dataclass(frozen=True)(cls)


def _slot_init(cls):
    """The constructor of slotted frozen dataclass ``cls``, by slot writes.

    Dataclass's frozen ``__init__`` writes each field with
    ``object.__setattr__(self, name, value)``, which looks the slot up
    again on every write.  This one calls each field's member descriptor
    ``__set__`` directly, held in a closure, and takes the generated
    constructor's parameters, defaults (the ``default_factory`` sentinel
    included), annotations and name, so the signature and every
    ``TypeError`` on a bad call are unchanged.
    """
    generated = cls.__init__
    name = cls.__qualname__
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"message class {name} may not define __post_init__")
    all_fields = fields(cls)
    if any(f.kw_only for f in all_fields):
        raise TypeError(f"message class {name} may not have kw_only fields")
    code = generated.__code__
    params = code.co_varnames[1:code.co_argcount]
    if params != tuple(f.name for f in all_fields if f.init):
        raise TypeError(f"message class {name} may not have InitVar fields")
    defaults = generated.__defaults__ or ()
    first_default = len(params) - len(defaults)
    bound: Dict[str, Any] = {}
    body = []
    for f in all_fields:
        bound[f"_set_{f.name}"] = getattr(cls, f.name).__set__  # the slot
        if f.default_factory is not MISSING:
            bound[f"_factory_{f.name}"] = f.default_factory
            value = f"_factory_{f.name}()"
            if f.init:
                bound[f"_unset_{f.name}"] = \
                    defaults[params.index(f.name) - first_default]
                value = (f"{value} if {f.name} is _unset_{f.name} "
                         f"else {f.name}")
        elif f.init:
            value = f.name
        elif f.default is not MISSING:
            bound[f"_default_{f.name}"] = f.default
            value = f"_default_{f.name}"
        else:
            continue  # no init and no default: the slot stays unset
        body.append(f"  _set_{f.name}(self, {value})\n")
    source = (f"def _make({', '.join(bound)}):\n"
              f" def __init__(self{''.join(', ' + p for p in params)}):\n"
              f"{''.join(body) or '  pass'}\n"
              f" return __init__\n")
    namespace: Dict[str, Any] = {}
    exec(source, {}, namespace)
    init = namespace["_make"](**bound)
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = generated.__annotations__
    init.__qualname__ = generated.__qualname__
    init.__module__ = generated.__module__
    return init


@lru_cache(maxsize=1024)
def id_bits(n: int) -> int:
    """Number of bits needed to encode one identifier in an ``n``-node network.

    Cached per network size (a handful of small ints per process); called
    once per sizing -- :func:`_bits` takes the result as an argument.
    """
    return max(1, math.ceil(math.log2(max(n, 2)))) + 1


#: Per-class cache of payload field names, filled by :func:`_payload_fields`.
_PAYLOAD_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _payload_fields(cls: type) -> Tuple[str, ...]:
    """Names of the payload fields of dataclass ``cls`` (private excluded).

    Private fields (the size cache of nested messages) are transport
    metadata, not payload; they are never costed.  Cached per class so the
    sizing hot path never re-enumerates ``dataclasses.fields``.
    """
    names = _PAYLOAD_FIELDS.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls) if not f.name.startswith("_"))
        _PAYLOAD_FIELDS[cls] = names
    return names


def _bits(value: Any, ib: int) -> int:
    """Size of ``value`` in bits, with ``ib`` bits per identifier.

    The one sizer behind :func:`estimate_bits` and :meth:`Message.size_bits`
    (fast paths: see "Hot-path layout" above).  Anything but an exact
    ``int``, ``tuple``, ``bool`` or ``None`` -- ``IntEnum`` and other
    subclasses included -- takes the general ``isinstance`` chain.
    """
    t = type(value)
    if t is int:
        return ib
    if t is tuple:
        # Length field + summed element costs; int elements inline.
        total = ib
        for item in value:
            total += ib if type(item) is int else _bits(item, ib)
        return total
    if value is None or t is bool:  # bool cannot be subclassed
        return 1
    if isinstance(value, int):
        return ib
    if isinstance(value, float):
        return 32
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        # A set's iteration order is hash-seed dependent, but addition
        # commutes, so the estimate is identical across processes and
        # PYTHONHASHSEED values.
        total = ib
        for item in value:
            total += _bits(item, ib)
        return total
    if isinstance(value, dict):
        total = ib
        for k, v in value.items():
            total += _bits(k, ib) + _bits(v, ib)
        return total
    if is_dataclass(value) and not isinstance(value, type):
        return sum(_bits(getattr(value, name), ib)
                   for name in _payload_fields(t))
    # Fallback: unknown objects cost one identifier.
    return ib


#: Size shape of each message class that declares one (:func:`size_shape`),
#: keyed by the exact class.
_SHAPES: Dict[type, Callable[[Any], Hashable]] = {}

#: ``(class, n, shape) -> bits`` for the classes in :data:`_SHAPES`; the
#: oldest entry goes once the table holds :data:`_SHAPE_TABLE_SIZE`.
_SHAPE_BITS: Dict[tuple, int] = {}
_SHAPE_TABLE_SIZE = 4096


def size_shape(shape: Callable[[Any], Hashable]):
    """Class decorator: the size of a message of exactly this class is a
    function of ``n`` and ``shape(message)``.

    Place it above :func:`message_dataclass`, so that it registers the
    final class.  The declaration holds for the decorated class alone; a
    subclass is sized field by field unless it declares its own shape.
    """
    def declare(cls):
        _SHAPES[cls] = shape
        return cls
    return declare


def estimate_bits(value: Any, n: int) -> int:
    """Recursively estimate the encoded size of ``value`` in bits.

    ``n`` is the network size used to cost identifiers/integers.

    The estimate is *deterministic* for every supported container: sets and
    frozensets are costed as a commutative sum of their elements' costs (plus
    a length field), so the result never depends on the hash-seed-dependent
    iteration order of the set.
    """
    return _bits(value, id_bits(n))


@message_dataclass
class Message:
    """Base class of all protocol messages.

    Subclasses are frozen dataclasses; immutability guarantees that a message
    cannot be mutated after being placed on a channel (which would violate
    the message-passing abstraction).  Declare subclasses with
    :func:`message_dataclass` to keep them slotted on interpreters that
    support it; a plain ``@dataclass(frozen=True)`` works too.
    """

    #: Per-instance ``(n, bits)`` size cache -- transport metadata, excluded
    #: from equality, hashing, repr and the size accounting itself.
    _size_bits_cache: Optional[Tuple[int, int]] = field(
        default=None, init=False, repr=False, compare=False)

    def type_name(self) -> str:
        """Short human-readable type name used by traces and statistics."""
        return type(self).__name__

    def size_bits(self, n: int) -> int:
        """Estimated size of this message in bits for an ``n``-node network.

        Messages are immutable, so the estimate is cached on the instance
        the first time it is computed.  A message is sized once, when a
        channel enqueues it, but a broadcast enqueues one message object on
        every incident channel, so the cache keeps the per-send accounting
        of the simulation kernel off the hot path.  The first
        sizing of a message whose class declares a size shape is a lookup
        in the bounded shape table (see "Hot-path layout" above); the
        table holds sizes only, never a message.
        """
        cached = getattr(self, "_size_bits_cache", None)
        if cached is not None and cached[0] == n:
            return cached[1]
        cls = type(self)
        shape = _SHAPES.get(cls)
        if shape is None:
            bits = self._payload_bits(n)
        else:
            key = (cls, n, shape(self))
            bits = _SHAPE_BITS.get(key)
            if bits is None:
                if len(_SHAPE_BITS) >= _SHAPE_TABLE_SIZE:
                    _SHAPE_BITS.pop(next(iter(_SHAPE_BITS)), None)
                bits = _SHAPE_BITS[key] = self._payload_bits(n)
        _set_size_cache(self, (n, bits))
        return bits

    def _payload_bits(self, n: int) -> int:
        """Type tag plus the :func:`_bits` size of every payload field."""
        ib = id_bits(n)
        bits = TYPE_TAG_BITS
        for name in _payload_fields(type(self)):
            bits += _bits(getattr(self, name), ib)
        return bits


if sys.version_info >= (3, 10):
    #: Writes ``Message._size_bits_cache`` through its slot, which a plain
    #: ``@dataclass(frozen=True)`` subclass inherits too.
    _set_size_cache = Message._size_bits_cache.__set__
else:  # pragma: no cover - exercised by the 3.9 CI lane
    def _set_size_cache(message: Message, value: Tuple[int, int]) -> None:
        object.__setattr__(message, "_size_bits_cache", value)


@message_dataclass
class GarbageMessage(Message):
    """An arbitrary junk message used by fault injection.

    Self-stabilizing protocols must tolerate arbitrary channel contents in
    the initial configuration; protocols in this library ignore (and thereby
    flush) messages they do not recognise.
    """

    payload: tuple = field(default_factory=tuple)
