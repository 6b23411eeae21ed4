"""Tests for repro.sim.messages and repro.sim.channel."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import pickle
import sys
from dataclasses import FrozenInstanceError, InitVar, dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stabilization  # noqa: F401  (declares STInfo and DegreeInfo)
from repro.exceptions import ChannelError
from repro.sim import (Channel, GarbageMessage, Message, estimate_bits, id_bits,
                       message_dataclass)
from repro.core.messages import MInfo, Remove, Search


@dataclass(frozen=True)
class Ping(Message):
    value: int = 0


class TestMessageSizes:
    def test_id_bits_monotone(self):
        assert id_bits(2) <= id_bits(16) <= id_bits(1024)

    def test_estimate_bits_scalar_types(self):
        assert estimate_bits(None, 10) == 1
        assert estimate_bits(True, 10) == 1
        assert estimate_bits(7, 10) == id_bits(10)
        assert estimate_bits(1.5, 10) == 32

    def test_estimate_bits_containers(self):
        n = 16
        assert estimate_bits([1, 2, 3], n) == id_bits(n) + 3 * id_bits(n)
        assert estimate_bits({1: 2}, n) == id_bits(n) + 2 * id_bits(n)

    def test_message_size_includes_type_tag(self):
        assert Ping(value=3).size_bits(8) > id_bits(8)

    def test_info_message_size_constant_in_n(self):
        small = MInfo(root=0, parent=1, distance=2, degree=1, sub_max=2, dmax=2,
                      color=True).size_bits(8)
        large = MInfo(root=0, parent=1, distance=2, degree=1, sub_max=2, dmax=2,
                      color=True).size_bits(1024)
        # grows only logarithmically with n (same number of fields)
        assert large < 3 * small

    def test_search_message_size_grows_with_path(self):
        short = Search(init_edge=(1, 0), idblock=None, path=((0, 1),), visited=(0,))
        long = Search(init_edge=(1, 0), idblock=None,
                      path=tuple((i, 2) for i in range(20)),
                      visited=tuple(range(20)))
        assert long.size_bits(32) > short.size_bits(32)

    def test_type_name(self):
        assert Ping().type_name() == "Ping"
        assert GarbageMessage().type_name() == "GarbageMessage"


class TestChannel:
    def test_fifo_order(self):
        ch = Channel(0, 1, network_size=4)
        for i in range(5):
            ch.send(Ping(value=i))
        assert [ch.deliver().value for _ in range(5)] == list(range(5))

    def test_reject_self_loop(self):
        with pytest.raises(ChannelError):
            Channel(3, 3)

    def test_deliver_empty_raises(self):
        ch = Channel(0, 1)
        with pytest.raises(ChannelError):
            ch.deliver()

    def test_send_rejects_non_message(self):
        ch = Channel(0, 1)
        with pytest.raises(ChannelError):
            ch.send("not a message")  # type: ignore[arg-type]

    def test_peek_does_not_consume(self):
        ch = Channel(0, 1)
        ch.send(Ping(value=9))
        assert ch.peek().value == 9
        assert len(ch) == 1

    def test_stats_tracking(self):
        ch = Channel(0, 1, network_size=8)
        ch.send(Ping(value=1))
        ch.send(Ping(value=2))
        ch.deliver()
        assert ch.stats.sent == 2
        assert ch.stats.delivered == 1
        assert ch.stats.max_queue_length == 2
        assert ch.stats.max_message_bits > 0

    def test_preload_and_clear(self):
        ch = Channel(0, 1)
        ch.preload([GarbageMessage(), GarbageMessage()])
        assert len(ch) == 2
        ch.clear()
        assert not ch

    def test_preload_rejects_non_messages(self):
        ch = Channel(0, 1)
        with pytest.raises(ChannelError):
            ch.preload(["junk"])  # type: ignore[list-item]

    def test_endpoints(self):
        assert Channel(2, 5).endpoints == (2, 5)


# ---------------------------------------------------------------------------
# message_dataclass: the slot-writing constructor against dataclass's own
# ---------------------------------------------------------------------------

needs_slots = pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="message_dataclass falls back to plain frozen dataclasses on 3.9")


def _library_message_classes():
    """Every message class the library declares, base included.

    A slotted dataclass is a second class object, so the first one, which
    its module no longer names, is skipped.
    """
    found, todo = [], [Message]
    while todo:
        cls = todo.pop()
        module = sys.modules.get(cls.__module__)
        if (cls.__module__.startswith("repro.") and cls not in found
                and getattr(module, cls.__name__, None) is cls):
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__qualname__)


MESSAGE_CLASSES = _library_message_classes()


def test_every_library_message_class_is_found():
    assert {cls.__name__ for cls in MESSAGE_CLASSES} >= {
        "Message", "GarbageMessage", "MInfo", "Search", "Remove", "Back",
        "Deblock", "Reverse", "UpdateDist", "STInfo", "DegreeInfo"}


@functools.lru_cache(maxsize=None)
def _dataclass_twin(cls):
    """``cls`` again, with the constructor dataclass itself generates."""
    twin = type(cls.__name__, (cls,), {"__qualname__": cls.__qualname__})
    return dataclass(frozen=True, slots=True)(twin)


def _outcome(call):
    """The value of ``call()``, or the type and text of its TypeError."""
    try:
        return call()
    except TypeError as exc:
        return TypeError, str(exc)


ids = st.integers(-5, 50)
payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), ids),
    lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=8)


def _values(annotation: str):
    """Values of a field annotated ``annotation`` that its class can size."""
    if "Tuple" in annotation or annotation == "tuple":
        return st.lists(payloads, max_size=5).map(tuple)
    if annotation.startswith("Optional"):
        return st.one_of(st.none(), ids)
    return st.booleans() if annotation == "bool" else ids


@st.composite
def calls(draw, cls):
    """Constructor arguments for ``cls``: a positional prefix, the rest by
    keyword, and any field with a default or a factory left out."""
    params = [f for f in dataclasses.fields(cls) if f.init]
    given_params = [
        f for f in params
        if (f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING)
        or draw(st.booleans())]
    values = {f.name: draw(_values(f.type)) for f in given_params}
    positional = []
    for f in params:  # a positional prefix must not skip a parameter
        if f.name not in values or not draw(st.booleans()):
            break
        positional.append(values.pop(f.name))
    return tuple(positional), values


@needs_slots
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_slot_constructor_matches_the_dataclass_constructor(data):
    cls = data.draw(st.sampled_from(MESSAGE_CLASSES))
    twin = _dataclass_twin(cls)
    args, kwargs = data.draw(calls(cls))
    message, reference = cls(*args, **kwargs), twin(*args, **kwargs)
    names = [f.name for f in dataclasses.fields(cls)]
    assert ([getattr(message, name) for name in names]
            == [getattr(reference, name) for name in names])
    assert message._size_bits_cache is None
    assert not hasattr(message, "__dict__")
    assert inspect.signature(cls) == inspect.signature(twin)
    assert repr(message) == repr(reference)
    assert hash(message) == hash(reference)

    again = cls(*args, **kwargs)
    assert again == message and hash(again) == hash(message)
    other_args, other_kwargs = data.draw(calls(cls))
    assert ((cls(*other_args, **other_kwargs) == message)
            == (twin(*other_args, **other_kwargs) == reference))
    assert dataclasses.replace(message) == message

    message.size_bits(16)
    restored = pickle.loads(pickle.dumps(message))
    assert restored == message
    assert restored._size_bits_cache == message._size_bits_cache == (
        16, message.size_bits(16))

    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(message, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(message, name)

    params = [f for f in dataclasses.fields(cls) if f.init]
    full = {f.name: 0 for f in params}
    bad_calls = [((0,) * (len(params) + 1), {}),   # one positional too many
                 ((), {**full, "unexpected": 0})]  # an unknown keyword
    required = [f.name for f in params if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    if required:                                   # a required one missing
        bad_calls.append(((), {k: v for k, v in full.items()
                               if k != required[-1]}))
    for bad_args, bad_kwargs in bad_calls:
        expected = _outcome(lambda: twin(*bad_args, **bad_kwargs))
        assert expected[0] is TypeError
        assert _outcome(lambda: cls(*bad_args, **bad_kwargs)) == expected


@needs_slots
def test_message_dataclass_rejects_a_second_constructor_path():
    with pytest.raises(TypeError, match="__post_init__"):
        @message_dataclass
        class WithPostInit(Message):
            x: int

            def __post_init__(self):
                pass

    with pytest.raises(TypeError, match="InitVar"):
        @message_dataclass
        class WithInitVar(Message):
            x: int
            scale: InitVar[int] = 1

    with pytest.raises(TypeError, match="kw_only"):
        @message_dataclass
        class WithKwOnly(Message):
            x: int = field(kw_only=True)
