"""FIFO stores — the simulation's mailboxes and channels."""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.events import SimEvent


class _Get:
    """Pending get operation; its ``event`` fires with the item."""

    __slots__ = ("event",)

    def __init__(self, name: str) -> None:
        self.event = SimEvent(name=name)


class Store:
    """An unbounded FIFO queue usable from processes.

    ``store.put(item)`` is immediate (never blocks).  ``yield store.get()``
    suspends the calling process until an item is available.  Items are
    delivered to getters in FIFO order on both sides.
    """

    def __init__(self, name: str = "store") -> None:
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[_Get] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().event.trigger(item)
        else:
            self._items.append(item)

    def get(self) -> _Get:
        get = _Get(name=f"{self.name}.get")
        if self._items:
            get.event.trigger(self._items.popleft())
        else:
            self._getters.append(get)
        return get

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def fail_getters(self, exc: BaseException) -> None:
        """Fail every pending getter with ``exc``.

        Used by place-death propagation: a process blocked on ``get()`` for an
        item that can only come from a dead place must re-raise rather than
        wait forever.  Queued items are untouched — only blocked getters fail.
        """
        getters, self._getters = self._getters, deque()
        for get in getters:
            get.event.fail(exc)
