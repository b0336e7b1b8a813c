"""Shared-resource primitives for simulation processes.

Three families, mirroring what the transport and runtime models need:

* :class:`Resource` / :class:`PriorityResource` — capacity-limited servers
  (CPU cores, NIC DMA engines, switch ports).
* :class:`Store` — FIFO channel of Python objects with optional capacity
  (socket buffers, descriptor queues, filter streams).
* :class:`Container` — a counted pool of indistinguishable units
  (flow-control credits).

All blocking operations return events to be ``yield``-ed by a process.
``Store.put_nowait`` and ``Container.put_nowait`` are the exception: a
producer that never waits for acceptance gets no event, so none is
scheduled (see docs/ARCHITECTURE.md, "Kernel performance").  Likewise
:meth:`Resource.use` and :meth:`Resource.occupy` cost one event per hold:
the request itself fires when the hold ends.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import _UNSET, Event, _bad_delay

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = [
    "Request",
    "Resource",
    "PriorityResource",
    "Store",
    "Container",
]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Yield it to wait for the grant; pass it to :meth:`Resource.release`
    when done.  If the waiting process is interrupted, call :meth:`cancel`
    to withdraw from the queue.

    A *hold* (``_hold`` is a duration, set by :meth:`Resource.use` and
    :meth:`Resource.occupy`) fires ``_hold`` seconds after its grant
    instead of at it, so the claim and the hold are one event.
    """

    __slots__ = ("resource", "priority", "_hold")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        # Event.__init__ inlined: one request per CPU charge makes this a
        # hot constructor.
        self.sim = resource.sim
        self.callbacks = None
        self._value = _UNSET
        self._ok = None
        self.defused = False
        self._cancelled = False
        self.resource = resource
        self.priority = priority
        self._hold: Optional[float] = None

    def cancel(self) -> None:
        """Withdraw this request.

        Safe to call in any state: a queued request is removed from the
        queue; a granted request is released (a granted hold's pending
        end is tombstoned first); a processed-and-released request is
        ignored.
        """
        self.resource._cancel(self)


class Resource:
    """A server with ``capacity`` concurrent slots and a FIFO wait queue.

    Examples
    --------
    ::

        cpu = Resource(sim, capacity=2)

        def job(sim, cpu):
            req = cpu.request()
            yield req
            try:
                yield sim.timeout(0.010)
            finally:
                cpu.release(req)
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()

    # -- introspection ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of granted (busy) slots."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    # -- queue discipline (overridden by PriorityResource) -----------------------

    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)

    def _dequeue(self) -> Optional[Request]:
        return self._queue.popleft() if self._queue else None

    def _remove_from_queue(self, request: Request) -> bool:
        try:
            self._queue.remove(request)
            return True
        except ValueError:
            return False

    # -- public API ---------------------------------------------------------------

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event fires when granted."""
        req = Request(self, priority)
        users = self._users
        if len(users) < self.capacity and not self._queue:
            users.append(req)
            req.succeed(req)
        else:
            self._enqueue(req)
        return req

    def release(self, request: Request) -> None:
        """Free the slot held by *request* and grant the next waiter."""
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError(
                f"release() of a request not holding {self.name or 'resource'}"
            ) from None
        if self._queue:
            self._grant_next()

    def use(self, duration: float, priority: int = 0) -> Generator[Event, Any, None]:
        """Convenience: acquire, hold for *duration*, release.

        Intended for ``yield from cpu.use(t)`` — the canonical way the
        library charges CPU time to a host.  The claim and the hold are
        one event: the request fires *duration* after its grant, so the
        process resumes once, when the hold ends.  If the process is
        interrupted (or closed) while queued or holding, the request is
        withdrawn and the slot freed.
        """
        req = self._hold_request(duration, priority)
        try:
            yield req
        except BaseException:
            self._cancel(req)
            raise
        self.release(req)

    def occupy(self, duration: float) -> Request:
        """Hold one slot for *duration* with no waiting process.

        Background occupancy for work nobody blocks on (the fluid
        transfer mode charges a collapsed bulk transfer's overlapped
        receive work on the destination host this way).  FIFO-fair with
        :meth:`request`: a free slot is claimed at once, while a busy
        resource queues the claim like any other request and the hold
        starts when it is granted.  Either way the hold costs one event,
        the returned request firing at its end with :meth:`release` as
        its sole callback, and ``count`` and ``queue_length`` see the
        occupancy, so idle checks and later requesters queue behind it.
        """
        req = self._hold_request(duration)
        req.callbacks = self.release
        return req

    # -- internals -------------------------------------------------------------------

    def _hold_request(self, duration: float, priority: int = 0) -> Request:
        """A request that fires *duration* after its grant: granted (and
        its end scheduled) now on a free slot, else queued."""
        if not duration >= 0:
            raise _bad_delay(duration)
        req = Request(self, priority)
        req._hold = duration
        users = self._users
        if len(users) < self.capacity and not self._queue:
            users.append(req)
            self._start_hold(req, duration)
        else:
            self._enqueue(req)
        return req

    def _start_hold(self, request: Request, duration: float) -> None:
        """Trigger a granted hold and schedule it *duration* from now.

        The sequence number is drawn here, at the grant, so hold ends
        keep grant order among themselves.
        """
        request._ok = True
        request._value = request
        self.sim.schedule(request, duration)

    def _grant(self, request: Request) -> None:
        self._users.append(request)
        if request._hold is None:
            request.succeed(request)
        else:
            self._start_hold(request, request._hold)

    def _grant_next(self) -> None:
        while len(self._users) < self.capacity:
            nxt = self._dequeue()
            if nxt is None:
                return
            self._grant(nxt)

    def _cancel(self, request: Request) -> None:
        if self._remove_from_queue(request):
            return
        if request in self._users:
            if request._hold is not None:
                # Tombstone the scheduled hold end so it never pops.
                Event.cancel(request)
            self.release(request)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} {self.name!r} {self.count}/{self.capacity}"
            f" busy, {self.queue_length} queued>"
        )


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is ordered by ``priority`` (low first).

    Ties break FIFO via a monotone sequence number.  The wait queue is a
    heap of ``(priority, seq, request)`` kept in ``_queue``, so the base
    class's emptiness checks in :meth:`request` and :meth:`release` see it.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        super().__init__(sim, capacity, name)
        self._queue: List[Tuple[int, int, Request]] = []  # type: ignore[assignment]
        self._pseq = 0

    def _enqueue(self, request: Request) -> None:
        heapq.heappush(self._queue, (request.priority, self._pseq, request))
        self._pseq += 1

    def _dequeue(self) -> Optional[Request]:
        if self._queue:
            return heapq.heappop(self._queue)[2]
        return None

    def _remove_from_queue(self, request: Request) -> bool:
        for i, (_prio, _seq, req) in enumerate(self._queue):
            if req is request:
                # Lazy deletion would complicate queue_length; rebuild instead
                # (queues here are short: per-core or per-port).
                del self._queue[i]
                heapq.heapify(self._queue)
                return True
        return False


class Store:
    """A FIFO channel of arbitrary items with optional capacity.

    This is the backbone of every queue in the stack: socket buffers, VIA
    descriptor rings, DataCutter streams.

    * ``get()`` returns an event that fires with the next item.
    * ``put(item)`` returns an event that fires once the item is accepted
      (immediately if there is space).  Use it when the producer waits
      for acceptance, i.e. on a bounded store.
    * ``put_nowait(item)`` offers the item with no event at all.  It is
      for producers that never wait: the item goes to the first waiting
      getter or onto the buffer, or, on a full store, queues as an
      event-less putter in the same FIFO as the ``put()`` putters.
    * ``try_put``/``try_get`` move an item only if that is possible right
      now, and schedule nothing.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float = float("inf"),
        name: str = "",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        #: Blocked putters, FIFO.  The event is ``None`` for a
        #: :meth:`put_nowait` item, which nobody waits on.
        self._putters: Deque[Tuple[Optional[Event], Any]] = deque()

    # -- introspection ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def peek(self) -> Any:
        """The next item to be delivered, without removing it."""
        if not self._items:
            raise SimulationError(f"peek() on empty store {self.name!r}")
        return self._items[0]

    # -- operations --------------------------------------------------------------------

    def put(self, item: Any) -> Event:
        """Offer *item*; the event fires when the store accepts it."""
        ev = self.sim.event()
        self._putters.append((ev, item))
        self._settle()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Offer *item* without an acceptance event.

        Moves items exactly as :meth:`put` does, minus the event: the
        first waiting getter takes the item, else it is buffered, else
        (full store) it waits behind the blocked putters in FIFO order.
        """
        if not self._putters and len(self._items) < self.capacity:
            getters = self._getters
            if getters:
                # A waiting getter implies an empty buffer.
                getters.popleft().succeed(item)
            else:
                self._items.append(item)
        else:
            self._putters.append((None, item))
            self._settle()

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: True if accepted immediately."""
        if len(self._items) < self.capacity or self._getters:
            self.put_nowait(item)
            return True
        return False

    def get(self) -> Event:
        """Take the next item; the event fires with it as value."""
        ev = self.sim.event()
        items = self._items
        if items and not self._getters and not self._putters:
            # Nothing else waits: hand the head item over directly.
            ev.succeed(items.popleft())
            return ev
        self._getters.append(ev)
        self._settle()
        return ev

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        items = self._items
        if not items:
            return False, None
        item = items.popleft()
        if self._putters:
            # The freed slot admits the next blocked putter.
            self._settle()
        return True, item

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending get (e.g. after an interrupt)."""
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    def cancel_put(self, event: Event) -> None:
        """Withdraw a pending put."""
        for i, (ev, _item) in enumerate(self._putters):
            if ev is event:
                del self._putters[i]
                return

    # -- internals --------------------------------------------------------------------

    def _settle(self) -> None:
        """Move items from putters to the buffer to getters until blocked."""
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self._items) < self.capacity:
                ev, item = self._putters.popleft()
                self._items.append(item)
                if ev is not None:
                    ev.succeed()
                progressed = True
            while self._getters and self._items:
                ev = self._getters.popleft()
                ev.succeed(self._items.popleft())
                progressed = True

    def __repr__(self) -> str:  # pragma: no cover
        cap = "inf" if self.capacity == float("inf") else str(self.capacity)
        return f"<Store {self.name!r} {len(self._items)}/{cap}>"


class Container:
    """A counted pool of indistinguishable units (e.g. flow-control credits).

    ``get(n)`` blocks until *n* units are available; ``put(n)`` returns
    units (blocking only if a finite capacity would overflow), and
    ``put_nowait(n)`` does the same with no event for the caller.  Waiters are
    served FIFO, and a large ``get`` at the head of the queue blocks later
    small ones — the conservative discipline credit protocols need.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float = float("inf"),
        init: float = 0,
        name: str = "",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must satisfy 0 <= init <= capacity")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = init
        self._getters: Deque[Tuple[Event, float]] = deque()
        #: Blocked putters, FIFO; ``None`` marks a :meth:`put_nowait`.
        self._putters: Deque[Tuple[Optional[Event], float]] = deque()

    @property
    def level(self) -> float:
        """Units currently available."""
        return self._level

    def get(self, amount: float = 1) -> Event:
        """Take *amount* units, blocking until available."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        ev = self.sim.event()
        self._getters.append((ev, amount))
        self._settle()
        return ev

    def put(self, amount: float = 1) -> Event:
        """Return *amount* units, blocking if capacity would overflow."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self.capacity:
            raise ValueError("amount exceeds container capacity")
        ev = self.sim.event()
        self._putters.append((ev, amount))
        self._settle()
        return ev

    def put_nowait(self, amount: float = 1) -> None:
        """Return *amount* units without an acceptance event.

        Same FIFO discipline as :meth:`put`: the units are added now if
        they fit and no putter is blocked, else they wait behind the
        blocked putters.
        """
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self.capacity:
            raise ValueError("amount exceeds container capacity")
        if not self._putters and self._level + amount <= self.capacity:
            self._level += amount
            if self._getters:
                self._settle()
        else:
            self._putters.append((None, amount))
            self._settle()

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                ev, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    if ev is not None:
                        ev.succeed()
                    progressed = True
            if self._getters:
                ev, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    ev.succeed()
                    progressed = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Container {self.name!r} level={self._level}/{self.capacity}>"
