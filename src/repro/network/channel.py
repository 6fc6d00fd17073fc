"""Pipelined channels for flits and credits."""

from collections import deque

from repro.network.flit import Flit


class PipelinedChannel:
    """A fixed-latency channel modeled as a timestamped FIFO.

    ``send(item, now)`` schedules delivery at ``now + delay``;
    ``receive(now)`` pops every item due at ``now``. Sends must be
    issued with non-decreasing timestamps, which the cycle loop
    guarantees.
    """

    __slots__ = ("delay", "_queue")

    def __init__(self, delay):
        if delay < 1:
            raise ValueError(f"channel delay must be >= 1, got {delay}")
        self.delay = delay
        self._queue = deque()

    def send(self, item, now):
        self._queue.append((now + self.delay, item))

    def receive(self, now):
        """Pop and return all items due at cycle ``now`` (in send order)."""
        out = []
        q = self._queue
        while q and q[0][0] <= now:
            due, item = q[0]
            if due < now:
                raise AssertionError("channel item missed its delivery cycle")
            q.popleft()
            out.append(item)
        return out

    def __len__(self):
        return len(self._queue)

    def state_dict(self, ctx):
        """Serialize the in-flight items (flits or credit VC indices).

        Due cycles are absolute, so the restored network must resume at
        the same ``Network.cycle`` the snapshot was taken at.
        """
        items = []
        for due, item in self._queue:
            if isinstance(item, Flit):
                items.append({"due": due, "flit": ctx.flit(item)})
            else:
                items.append({"due": due, "credit": item})
        return {"items": items}

    def load_state(self, state, ctx):
        self._queue.clear()
        for entry in state["items"]:
            if "flit" in entry:
                self._queue.append((entry["due"], ctx.flit(entry["flit"])))
            else:
                self._queue.append((entry["due"], entry["credit"]))

    def absorb_state(self, state, ctx):
        """Append serialized items to the queue (shard boundary import).

        Unlike :meth:`load_state` this keeps existing items: a channel
        whose delay exceeds the lookahead window legitimately holds
        imports from several windows at once. Items arrive in send
        order per window and windows are imported in order, so due
        timestamps stay non-decreasing (asserted against the tail).
        """
        entries = state["items"]
        if not entries:
            return
        q = self._queue
        if q and q[-1][0] > entries[0]["due"]:
            raise AssertionError(
                "boundary import would reorder channel deliveries"
            )
        for entry in entries:
            if "flit" in entry:
                q.append((entry["due"], ctx.flit(entry["flit"])))
            else:
                q.append((entry["due"], entry["credit"]))

    def items(self):
        """The queued payloads, in send order (introspection only).

        The invariant checker walks channel contents to prove credit
        conservation; callers must not mutate the underlying queue.
        """
        return (item for _, item in self._queue)

    @property
    def in_flight(self):
        return len(self._queue)
