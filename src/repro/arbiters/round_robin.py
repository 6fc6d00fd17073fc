"""Round-robin arbiter with iSLIP pointer semantics."""

from typing import Iterable, Optional


class RoundRobinArbiter:
    """Round-robin arbiter over integer request indices ``[0, size)``.

    The pointer designates the highest-priority request index.
    :meth:`select` does not move it; :meth:`update` moves it to one
    beyond the granted index, which is the iSLIP priority-update rule
    (McKeown, 1999): the granted requester becomes the lowest priority
    for the next allocation. Callers thus update only on accepted grants.
    """

    def __init__(self, size: int, start: int = 0) -> None:
        if size <= 0:
            raise ValueError(f"arbiter size must be positive, got {size}")
        self.size = size
        if not 0 <= start < size:
            raise ValueError(f"start pointer {start} out of range [0, {size})")
        self.pointer = start

    def select(self, requests: Iterable[int]) -> Optional[int]:
        """The winning request index, or ``None`` if no requests.

        Indices outside ``[0, size)`` raise :class:`ValueError`.
        """
        reqs = self._validate(requests)
        if not reqs:
            return None
        req_set = set(reqs)
        for offset in range(self.size):
            idx = (self.pointer + offset) % self.size
            if idx in req_set:
                return idx
        return None

    def update(self, granted: int) -> None:
        if not 0 <= granted < self.size:
            raise ValueError(f"granted index {granted} out of range [0, {self.size})")
        self.pointer = (granted + 1) % self.size

    def _validate(self, requests: Iterable[int]) -> list:
        reqs = list(requests)
        for r in reqs:
            if not 0 <= r < self.size:
                raise ValueError(f"request index {r} out of range [0, {self.size})")
        return reqs

    def reset(self) -> None:
        """Return the pointer to index 0."""
        self.pointer = 0

    def state_dict(self) -> dict:
        return {"pointer": self.pointer}

    def load_state(self, state: dict) -> None:
        self.pointer = state["pointer"]
