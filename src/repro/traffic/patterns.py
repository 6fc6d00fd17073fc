"""Spatial traffic patterns (Dally & Towles, chapter 3; BookSim names).

The paper evaluates uniform random, random permutation, shuffle, bit
complement and tornado on the mesh, adding transpose and neighbor on
the FBFly (Section 3). Patterns are defined over terminal indices; the
digit/bit-based patterns view the 64 terminals as an 8x8 logical grid
(or a 6-bit address), matching BookSim's conventions.
"""

import math
from abc import ABC, abstractmethod


class TrafficPattern(ABC):
    """Maps a source terminal to a destination terminal."""

    def __init__(self, num_terminals):
        if num_terminals < 2:
            raise ValueError("need at least 2 terminals")
        self.num_terminals = num_terminals

    @abstractmethod
    def dest(self, src, rng):
        """Destination terminal for a packet from ``src``."""


class UniformRandom(TrafficPattern):
    """Each packet goes to a uniformly random other terminal."""

    def dest(self, src, rng):
        d = rng.randrange(self.num_terminals - 1)
        return d if d < src else d + 1


class RandomPermutation(TrafficPattern):
    """A fixed random permutation, chosen once per simulation seed."""

    def __init__(self, num_terminals, rng):
        super().__init__(num_terminals)
        while True:
            perm = list(range(num_terminals))
            rng.shuffle(perm)
            if all(perm[i] != i for i in range(num_terminals)):
                break
        self.perm = perm

    def dest(self, src, rng):
        return self.perm[src]


class _GridPattern(TrafficPattern):
    """Base for patterns defined on a sqrt(N) x sqrt(N) logical grid."""

    def __init__(self, num_terminals):
        super().__init__(num_terminals)
        k = int(round(math.sqrt(num_terminals)))
        if k * k != num_terminals:
            raise ValueError(f"{type(self).__name__} needs a square terminal count")
        self.k = k

    def _coords(self, t):
        return t % self.k, t // self.k

    def _terminal(self, x, y):
        return y * self.k + x


class Shuffle(TrafficPattern):
    """Bit shuffle: rotate the terminal address left by one bit."""

    def __init__(self, num_terminals):
        super().__init__(num_terminals)
        bits = num_terminals.bit_length() - 1
        if 1 << bits != num_terminals:
            raise ValueError("shuffle needs a power-of-two terminal count")
        self.bits = bits

    def dest(self, src, rng):
        mask = self.num_terminals - 1
        return ((src << 1) | (src >> (self.bits - 1))) & mask


class BitComplement(TrafficPattern):
    """Destination is the bitwise complement of the source address."""

    def __init__(self, num_terminals):
        super().__init__(num_terminals)
        if num_terminals & (num_terminals - 1):
            raise ValueError("bitcomp needs a power-of-two terminal count")

    def dest(self, src, rng):
        return ~src & (self.num_terminals - 1)


class Tornado(_GridPattern):
    """Each grid dimension shifts by ceil(k/2) - 1 (Dally & Towles)."""

    def dest(self, src, rng):
        x, y = self._coords(src)
        shift = (self.k + 1) // 2 - 1
        return self._terminal((x + shift) % self.k, (y + shift) % self.k)


class Transpose(_GridPattern):
    """(x, y) -> (y, x) on the logical grid."""

    def dest(self, src, rng):
        x, y = self._coords(src)
        return self._terminal(y, x)


class Neighbor(_GridPattern):
    """Each grid dimension shifts by +1."""

    def dest(self, src, rng):
        x, y = self._coords(src)
        return self._terminal((x + 1) % self.k, (y + 1) % self.k)


class Hotspot(TrafficPattern):
    """Uniform background with a fraction of traffic aimed at hotspots.

    A standard NoC stress pattern (not in the paper's set, provided for
    ablations): with probability ``fraction`` a packet targets one of
    the ``hotspots``; otherwise the destination is uniform random. This
    is the traffic character that produces the tree saturation the
    paper discusses around Figure 5.
    """

    def __init__(self, num_terminals, hotspots=(0,), fraction=0.2):
        super().__init__(num_terminals)
        if not hotspots:
            raise ValueError("need at least one hotspot")
        for h in hotspots:
            if not 0 <= h < num_terminals:
                raise ValueError(f"hotspot {h} out of range")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.hotspots = tuple(hotspots)
        self.fraction = fraction
        self._uniform = UniformRandom(num_terminals)

    def dest(self, src, rng):
        if rng.random() < self.fraction:
            choice = self.hotspots[rng.randrange(len(self.hotspots))]
            if choice != src:
                return choice
        return self._uniform.dest(src, rng)


#: Pattern sets used in the paper's mesh and FBFly studies (Section 3).
MESH_PATTERNS = ("uniform", "permutation", "shuffle", "bitcomp", "tornado")
FBFLY_PATTERNS = MESH_PATTERNS + ("transpose", "neighbor")


def build_pattern(name, num_terminals, rng):
    """Construct a pattern by its BookSim-style name."""
    name = name.lower()
    if name == "hotspot":
        # Default hotspot config: 10% of traffic to each of 2 corners.
        return Hotspot(num_terminals, hotspots=(0, num_terminals - 1),
                       fraction=0.2)
    if name == "uniform":
        return UniformRandom(num_terminals)
    if name == "permutation":
        return RandomPermutation(num_terminals, rng)
    if name == "shuffle":
        return Shuffle(num_terminals)
    if name == "bitcomp":
        return BitComplement(num_terminals)
    if name == "tornado":
        return Tornado(num_terminals)
    if name == "transpose":
        return Transpose(num_terminals)
    if name == "neighbor":
        return Neighbor(num_terminals)
    raise ValueError(f"unknown traffic pattern {name!r}")
