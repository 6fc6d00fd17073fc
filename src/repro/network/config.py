"""Network configuration."""

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.core.chaining import ChainingScheme


@dataclass
class NetworkConfig:
    """Configuration mirroring the paper's methodology (Section 3).

    Defaults are the paper's default configuration: 8x8 mesh, DOR, 4 VCs
    with 8 statically-assigned buffer slots each, single-iteration iSLIP
    combined switch/VC allocator, incremental allocation, equal packet
    priorities, starvation control disabled, chaining disabled.
    """

    # --- topology / routing ---
    topology: str = "mesh"  # "mesh" | "fbfly" | "torus" | "cmesh"
    mesh_k: int = 8  # also the torus/cmesh radix
    cmesh_concentration: int = 4
    fbfly_rows: int = 4
    fbfly_cols: int = 4
    fbfly_concentration: int = 4
    routing: str = "dor"  # "dor" | "ugal"

    # --- router resources ---
    num_vcs: int = 4
    vc_buf_depth: int = 8
    num_classes: int = 1  # UGAL requires 2; VCs are split evenly

    # --- allocation ---
    allocator: str = "islip1"  # switch allocator kind
    pc_allocator: str = "islip1"  # PC allocator kind (paper: iSLIP-1)
    chaining: ChainingScheme = ChainingScheme.DISABLED
    #: Enable the two-class speculative PC requests of Section 2.4.
    pc_priorities: bool = True
    #: "combined" (Kumar et al., the paper's router: output VCs are
    #: assigned to switch-allocation winners), "split" (a separate VC
    #: allocator runs a pipeline stage ahead of SA, as in Mullins et
    #: al.; holds output VCs earlier and leaves fewer free for chaining)
    #: or "speculative" (split VA where unallocated heads also bid SA
    #: speculatively in the same cycle; the SA grant is only used if the
    #: VA grant arrives too — Peh & Dally / Mullins, cited in §4.9).
    vc_allocation: str = "combined"

    #: Pseudo-circuit semantics (Ahn & Kim, MICRO 2010; the paper's
    #: Related Work): release a held connection as soon as a packet from
    #: another input VC requests the connected output — prioritizing
    #: latency, "whereas packet chaining maintains the connection in
    #: order to improve allocation efficiency under load". Combine with
    #: chaining=SAME_VC to model pseudo-circuits.
    pseudo_circuit_release: bool = False

    # --- starvation control (Section 2.5) ---
    starvation_threshold: Optional[int] = None  # THRESHOLD mode if set
    age_period: Optional[int] = None  # AGE mode if set (and threshold unset)

    # --- timing ---
    credit_delay: int = 2  # "two cycles to generate and transmit credits"
    injection_channel_delay: int = 1

    # --- misc ---
    seed: int = 1

    def __post_init__(self):
        self.chaining = ChainingScheme.parse(self.chaining)
        if self.topology not in ("mesh", "fbfly", "torus", "cmesh"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.routing not in ("dor", "ugal"):
            raise ValueError(f"unknown routing {self.routing!r}")
        if self.topology == "fbfly" and self.routing == "ugal":
            self.num_classes = 2
        if self.topology == "torus":
            # Dateline deadlock avoidance needs two VC classes.
            self.num_classes = 2
        if self.num_vcs % self.num_classes != 0:
            raise ValueError(
                f"num_vcs={self.num_vcs} not divisible by num_classes={self.num_classes}"
            )
        if self.num_vcs < 1 or self.vc_buf_depth < 1:
            raise ValueError("num_vcs and vc_buf_depth must be >= 1")
        if self.starvation_threshold is not None and self.starvation_threshold < 1:
            raise ValueError("starvation_threshold must be >= 1")
        if self.vc_allocation not in ("combined", "split", "speculative"):
            raise ValueError(f"unknown vc_allocation {self.vc_allocation!r}")

    def to_dict(self):
        """JSON-serializable dict (enums become their value strings)."""
        data = dataclasses.asdict(self)
        data["chaining"] = self.chaining.value
        return data

    @classmethod
    def from_dict(cls, data):
        # Configs saved before the simulator had one core carry the
        # retired "backend" field (an execution detail that was never
        # part of config_hash); checkpoints, job specs and shard
        # out-dirs written then must still load.
        data = {k: v for k, v in data.items() if k != "backend"}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @property
    def vcs_per_class(self):
        return self.num_vcs // self.num_classes

    def vc_class_range(self, vc_class):
        """The VC indices belonging to a traffic class."""
        per = self.vcs_per_class
        return range(vc_class * per, (vc_class + 1) * per)

    def class_of_vc(self, vc):
        return vc // self.vcs_per_class


def mesh_config(**overrides):
    """The paper's default mesh configuration (Section 3)."""
    return NetworkConfig(topology="mesh", routing="dor", **overrides)


def fbfly_config(**overrides):
    """The paper's default FBFly configuration (Section 3)."""
    return NetworkConfig(topology="fbfly", routing="ugal", **overrides)


def torus_config(**overrides):
    """8x8 torus with dateline DOR (extension study)."""
    return NetworkConfig(topology="torus", routing="dor", **overrides)


def cmesh_config(**overrides):
    """4x4 concentrated mesh, 4 terminals/router (extension study)."""
    overrides.setdefault("mesh_k", 4)
    return NetworkConfig(topology="cmesh", routing="dor", **overrides)
