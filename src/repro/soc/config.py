"""System configurations (paper Tables II & III).

The seven evaluated systems:

========  ============================================================
``1L``    one little core (the normalization baseline of Fig. 4)
``1b``    one big out-of-order core
``1bIV``  big core + 128-bit integrated vector unit
``1b-4L`` one big + four little cores (conventional big.LITTLE)
``1bIV-4L``  ``1b-4L`` with the IVU in the big core (area-comparable)
``1bDV``  big core + 2048-bit decoupled vector engine (Tarantula-like)
``1b-4VL``  big.VLITTLE: big core + VLITTLE engine of four little cores
========  ============================================================
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace

from repro.errors import ConfigError


@dataclass
class MemConfig:
    """Cache/DRAM parameters shared by every system (paper Table II)."""

    l1_size: int = 32 * 1024
    l1_assoc: int = 2
    l1_hit_latency: int = 2
    l1i_hit_latency: int = 1
    l1_mshrs: int = 16
    l2_size: int = 1024 * 1024
    l2_assoc: int = 8
    l2_banks: int = 4
    l2_latency: int = 12
    dram_latency: int = 80
    dram_line_interval: int = 2
    line_bytes: int = 64


@dataclass
class SoCConfig:
    name: str
    n_big: int = 1
    n_little: int = 4
    vector: str = "none"  # none | ivu | dve | vlittle
    # VLITTLE engine knobs (paper §III / Fig. 7 / Fig. 8)
    chimes: int = 2
    packed: bool = True
    vmu_loadq: int = 64
    vmu_storeq: int = 64
    switch_penalty: int = 500
    vxu_extra_latency: int = 2  # ring; ~0 models a crossbar VXU
    coalesce_width: int = 4  # indexed elements examined per VMIU cycle
    # integrated unit
    ivu_vlen_bits: int = 128
    # decoupled engine
    dve_vlen_bits: int = 2048
    dve_lanes: int = 16
    # clocks (GHz); paper §IV: all at 1 GHz for §V, scaled in §VII
    freq_big: float = 1.0
    freq_little: float = 1.0
    freq_mem: float = 1.0
    mem: MemConfig = field(default_factory=MemConfig)

    def __post_init__(self):
        if self.vector not in ("none", "ivu", "dve", "vlittle"):
            raise ConfigError(f"unknown vector type {self.vector!r}")
        if self.vector == "ivu" and self.n_big < 1:
            raise ConfigError("an integrated vector unit needs a big core")
        if self.vector == "vlittle" and (self.n_big < 1 or self.n_little < 1):
            raise ConfigError("big.VLITTLE needs a big core and little cores")
        if self.n_big < 0 or self.n_little < 0 or self.n_big + self.n_little == 0:
            raise ConfigError("need at least one core")

    # ------------------------------------------------------------------ clocks

    def period_big(self):
        return max(1, round(1000 / self.freq_big))

    def period_little(self):
        return max(1, round(1000 / self.freq_little))

    def period_mem(self):
        return max(1, round(1000 / self.freq_mem))

    # ------------------------------------------------------------------ vector

    def vlen_bits(self, ew=4):
        """Hardware vector length visible to trace generation."""
        if self.vector == "ivu":
            return self.ivu_vlen_bits
        if self.vector == "dve":
            return self.dve_vlen_bits
        if self.vector == "vlittle":
            pack = max(1, 8 // ew) if self.packed else 1
            return self.chimes * self.n_little * pack * ew * 8
        return 0

    # ------------------------------------------------------------ identity

    def to_dict(self):
        """Plain-dict form of the *complete* configuration (``mem`` nested).

        Equal to ``dataclasses.asdict(self)``, built straight from the
        fields: every value is an immutable scalar, so the recursive deep
        copy ``asdict`` makes buys nothing, and this dict feeds every
        result-cache key.
        """
        d = {name: getattr(self, name) for name in _SOC_FIELDS}
        d["mem"] = {name: getattr(self.mem, name) for name in _MEM_FIELDS}
        return d

    @classmethod
    def from_dict(cls, d):
        """Rebuild a config from :meth:`to_dict` output."""
        d = dict(d)
        mem = d.pop("mem", None)
        if isinstance(mem, MemConfig):
            d["mem"] = mem
        elif mem is not None:
            d["mem"] = MemConfig(**mem)
        return cls(**d)

    def canonical_json(self):
        """Deterministic JSON of every field — the cache-key payload.

        Keys are sorted and separators fixed so two equal configs always
        serialize to the same bytes regardless of construction order.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self):
        """Stable content hash of the full configuration."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def with_freqs(self, big=None, little=None):
        """A copy at different cluster frequencies (Figs. 9-11)."""
        return replace(
            self,
            freq_big=big if big is not None else self.freq_big,
            freq_little=little if little is not None else self.freq_little,
        )

    def scaled(self, **kw):
        return replace(self, **kw)


_SOC_FIELDS = tuple(f.name for f in fields(SoCConfig))
_MEM_FIELDS = tuple(f.name for f in fields(MemConfig))


def preset(name, **overrides):
    """Build one of the paper's named systems (Table III)."""
    base = {
        "1L": dict(n_big=0, n_little=1, vector="none"),
        "1b": dict(n_big=1, n_little=0, vector="none"),
        "1bIV": dict(n_big=1, n_little=0, vector="ivu"),
        "1b-4L": dict(n_big=1, n_little=4, vector="none"),
        "1bIV-4L": dict(n_big=1, n_little=4, vector="ivu"),
        "1bDV": dict(n_big=1, n_little=0, vector="dve"),
        "1b-4VL": dict(n_big=1, n_little=4, vector="vlittle"),
    }
    if name not in base:
        raise ConfigError(f"unknown system preset {name!r}; choose from {sorted(base)}")
    kw = dict(base[name])
    kw.update(overrides)
    # memory parameters may be given as a partial dict: preset("1b", mem={...})
    if isinstance(kw.get("mem"), dict):
        kw["mem"] = MemConfig(**kw["mem"])
    return SoCConfig(name=name, **kw)


SYSTEM_NAMES = ["1L", "1b", "1bIV", "1b-4L", "1bIV-4L", "1bDV", "1b-4VL"]
