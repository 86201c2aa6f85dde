"""Deterministic fault injection for the serving runtime's durable state.

Robustness claims are only as good as the failures they were tested against,
and real failures (a torn disk write, an fsync that never returns) are
miserable to reproduce.  :class:`FaultInjector` makes them cheap and
*deterministic*: a seeded registry of fault specs, keyed by **site** name
(``"wal.append"``, ``"wal.torn"``, ``"wal.fsync"``, ``"store.record"``).
Production code calls :meth:`FaultInjector.hit` at each site; with no spec
armed that is one dict lookup, so the hooks stay in the hot path
permanently.  Tests arm :class:`FaultSpec` objects (raise / torn byte
truncation, with probability, count and trigger-offset controls) and replay
the exact same failure schedule from the same seed.

Everything here is dependency-free and importable from kernels to tests.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class InjectedFault(RuntimeError):
    """A failure raised by an armed :class:`FaultSpec`; carries its site."""

    def __init__(self, site: str, message: str = ""):
        super().__init__(message or f"injected fault at {site!r}")
        self.site = site


@dataclass
class FaultSpec:
    """One armed failure mode at one site.

    Parameters
    ----------
    site:
        The site name the spec listens on.
    kind:
        ``"raise"`` (throw :class:`InjectedFault`) or ``"torn"`` (truncate
        the bytes offered to :meth:`FaultInjector.torn` — the
        torn-write/partial-append fault).
    probability:
        Chance an eligible hit fires, drawn from the spec's own seeded RNG
        so schedules replay exactly.  ``1.0`` fires every eligible hit.
    times:
        Stop firing after this many firings (``None``: unbounded).
    after:
        Skip the first ``after`` eligible hits before becoming live —
        "fail the third append" is ``after=2, times=1``.
    keep_bytes:
        For ``kind="torn"``: bytes of the offered payload to keep.  ``0``
        keeps the first half.
    match:
        Only hits whose context string contains this substring are eligible
        (e.g. target one model or one user id).
    """

    site: str
    kind: str = "raise"
    probability: float = 1.0
    times: Optional[int] = None
    after: int = 0
    keep_bytes: int = 0
    match: Optional[str] = None
    #: Bookkeeping (advanced by the injector on every eligible hit).
    fired: int = 0
    seen: int = 0
    _rng: random.Random = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in ("raise", "torn"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


class FaultInjector:
    """A seeded schedule of failures at named sites.

    The same seed and the same sequence of ``hit``/``torn`` calls produce
    the same firings — fault tests are reproducible runs, not dice rolls.
    An injector with nothing armed is effectively free (one attribute read
    per site), so production paths keep their hooks unconditionally; the
    module-level :data:`NULL_INJECTOR` is the shared always-quiet default.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._specs: Dict[str, List[FaultSpec]] = {}

    def arm(self, site: str, kind: str = "raise", **kwargs) -> FaultSpec:
        """Arm one :class:`FaultSpec` at ``site``; returns it for inspection."""
        spec = FaultSpec(site=site, kind=kind, **kwargs)
        bucket = self._specs.setdefault(site, [])
        token = f"{self.seed}:{site}:{len(bucket)}"
        spec._rng = random.Random(zlib.crc32(token.encode("utf-8")))
        bucket.append(spec)
        return spec

    def reset(self) -> None:
        """Disarm everything (counters on returned specs are preserved)."""
        self._specs = {}

    def fired(self, site: str) -> int:
        """Total firings at ``site`` across all armed specs."""
        return sum(spec.fired for spec in self._specs.get(site, ()))

    def _due(self, spec: FaultSpec, context: str) -> bool:
        """Whether one eligible hit fires ``spec`` (advances its counters)."""
        if spec.match is not None and spec.match not in context:
            return False
        spec.seen += 1
        if spec.seen <= spec.after:
            return False
        if spec.times is not None and spec.fired >= spec.times:
            return False
        if spec.probability < 1.0 and spec._rng.random() >= spec.probability:
            return False
        spec.fired += 1
        return True

    def hit(self, site: str, context: str = "") -> None:
        """Pass through ``site``: raise if an armed ``raise`` spec fires."""
        if not self._specs:
            return
        for spec in self._specs.get(site, ()):
            if spec.kind == "raise" and self._due(spec, context):
                raise InjectedFault(site)

    def torn(self, site: str, data: bytes, context: str = "") -> Optional[bytes]:
        """The truncated payload a torn-write fault leaves, or ``None``.

        Callers write the returned prefix in place of ``data`` and then
        simulate the crash (typically by raising) — recovery-side code must
        cope with the resulting partial record.
        """
        if not self._specs:
            return None
        for spec in self._specs.get(site, ()):
            if spec.kind == "torn" and self._due(spec, context):
                keep = spec.keep_bytes if spec.keep_bytes > 0 else max(1, len(data) // 2)
                return data[:min(keep, len(data) - 1)]
        return None


#: The shared always-quiet injector production paths default to.
NULL_INJECTOR = FaultInjector()
