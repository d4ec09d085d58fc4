"""Execution-unit pipeline models (ALU, multiplier, divider, AGU).

Each unit tracks its in-flight operations so the tracer can sample
"busy with PC" state per cycle (the EUU-* features of Table IV).

Under lane-batched core simulation (:mod:`repro.uarch.batch_core`) the
units themselves stay scalar — occupancy, latency and scheduling are
timing state shared by every lane — while operand *values* may be numpy
``(n_lanes,)`` uint64 arrays.  :func:`settle_lanes` is the canonical
collapse point: any per-lane value that feeds timing must settle back to
one python int, and a value that cannot settle is a cross-lane
divergence.
"""

from __future__ import annotations

import numpy as np

from repro.isa.semantics import MASK64, to_signed


def settle_lanes(values):
    """Collapse a per-lane value array to a scalar when lanes agree.

    Returns a plain masked int when every lane holds the same value
    (the overwhelmingly common case for constant-time code), otherwise
    the array itself — the caller decides whether a laned value is
    acceptable (register data) or a divergence (addresses, latencies).
    """
    first = values[0]
    if bool((values == first).all()):
        return int(first)
    return values


def _fresh_versions(kind: str) -> dict[str, int]:
    """Version map for a standalone unit (the pool shares one across units).

    ``"active"`` counts in-flight operations across all units sharing the
    map (the core's fully-idle short circuit); the per-kind entries are
    monotonic state versions for the change-detection tracer (EUU-* rows).
    """
    return {"active": 0, kind: 0}


class ExecUnit:
    """One functional unit.

    Pipelined units accept a new operation every cycle; unpipelined units
    (the divider) are busy until their current operation completes.
    """

    __slots__ = ("kind", "index", "pipelined", "in_flight", "versions")

    def __init__(self, kind: str, index: int, *, pipelined: bool,
                 versions: dict[str, int] | None = None):
        self.kind = kind
        self.index = index
        self.pipelined = pipelined
        #: list of (complete_cycle, uop) currently in the unit.
        self.in_flight: list[tuple[int, object]] = []
        self.versions = versions if versions is not None else _fresh_versions(kind)

    def can_accept(self, cycle: int) -> bool:
        if self.pipelined:
            return True
        return not self.in_flight

    def start(self, uop, cycle: int, latency: int) -> int:
        """Begin executing ``uop``; returns its completion cycle."""
        complete = cycle + latency
        self.in_flight.append((complete, uop))
        versions = self.versions
        versions[self.kind] += 1
        versions["active"] += 1
        return complete

    def retire_finished(self, cycle: int) -> list[object]:
        """Remove and return uops whose results complete at ``cycle``."""
        in_flight = self.in_flight
        if not in_flight:
            return []
        done = [uop for (complete, uop) in in_flight if complete <= cycle]
        if done:
            self.in_flight = [(c, u) for (c, u) in in_flight if c > cycle]
            versions = self.versions
            versions[self.kind] += 1
            versions["active"] -= len(done)
        return done

    def squash(self, is_squashed) -> None:
        """Drop in-flight operations for which ``is_squashed(uop)`` holds."""
        in_flight = self.in_flight
        if not in_flight:
            return
        kept = [(c, u) for (c, u) in in_flight if not is_squashed(u)]
        if len(kept) != len(in_flight):
            versions = self.versions
            versions[self.kind] += 1
            versions["active"] -= len(in_flight) - len(kept)
            self.in_flight = kept

    def busy_pcs(self) -> tuple[int, ...]:
        """PCs of the operations currently occupying this unit."""
        return tuple(uop.pc for (_, uop) in self.in_flight)

    @property
    def busy(self) -> bool:
        return bool(self.in_flight)


def divider_latency(a: int, b: int, base_latency: int) -> int:
    """Operand-dependent latency of an early-exit iterative divider.

    Models an SRT-style divider that terminates early for small quotients:
    latency grows with the magnitude of the dividend relative to the divisor.
    Only used when ``CoreConfig.variable_div_latency`` is set.
    """
    magnitude_a = abs(to_signed(a & MASK64))
    magnitude_b = abs(to_signed(b & MASK64)) or 1
    quotient_bits = max(magnitude_a.bit_length() - magnitude_b.bit_length(), 0)
    return 3 + (quotient_bits + 1) // 2


def batch_divider_latency(a_lanes, b_lanes, base_latency: int) -> tuple[int, ...]:
    """Per-lane :func:`divider_latency` over ``(n_lanes,)`` operand arrays.

    The divider is unpipelined and its occupancy is timing state, so a
    lane-batched core can only proceed when every lane's latency agrees;
    the batch core raises a ``div-latency`` divergence otherwise.
    """
    return tuple(
        divider_latency(int(a), int(b), base_latency)
        for a, b in zip(np.asarray(a_lanes), np.asarray(b_lanes))
    )


class ExecUnitPool:
    """All functional units of one core, grouped by kind."""

    def __init__(self, config):
        #: Shared across every unit: live in-flight count ("active") plus one
        #: monotonic version per kind, sampled by the tracer's EUU-* features.
        self.versions = {"active": 0, "alu": 0, "mul": 0, "div": 0, "agu": 0}
        self.alus = [ExecUnit("alu", i, pipelined=True, versions=self.versions)
                     for i in range(config.alu_count)]
        self.muls = [ExecUnit("mul", i, pipelined=True, versions=self.versions)
                     for i in range(config.mul_count)]
        self.divs = [ExecUnit("div", i, pipelined=False, versions=self.versions)
                     for i in range(config.div_count)]
        self.agus = [ExecUnit("agu", i, pipelined=True, versions=self.versions)
                     for i in range(config.agu_count)]
        self.by_kind = {
            "alu": self.alus, "mul": self.muls,
            "div": self.divs, "agu": self.agus,
        }
        self._units = [*self.alus, *self.muls, *self.divs, *self.agus]

    def acquire(self, kind: str, cycle: int) -> ExecUnit | None:
        """Find a unit of ``kind`` able to accept a new op this cycle."""
        for unit in self.by_kind[kind]:
            if unit.can_accept(cycle):
                return unit
        return None

    def retire_finished(self, cycle: int) -> list[object]:
        if not self.versions["active"]:
            return []
        finished = []
        for unit in self._units:
            if unit.in_flight:
                finished.extend(unit.retire_finished(cycle))
        return finished

    def squash(self, is_squashed) -> None:
        if not self.versions["active"]:
            return
        for unit in self._units:
            unit.squash(is_squashed)
