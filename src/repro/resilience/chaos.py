"""Deterministic fault injection for the resilience layer.

A :class:`ChaosConfig` is a declarative plan of faults — "treat the loss at
training step 3 as NaN", "the re-adaptation worker dies mid-promotion on
cycle 1, once" — evaluated by pure predicates on the global training step
or the re-adaptation cycle.  Nothing is random and nothing reads the
clock, so a chaos run is exactly as reproducible as a clean run; the
``pytest -m chaos`` and ``pytest -m risk`` tiers lean on that to assert
recovery is invisible in the final numbers.

Plans are built in code — ``ChaosConfig((Fault("nan_loss", step=3),))`` —
or parsed from a spec string with :meth:`ChaosConfig.from_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: The training-side kind, consumed by :class:`repro.resilience.GuardRail`.
TRAINING_KINDS = ("nan_loss",)
#: Risk-loop fault kinds: the re-adaptation worker dies between writing a
#: candidate and publishing/acking (``promote_crash``), or a review-queue
#: segment is bit-flipped on disk (``corrupt_segment``).  Diverging
#: re-adaptation reuses ``nan_loss`` — the GuardRail path is identical.
RISK_KINDS = ("promote_crash", "corrupt_segment")
KINDS = TRAINING_KINDS + RISK_KINDS


@dataclass(frozen=True)
class Fault:
    """One injected failure.

    Parameters
    ----------
    kind:
        ``nan_loss`` (the training guard observes a NaN loss at ``step``)
        or one of :data:`RISK_KINDS`.
    step:
        Global training step for ``nan_loss``, re-adaptation cycle for the
        risk kinds; ``None`` matches every step — useful to prove the
        guard's bounded-retry exhaustion path.
    times:
        Risk kinds fire only while the site's occurrence count is below
        ``times``, so a restarted worker escapes a ``times=1`` fault
        deterministically.  ``None`` means "always".
    """

    kind: str
    step: Optional[int] = None
    times: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {KINDS})")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 or None (always)")


@dataclass(frozen=True)
class ChaosConfig:
    """An immutable plan of :class:`Fault` instances."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- training-side ----------------------------------------------------- #
    def nan_loss_at(self, step: int) -> bool:
        """Whether the guard should observe a NaN loss at global ``step``."""
        for fault in self.faults:
            if fault.kind != "nan_loss":
                continue
            if fault.step is not None and fault.step != step:
                continue
            return True
        return False

    # -- risk-loop side ----------------------------------------------------- #
    def risk_fault_at(self, kind: str, cycle: int,
                      occurrence: int = 0) -> bool:
        """Whether a risk-loop fault of ``kind`` fires on worker ``cycle``.

        ``step`` targets a specific re-adaptation cycle (``None`` matches
        every cycle) and ``times`` bounds how often the site fires —
        ``occurrence`` is how many times it already has, so a restarted
        worker escapes a ``times=1`` crash deterministically.
        """
        if kind not in RISK_KINDS:
            raise ValueError(f"not a risk fault kind: {kind!r}")
        for fault in self.faults:
            if fault.kind != kind:
                continue
            if fault.step is not None and fault.step != cycle:
                continue
            if fault.times is not None and occurrence >= fault.times:
                continue
            return True
        return False

    # -- parsing ----------------------------------------------------------- #
    @classmethod
    def from_spec(cls, spec: str) -> "ChaosConfig":
        """Parse ``"nan_loss:step=3;promote_crash:step=1,times=always"``.

        Each ``;``-separated clause is ``kind[:key=value,...]``; integer
        fields accept ``always`` (and ``inf``) for ``times=None``.
        """
        faults = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            kind, __, arg_text = clause.partition(":")
            kwargs = {}
            for item in filter(None, (a.strip() for a in arg_text.split(","))):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(
                        f"bad chaos clause {clause!r}: expected key=value, "
                        f"got {item!r}")
                key = key.strip()
                value = value.strip()
                if key in ("step", "times"):
                    kwargs[key] = (None if value.lower() in ("always", "inf",
                                                             "none")
                                   else int(value))
                else:
                    raise ValueError(
                        f"bad chaos clause {clause!r}: unknown key {key!r}")
            faults.append(Fault(kind.strip(), **kwargs))
        return cls(tuple(faults))


def merge(configs: Sequence[Optional[ChaosConfig]]) -> Optional[ChaosConfig]:
    """Concatenate several optional plans (``None`` entries are skipped)."""
    faults: Tuple[Fault, ...] = ()
    for config in configs:
        if config is not None:
            faults += config.faults
    return ChaosConfig(faults) if faults else None
