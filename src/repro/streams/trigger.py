"""Trigger On / Trigger Off — ⊕ON,t / ⊕OFF,t: event-driven stream control.

Table 1: *"Every t time intervals the condition cond is checked on the
tuples collected from s.  If the condition is verified, the streams of the
sensors {s1 ... sn} are (de-)activated."*

This is the paper's headline "event-driven" capability: the Osaka scenario
acquires rain, tweets and traffic *only when* the mean temperature of the
last hour exceeds 25 °C.

Condition context.  The condition is evaluated against a synthesized
payload of **window statistics** so users can express both per-window
aggregates and last-value conditions:

- for every numeric attribute ``a`` of the cached tuples:
  ``avg_a``, ``min_a``, ``max_a``, ``sum_a``, ``last_a``;
- for every non-numeric attribute: ``last_a``;
- ``count``: number of tuples in the window.

The scenario condition is then ``avg_temperature > 25``.  An empty window
never fires (there is no evidence either way).

Triggers are control-plane operators: they emit **no** data tuples; they
issue :class:`repro.streams.base.ControlCommand` to the runtime, which
starts/stops the subscriptions of the target sensors.  A trigger only
issues a command on an *edge* (condition outcome differs from the last
command issued), so a persistently hot hour does not spam activations.

The check window may be longer than the check cadence: ``window`` (default
``interval``) is the sliding lookback over which statistics are computed —
"the temperature identified in the last hour" checked every 5 minutes is
``interval=300, window=3600``.
"""

from __future__ import annotations

from collections.abc import Collection

from repro.errors import DataflowError
from repro.expr.compile import CompiledExpression, compile_expression
from repro.streams.base import BlockingOperator, ControlCommand
from repro.streams.tuple import SensorTuple
from repro.streams.windows import TupleCache

#: Statistic prefixes synthesized for numeric attributes.
STAT_PREFIXES = ("avg", "min", "max", "sum", "last")


def window_statistics(tuples: "Collection[SensorTuple]") -> dict[str, object]:
    """Synthesize the statistics payload trigger conditions run against.

    Accepts any sized iterable of tuples — a list, or a
    :class:`~repro.streams.windows.TupleCache` directly (the trigger's
    flush passes its cache to skip the per-check window copy).
    """
    stats: dict[str, object] = {"count": len(tuples)}
    if not tuples:
        return stats
    numeric: dict[str, list[float]] = {}
    last: dict[str, object] = {}
    for tuple_ in tuples:
        for name, value in tuple_.payload.items():
            last[name] = value
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                numeric.setdefault(name, []).append(float(value))
    for name, values in numeric.items():
        stats[f"avg_{name}"] = sum(values) / len(values)
        stats[f"min_{name}"] = min(values)
        stats[f"max_{name}"] = max(values)
        stats[f"sum_{name}"] = sum(values)
    for name, value in last.items():
        stats[f"last_{name}"] = value
    return stats


class _TriggerBase(BlockingOperator):
    #: True for Trigger On, False for Trigger Off.
    activate_on_fire: bool

    def __init__(
        self,
        interval: float,
        condition: "str | CompiledExpression",
        targets: "list[str] | tuple[str, ...]",
        window: "float | None" = None,
        name: str = "",
        max_cache: int = 100_000,
    ) -> None:
        super().__init__(interval, name)
        if not targets:
            raise DataflowError("trigger needs at least one target sensor")
        if isinstance(condition, str):
            condition = compile_expression(condition)
        self.condition = condition.prepare()
        self.targets = tuple(targets)
        self.window = float(window) if window is not None else self.interval
        if self.window < self.interval:
            raise DataflowError(
                f"trigger window ({self.window}) must cover at least one "
                f"check interval ({self.interval})"
            )
        self.cache = TupleCache(max_tuples=max_cache)
        self._last_command: "bool | None" = None

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        self.cache.add(tuple_)
        return []

    def _process_batch(self, tuples, port: int) -> list[SensorTuple]:
        self.cache.extend(tuples)
        return []

    def _flush(self, now: float) -> list[SensorTuple]:
        self.cache.prune(before=now - self.window)
        if not self.cache:
            return []
        # Non-copying: statistics iterate the cache in place.
        stats_payload = window_statistics(self.cache)
        try:
            fired = self.condition.evaluate_bool(stats_payload)
        except Exception:
            self.stats.errors += 1
            return []
        if fired and self._last_command != self.activate_on_fire:
            self._last_command = self.activate_on_fire
            self._issue_control(
                ControlCommand(
                    activate=self.activate_on_fire,
                    sensor_ids=self.targets,
                    issued_at=now,
                    reason=(
                        f"{self.name}: {self.condition.source} over last "
                        f"{self.window}s window"
                    ),
                )
            )
        elif not fired:
            # Re-arm: the next time the condition holds, fire again.
            self._last_command = None
        return []

    def reset(self) -> None:
        super().reset()
        self.cache.clear()
        self._last_command = None

    def checkpoint(self) -> dict:
        state = super().checkpoint()
        state["cache"] = self.cache.snapshot()
        state["last_command"] = self._last_command
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self.cache.restore(state["cache"])
        self._last_command = state.get("last_command")


class TriggerOnOperator(_TriggerBase):
    """⊕ON,t: activate target sensor streams when the condition holds.

    >>> op = TriggerOnOperator(
    ...     interval=300.0, window=3600.0,
    ...     condition="avg_temperature > 25",
    ...     targets=["rain-osaka", "twitter-osaka", "traffic-osaka"],
    ... )
    """

    activate_on_fire = True

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("name", "trigger-on")
        super().__init__(*args, **kwargs)

    def describe(self) -> str:
        return (
            f"⊕ON,{self.interval}(s, {{{', '.join(self.targets)}}}, "
            f"{self.condition.source})"
        )


class TriggerOffOperator(_TriggerBase):
    """⊕OFF,t: de-activate target sensor streams when the condition holds."""

    activate_on_fire = False

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("name", "trigger-off")
        super().__init__(*args, **kwargs)

    def describe(self) -> str:
        return (
            f"⊕OFF,{self.interval}(s, {{{', '.join(self.targets)}}}, "
            f"{self.condition.source})"
        )
