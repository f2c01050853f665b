"""Search budgets, deadlines, and cooperative cancellation.

The paper bounds each DBS invocation with a wall-clock timeout (3 minutes
on their 2009-era Xeon, §6.4). For determinism in tests we additionally
bound the number of generated expressions and tested programs; whichever
limit trips first ends the search with TIMEOUT.

Two layers of wall-clock control coexist:

* ``Budget.max_seconds`` — the paper's *soft* timeout. When it trips the
  search stops generating but is still allowed a bounded grace sweep
  (testing the partial last generation, one final composition pass), so
  a solution already built is not lost to the cutoff.
* :class:`Deadline` — a *hard* wall. ``DbsOptions.timeout_s`` /
  ``TdsOptions.timeout_s`` arm one, and every loop in the engine —
  enumeration, candidate testing, strategy plugins, conditional cover
  search, loop-body sub-syntheses (which inherit the deadline through
  :meth:`Budget.spawn`) — checks it cooperatively. Past the wall there
  is no grace: the run truncates with a structured
  :class:`~repro.core.dbs.SynthesisTimeout` within one cooperative check
  interval (one primitive evaluation, or a small constant batch of
  guard evaluations).

A :class:`CancelToken` rides on the deadline so an outside actor (a
suite driver, the service dropping a disconnected client's request, a
test harness) can truncate a run the same way the clock does. Checks
are cooperative — nothing is preempted mid-evaluation — which keeps
the partial component pool consistent for warm reuse after truncation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple


class BudgetExhausted(Exception):
    """Raised internally when a search budget runs out."""


class DeadlineExceeded(BudgetExhausted):
    """The hard wall-clock deadline passed (no grace sweep)."""


class Cancelled(BudgetExhausted):
    """A :class:`CancelToken` on the run's deadline was cancelled."""


class CancelToken:
    """Cooperative cancellation: set once (with a reason), checked often.
    Thread-safe."""

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: str = "cancelled"

    def cancel(self, reason: str = "cancelled") -> None:
        self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        if self._event.is_set():
            raise Cancelled(self.reason)


class Deadline:
    """A hard wall-clock expiry plus any number of cancel tokens.

    Immutable; combine two with :meth:`earliest`. ``expires_at`` is on
    the ``time.monotonic`` clock, so deadlines must not cross process
    boundaries (transport the *remaining seconds* and re-arm instead).
    """

    __slots__ = ("expires_at", "tokens")

    def __init__(
        self,
        expires_at: Optional[float] = None,
        tokens: Tuple[CancelToken, ...] = (),
    ) -> None:
        self.expires_at = expires_at
        self.tokens = tokens

    @classmethod
    def after(
        cls, seconds: Optional[float], token: Optional[CancelToken] = None
    ) -> "Deadline":
        """A deadline ``seconds`` from now (None = cancellation only)."""
        expires = None if seconds is None else time.monotonic() + seconds
        return cls(expires, (token,) if token is not None else ())

    @classmethod
    def earliest(
        cls, a: Optional["Deadline"], b: Optional["Deadline"]
    ) -> Optional["Deadline"]:
        """The tighter of two optional deadlines (tokens from both)."""
        if a is None:
            return b
        if b is None:
            return a
        expiries = [e for e in (a.expires_at, b.expires_at) if e is not None]
        return cls(min(expiries) if expiries else None, a.tokens + b.tokens)

    def remaining(self) -> Optional[float]:
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    def why_expired(self) -> Optional[str]:
        """The truncation reason, or None while the deadline holds."""
        for token in self.tokens:
            if token.cancelled:
                return token.reason
        if self.expires_at is not None and time.monotonic() > self.expires_at:
            return "deadline"
        return None

    def expired(self) -> bool:
        return self.why_expired() is not None

    def check(self) -> None:
        for token in self.tokens:
            if token.cancelled:
                raise Cancelled(token.reason)
        if self.expires_at is not None and time.monotonic() > self.expires_at:
            raise DeadlineExceeded("hard deadline exceeded")


@dataclass
class Budget:
    """A mutable budget shared by one DBS invocation.

    ``deadline`` is the hard wall (see module docstring); it is checked
    by every :meth:`check` and separately — with no grace — via
    :meth:`check_deadline`. ``exhausted_reason`` records which limit
    tripped first (``"deadline"``, ``"cancelled: ..."``, ``"time"``,
    ``"expressions"``, ``"programs"``), for the structured timeout
    result and the obs registry.
    """

    max_seconds: Optional[float] = None
    max_expressions: Optional[int] = None
    max_programs: Optional[int] = None
    deadline: Optional[Deadline] = None
    expressions: int = 0
    programs: int = 0
    exhausted_reason: Optional[str] = None
    _start: float = field(default_factory=time.monotonic)

    def restart_clock(self) -> None:
        self._start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def add_deadline(self, deadline: Optional[Deadline]) -> None:
        """Tighten this budget's hard wall (keeps the tighter expiry and
        the union of cancel tokens)."""
        self.deadline = Deadline.earliest(self.deadline, deadline)

    def _trip(self, reason: str, exc_type=BudgetExhausted) -> None:
        if self.exhausted_reason is None:
            self.exhausted_reason = reason
        raise exc_type(f"{reason} budget exhausted")

    def charge_expression(self, count: int = 1) -> None:
        self.expressions += count
        self.check()

    def charge_program(self, count: int = 1) -> None:
        self.programs += count
        self.check()

    def check_deadline(self) -> None:
        """Enforce only the hard wall (deadline + cancellation). Grace
        sweeps that deliberately outlive the soft budget call this."""
        if self.deadline is not None:
            why = self.deadline.why_expired()
            if why is not None:
                if self.exhausted_reason is None:
                    self.exhausted_reason = why
                raise (
                    DeadlineExceeded("hard deadline exceeded")
                    if why == "deadline"
                    else Cancelled(why)
                )

    def hard_expired(self) -> bool:
        """True once the hard wall has passed (never from soft limits)."""
        return self.deadline is not None and self.deadline.expired()

    def time_remaining(self) -> Optional[float]:
        """Seconds until the first wall-clock limit — the tighter of the
        hard deadline and the soft ``max_seconds`` — or None when the
        budget is unbounded in time. Progress heartbeats report this."""
        remaining: Optional[float] = None
        if self.deadline is not None:
            remaining = self.deadline.remaining()
        if self.max_seconds is not None:
            soft = self.max_seconds - self.elapsed
            remaining = soft if remaining is None else min(remaining, soft)
        return remaining

    def check(self) -> None:
        self.check_deadline()
        if (
            self.max_expressions is not None
            and self.expressions > self.max_expressions
        ):
            self._trip("expressions")
        if self.max_programs is not None and self.programs > self.max_programs:
            self._trip("programs")
        if self.max_seconds is not None and self.elapsed > self.max_seconds:
            self._trip("time")

    def exhausted(self) -> bool:
        try:
            self.check()
        except BudgetExhausted:
            return True
        return False

    def spawn(self, fraction: float = 0.25) -> "Budget":
        """A smaller budget for a sub-synthesis (loop bodies, §5.3).

        The hard deadline is *shared*, not scaled: a sub-synthesis can
        never outlive the run that spawned it.
        """
        return Budget(
            max_seconds=(
                None
                if self.max_seconds is None
                else max(0.05, (self.max_seconds - self.elapsed) * fraction)
            ),
            max_expressions=(
                None
                if self.max_expressions is None
                else max(50, int(self.max_expressions * fraction))
            ),
            max_programs=(
                None
                if self.max_programs is None
                else max(50, int(self.max_programs * fraction))
            ),
            deadline=self.deadline,
        )


def default_budget() -> Budget:
    """The default per-DBS budget used by the test suites."""
    return Budget(max_seconds=20.0, max_expressions=60_000, max_programs=400_000)
