"""In-memory tracer that times calls into the package's layers.

The tracer replaces module and class attributes with timing wrappers, so
nothing under src/ changes.  A wrapper goes on the attribute the caller
actually looks up: `lemmas` imports `lower_fraction` by name, so the
wrapper for that call site sits on `nonresidues.lemmas.lower_fraction`,
not on `nonresidues.rounding`.

Two kinds of wrapper share one call stack:

* span wrappers record (id, parent id, name, start, end) for every call;
* leaf wrappers (high-frequency calls such as kernel tests) only add to
  a counter and a time total.

Both charge their duration to the enclosing call, so every name gets a
self time: its total minus the time its traced callees took.  Spans stay
in memory until `dump_spans` writes them out at the end of a run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class CallStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, CallStats] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # frames: [span id, child time]
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 1

    # -- bookkeeping ------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def stat(self, name: str) -> CallStats:
        return self.stats.get(name) or CallStats()

    # -- patching ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, leaf: bool = False,
             keep_durations: bool = False, on_call=None) -> None:
        """Replace owner.attr by a timing wrapper recorded under `name`.

        on_call(args, kwargs, result) runs after a successful call, outside
        the timed interval.  A missing attribute is noted, not an error:
        the layer metric then reads as zero.
        """
        # a class attribute is read from the class itself, so that a method
        # stays a plain function and the wrapper binds like one
        if isinstance(owner, type):
            orig = owner.__dict__.get(attr)
        else:
            orig = getattr(owner, attr, None)
        if orig is None:
            owner_name = getattr(owner, "__name__", type(owner).__name__)
            self.missing.append(f"{owner_name}.{attr}")
            return
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0, 0.0]
            if not leaf:
                frame[0] = self._next_id
                self._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = CallStats()
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[1]
                if keep_durations:
                    st.durations.append(dur)
                if stack:
                    stack[-1][1] += dur
                if not leaf:
                    self.spans.append((frame[0], parent, name, t0, t1))
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output -----------------------------------------------------------

    def dump_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines, times relative to the first."""
        base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_s": t0 - base, "end_s": t1 - base}) + "\n")
