"""Spans around calls into ladder_fpp's layers, recorded from outside the package.

`Tracer.install` replaces each traced function, in every loaded ladder_fpp
module that holds a reference to it, with a wrapper that records a span:
(name, start, end, parent index, counts).  `uninstall` puts the originals
back, so untraced code runs the package unmodified.  Spans stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager


# (module, function, counts taken from the result and arguments)
TARGETS = [
    ("bessel", "bessel_j", None),
    ("bessel", "upsilon", None),
    ("chain", "pi0", None),
    ("chain", "pi", None),
    ("chain", "seq", None),
    ("chain", "front_distribution", None),
    ("chain", "stationary_truncated_solve", None),
    ("constants", "time_constant", None),
    ("constants", "avg_residual_time", None),
    ("constants", "avg_residual_time_direct", None),
    ("checks", "run_quick_checks", None),
    ("cli", "_dump_trajectory", lambda out, a: {"bytes": os.path.getsize(a[1])}),
    ("simulate", "simulate_front_chain", lambda out, a: {"events": out.n_events}),
    ("simulate", "empirical_front_distribution", None),
    ("simulate", "height_rate_estimate", None),
    ("simulate", "empirical_residual_time", None),
    ("simulate", "fpp_time_constant", None),
    ("simulate", "simulate_fpp_ladder", lambda rec, a: {
        "settled": int(rec.settled.sum()),
        "useful": 2 * (rec.target_height + 1),
        "edges": int((rec.rail_weights == rec.rail_weights).sum()
                     + (rec.rung_weights == rec.rung_weights).sum()),
        "bytes": sum(x.nbytes for x in (rec.infection_times, rec.settled,
                                        rec.rail_weights, rec.rung_weights)),
    }),
    ("simulate", "front_of_fpp", lambda path, a: {"jumps": len(path.times)}),
    ("simulate", "front_transition_stats", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, counts)
        self._stack: list[int] = []
        self._saved: list = []
        self.active = False

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None))
        self._stack.append(sid)
        return sid

    def _close(self, sid, counts=None):
        self._stack.pop()
        name, start, _, parent, _ = self.spans[sid]
        self.spans[sid] = (name, start, time.perf_counter(), parent, counts)

    @contextmanager
    def span(self, name: str):
        """Span around a block; the yielded dict becomes the span's counts."""
        counts: dict = {}
        if not self.active:
            yield counts
            return
        sid = self._open(name)
        try:
            yield counts
        finally:
            self._close(sid, counts)

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            sid = self._open(name)
            counts = None
            try:
                out = fn(*args, **kwargs)
                counts = count(out, args) if count else None
                return out
            finally:
                self._close(sid, counts)

        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "ladder_fpp" or k.startswith("ladder_fpp.")]
        for mod_name, fn_name, count in TARGETS:
            orig = getattr(sys.modules[f"ladder_fpp.{mod_name}"], fn_name)
            wrapper = self._wrap(orig, f"{mod_name}.{fn_name}", count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        self.active = True

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        self.active = False

    def parts(self) -> list[str | None]:
        """For each span, the name of the enclosing `part.*` span (or None)."""
        part: list[str | None] = []
        for name, _, _, parent, _ in self.spans:
            part.append(name if name.startswith("part.") else (part[parent] if parent >= 0 else None))
        return part
