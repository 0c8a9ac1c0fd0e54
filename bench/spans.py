"""Outside-in tracing of ``qkd_access`` for the benchmark's traced runs.

``Tracer.installed()`` replaces the package's public functions with timing
wrappers for the duration of a ``with`` block.  A function is replaced in
every ``qkd_access`` module that holds it, because ``from .x import y``
binds it there; methods are replaced on their class.  Nothing inside the
package changes.

Each call records one span: (id, name, thread, parent id, wall ns, thread
CPU ns).  Busy time is ``time.thread_time``; wait is wall minus busy.  Spans
started on the sweep's pool threads take the open ``run_sweep`` span as
their parent.  A call made from inside a span of the same group is not
recorded separately: it is part of that span, so counts are calls into the
group from outside it.

Spans stay in memory until ``take()``; ``summarize`` reduces them to
per-group self time and call counts.  A recorded child call leaves some
wrapper work outside its own timing window, billed to its parent;
``calibrate`` measures that cost once and ``summarize`` subtracts it per
recorded child.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

from qkd_access import budget, cli, config, owc, raman, sweep
from qkd_access.protocols import bb84, gg02, mdi

# group -> functions as (owner, attribute).  Owners that are classes get the
# wrapper set on the class; module functions are replaced wherever bound.
TRACED = {
    "config": [(config.SimulationConfig, name) for name in (
        "from_dict", "from_file", "override", "validate", "scenario", "plan", "detectors",
        "bb84_params", "mdi_params", "gg02_params", "bulb_model", "raman_table")],
    "raman.load": [(raman, "builtin_cross_section_table"),
                   (raman.RamanCrossSectionTable, "from_csv_text"),
                   (raman.RamanCrossSectionTable, "from_csv_file")],
    # gamma's only callers are these two, so its time is inside their spans
    "raman.scatter": [(raman, "raman_forward"), (raman, "raman_backward")],
    "budget.raman_totals": [(budget, "raman_totals_setup1"), (budget, "raman_totals_setup3"),
                            (budget, "raman_totals_setup4")],
    "budget": [(budget, name) for name in (
        "budget_setup1_wireless", "budget_setup1_fiber", "budget_setup2", "budget_setup3",
        "budget_setup4", "cv_budget")],
    "owc": [(owc, "los_dc_gain"), (owc, "bulb_noise_count")],
    "protocols.rate": [(bb84, "ds_bb84_rate"), (bb84, "spp_bb84_rate"), (mdi, "mdi_rate_ds"),
                       (mdi, "mdi_rate_spp"), (gg02, "gg02_rate")],
    "protocols.gg02_search": [(gg02, "optimal_modulation_variance")],
    "protocols.gg02_holevo": [(gg02, "holevo_bound")],
    "sweep": [(sweep, "run_sweep"), (sweep, "noise_breakdown"), (sweep, "dv_cv_crossover"),
              (sweep, "_evaluate_point")],
    "sweep.csv": [(sweep.SweepResult, "csv_text"), (sweep.NoiseBreakdownResult, "csv_text"),
                  (sweep, "emit_csv")],
    "cli": [(cli, "main")],
}

# Spans whose pool-thread work is attributed to them, and which bound the
# "inside a sweep" subtree for the wait metric.
SWEEP_ROOTS = ("run_sweep", "noise_breakdown", "dv_cv_crossover")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "qkd_access" or name.startswith("qkd_access."))]


class Tracer:
    """Span recorder; install its wrappers with ``installed()``."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sweep_parent = [0]  # id of the open sweep-root span, for pool threads
        self._wrapped: list[tuple] = []
        # Wrapper cost per recorded child that lands in its parent's self time.
        self.child_wall_ns = 0.0
        self.child_busy_ns = 0.0

    def _wrap(self, fn, name: str, group: str):
        name_id = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        local, spans, ids, sweep_parent = self._local, self._spans, self._ids, self._sweep_parent
        wall, busy, ident = time.perf_counter_ns, time.thread_time_ns, threading.get_ident
        is_root = name in SWEEP_ROOTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = getattr(local, "state", None)
            if state is None:
                state = local.state = ([], ident())
            stack, thread = state
            if stack and stack[-1][1] is group:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else sweep_parent[0]
            stack.append((sid, group))
            if is_root:
                outer, sweep_parent[0] = sweep_parent[0], sid
            w0, b0 = wall(), busy()
            try:
                return fn(*args, **kwargs)
            finally:
                b1, w1 = busy(), wall()
                stack.pop()
                if is_root:
                    sweep_parent[0] = outer
                spans.append((sid, name_id, thread, parent, w1 - w0, b1 - b0))

        return traced

    def _wrappers(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every traced function."""
        if not self._wrapped:
            for group, targets in TRACED.items():
                for owner, attr in targets:
                    entry = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                    if isinstance(entry, classmethod):
                        wrapper = classmethod(self._wrap(entry.__func__, attr, group))
                    else:
                        wrapper = self._wrap(entry, attr, group)
                    self._wrapped.append((owner, attr, entry, wrapper))
        return self._wrapped

    @contextmanager
    def installed(self):
        """Trace every function in ``TRACED`` inside the ``with`` block."""
        modules = _package_modules()
        patches = []
        try:
            for owner, attr, original, wrapper in self._wrappers():
                if isinstance(owner, type):
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def take(self) -> list[tuple]:
        """Spans recorded so far, oldest first; clears the buffer."""
        spans, self._spans[:] = list(self._spans), []
        return spans

    def write(self, spans: list[tuple], path) -> None:
        """Write spans as JSON lines: id, name, group, thread, parent, wall_ns, busy_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name_id, thread, parent, wall_ns, busy_ns in spans:
                fh.write(json.dumps([sid, self.names[name_id], self.groups[name_id],
                                     thread, parent, wall_ns, busy_ns]) + "\n")

    def calibrate(self, calls: int = 2000, repeats: int = 7) -> None:
        """Measure the wrapper cost a recorded child call bills to its parent.

        A traced parent calls an empty function ``calls`` times, once through
        a traced wrapper and once bare; the difference in the parent's self
        time, per call, is the cost.  Keeps the median over ``repeats``.
        """
        probe = Tracer()

        def empty():
            pass

        def parent_of(child):
            def parent():
                for _ in range(calls):
                    child()
            return probe._wrap(parent, "parent", "calibrate.parent")

        traced_child = probe._wrap(empty, "child", "calibrate.child")
        walls, busies = [], []
        for _ in range(repeats):
            times = []
            for parent in (parent_of(traced_child), parent_of(empty)):
                parent()
                times.append(next((w, b) for span, w, b in probe._self_times(probe.take())
                                  if probe.names[span[1]] == "parent"))
            (wall_traced, busy_traced), (wall_bare, busy_bare) = times
            walls.append((wall_traced - wall_bare) / calls)
            busies.append((busy_traced - busy_bare) / calls)
        self.child_wall_ns = max(0.0, statistics.median(walls))
        self.child_busy_ns = max(0.0, statistics.median(busies))

    def _self_times(self, spans: list[tuple]) -> list[tuple]:
        """(span, self wall ns, self busy ns) for every span.

        Self time subtracts the span's children on its own thread and the
        calibrated wrapper cost of each.
        """
        thread_of = {s[0]: s[2] for s in spans}
        child_wall, child_busy = Counter(), Counter()
        for _, _, thread, parent, wall_ns, busy_ns in spans:
            if thread_of.get(parent) == thread:
                child_wall[parent] += wall_ns + self.child_wall_ns
                child_busy[parent] += busy_ns + self.child_busy_ns
        return [(s, s[4] - child_wall[s[0]], s[5] - child_busy[s[0]]) for s in spans]

    def summarize(self, spans: list[tuple]) -> Counter:
        """Per-group call counts and self busy ns, plus the sweep wait.

        Keys: ``<group>.calls``, ``<group>.busy_ns`` and ``sweep_wait_ns``
        (self wall minus self busy, summed over every span inside a sweep
        root).
        """
        parent_of = {s[0]: s[3] for s in spans}
        name_of = {s[0]: self.names[s[1]] for s in spans}
        in_sweep: dict[int, bool] = {0: False}

        def inside(sid: int) -> bool:
            chain = []
            while sid not in in_sweep:
                if name_of.get(sid) in SWEEP_ROOTS:
                    in_sweep[sid] = True
                    break
                chain.append(sid)
                sid = parent_of.get(sid, 0)
            for link in chain:
                in_sweep[link] = in_sweep[sid]
            return in_sweep[chain[0] if chain else sid]

        out = Counter()
        for span, self_wall, self_busy in self._self_times(spans):
            group = self.groups[span[1]]
            out[f"{group}.calls"] += 1
            out[f"{group}.busy_ns"] += self_busy
            if inside(span[0]):
                out["sweep_wait_ns"] += self_wall - self_busy
        return out
