"""In-memory span tracer that wraps abctorus functions from outside.

`Tracer.patch_function` and `Tracer.patch_method` replace a function or
method with a wrapper that records one span per call: name, start, end
and the span that was open when it started.  Spans are kept in flat
arrays while the traced code runs and are turned into per-name totals
only afterwards, so the wrapper does as little as possible.
`Tracer.uninstall()` puts every original object back.  Nothing under `src/` is edited: module-level
functions are replaced in every abctorus module that holds a reference
to them, and methods are replaced on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# A count hook receives (counts, name, args, result, parent_name) after a
# call returns and adds named counts for that span name.
CountHook = Callable[[Counter, str, tuple, object, Optional[str]], None]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (span name, exception class) -> n
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook: Optional[CountHook] = None):
        nid = self._name_id(name)
        names, stack, counts, errors = self.names, self._stack, self.counts, self.errors
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        ends = self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(ends)
            parent = stack[-1]
            add_name(nid)
            add_parent(parent)
            add_end(0.0)
            stack.append(sid)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                pname = names[self.span_name[parent]] if parent >= 0 else None
                hook(counts, name, args, result, pname)
            return result

        return functools.wraps(fn)(traced)

    # -- patching ----------------------------------------------------------

    def patch_function(self, module, attr: str, name: str,
                       hook: Optional[CountHook] = None) -> None:
        """Wrap module.attr everywhere abctorus refers to it by name."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, hook)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("abctorus"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str,
                     hook: Optional[CountHook] = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__, hook))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, hook))
        else:
            new = self.wrap(name, raw, hook)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self seconds).

        Self time is a span's duration minus the durations of the spans
        it directly caused.  The wrapper's own cost inside a child lands
        in the parent's self time, which is part of the tracing overhead
        the run reports.
        """
        sp = self.arrays()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        n = len(self.names)
        calls = np.bincount(sp["name"], minlength=n)
        self_s = np.bincount(sp["name"], weights=own, minlength=n)
        return {nm: (int(calls[i]), float(self_s[i])) for i, nm in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
