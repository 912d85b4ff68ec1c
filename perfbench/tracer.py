"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``repro`` layer from the
outside: class methods are replaced on their class, module functions
where the caller looks them up. Nothing in ``src/`` changes. Every call
through a wrapper records one span (name, start, end, parent) in flat
arrays; a layer's self time is its spans' duration minus the part their
traced children cover.

Two attribution rules keep the layers apart:

* A call under an observer span (the shadow oracle) records nothing of
  its own, so its time stays in the observer's self time: the oracle's
  ``mask_range`` scans and shadow routing walk count as observer work,
  not as records or overlay work.
* A call whose parent span has the same name records nothing either, so
  ``decide_start`` calling ``decide_descent`` counts as one decision.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._observer_ids: set = set()
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self._observer_depth = 0
        #: event counts recorded at the same boundaries as the spans
        self.counts: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------
    def name_id(self, name: str, *, observer: bool = False) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._names.append(name)
            self._name_ids[name] = nid
        if observer:
            self._observer_ids.add(nid)
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        observer: bool = False,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """A function that records a span around every call to *fn*."""
        nid = self.name_id(name, observer=observer)
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            top = stack[-1]
            if tracer._observer_depth or (top >= 0 and names[top] == nid):
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(top)
            ends.append(0.0)
            stack.append(idx)
            if observer:
                tracer._observer_depth += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if observer:
                    tracer._observer_depth -= 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by unpatch).

        A class method is unwrapped from the class ``__dict__`` and
        re-wrapped as a class method, so ``cls.method`` keeps its binding.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, **kwargs))
        else:
            replacement = self.wrap(name, original, **kwargs)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- read-out ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``cum_s`` and ``self_s``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        n = len(dur)
        child = np.zeros(n)
        has_parent = a["parent"] >= 0
        if has_parent.any():
            child += np.bincount(
                a["parent"][has_parent], weights=dur[has_parent], minlength=n
            )[:n]
        self_t = dur - child
        out: Dict[str, Dict[str, float]] = {}
        k = len(self._names)
        calls = np.bincount(a["name"], minlength=k)
        cum = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_t, minlength=k)
        for nid, label in enumerate(self._names):
            out[label] = {
                "calls": int(calls[nid]),
                "cum_s": float(cum[nid]),
                "self_s": float(own[nid]),
            }
        return out

    def observer_total(self) -> float:
        """Wall time under outermost observer spans."""
        a = self.arrays()
        if not len(a["name"]):
            return 0.0
        obs = np.isin(a["name"], list(self._observer_ids))
        # Nothing under an observer span is recorded (see ``wrap``), so
        # observer spans never nest.
        return float((a["end"][obs] - a["start"][obs]).sum())

    def covered(self) -> float:
        """Wall time covered by root spans (spans without a parent)."""
        a = self.arrays()
        roots = a["parent"] < 0
        return float((a["end"][roots] - a["start"][roots]).sum())

    def save(self, path: str) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self._names), **self.arrays())
