"""In-memory span recorder for the traced benchmark run.

``Tracer.wrap`` replaces a module attribute with a wrapper that records a
span (name, op, parent, start, end) around every call, so every caller that
looks the name up through the module is traced: the benchmark's own calls
and the package's internal calls of ``effham.inverse.g_function`` and
``effham.spectral.effective_hamiltonian``.  Only the traced run wraps;
``unwrap_all`` puts the originals back.
"""

import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []   # [name id, op, parent span index or -1, start ns, end ns]
        self.op = -1      # index of the op in progress, set by the timed loop
        self._stack = []
        self._patched = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, module, attr, name):
        fn = getattr(module, attr)
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [nid, self.op, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap_all(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def totals(self):
        """Per span name: (calls, busy ns, self ns).  Self time is a span's
        duration minus the durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for nid, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for (nid, _, _, start, end), inner in zip(self.spans, child_ns):
            acc = out[self.names[nid]]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - inner
        return {name: tuple(v) for name, v in out.items()}

    def save(self, path):
        """Write every span as int64 rows (name id, op, parent, start ns,
        end ns) plus the name table, in numpy's .npz format."""
        np.savez(path, names=np.array(self.names),
                 spans=np.array(self.spans, dtype=np.int64).reshape(-1, 5))
