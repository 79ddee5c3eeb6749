"""Span recording around the public functions of krcrystals, from outside.

A span opens when a wrapped function is called and closes when it returns.
Each open span sits on a stack whose top is its parent; on close the span's
duration (end - start) is added to its parent's child time, and its self time
is the duration minus the child time it collected.  Spans are folded into
per-name totals as they close instead of being kept one by one: a grid pass
closes millions of `tableau_apply` spans, and keeping them would dominate the
memory the benchmark measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._child_s = [0.0]  # child time of each open span; [0] is the root

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def wrap(self, name, fn, after=None):
        """fn inside a span `name`; after(result, self_s) sees each return."""
        stat = self.stat(name)
        clock, child_s = time.perf_counter, self._child_s

        def close(start):
            took = clock() - start
            inner = child_s.pop()
            child_s[-1] += took
            stat.calls += 1
            stat.total_s += took
            stat.self_s += took - inner
            return took - inner

        if inspect.isgeneratorfunction(fn):
            # one span per step, so the consumer's work between steps stays out
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                steps = fn(*args, **kwargs)
                while True:
                    child_s.append(0.0)
                    start = clock()
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        close(start)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self_s = close(start)
            if after is not None:
                after(result, self_s)
            return result

        return wrapper

    def install(self, owner, attr, name, after=None):
        """Wrap owner.attr and rebind every krcrystals import of it.

        `from .crystal_core import generate_closure` binds the function again
        in the importing module, so wrapping only the defining module would
        miss the calls made through that name.
        """
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, after)
        setattr(owner, attr, wrapped)
        for mod_name, module in list(sys.modules.items()):
            in_package = mod_name == "krcrystals" or mod_name.startswith("krcrystals.")
            if in_package and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
