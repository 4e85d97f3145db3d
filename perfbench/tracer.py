"""Per-layer tracing of homoloss from outside the package.

The tracer replaces each traced function with a wrapper in every homoloss
module namespace that binds it (``from .optim import mean_reproj_distance``
in ``cli`` is a second binding of the same function), so a call is counted
whichever module makes it. Nothing under ``src/`` is edited: the wrappers
live only in the running process and ``uninstall`` puts the originals back.

For every traced name the tracer keeps, in memory, the number of calls, the
self time (span duration minus the time covered by traced child spans) and
the number of calls that raised.

What is traced: each module's public functions, the loss kernels
``losses._*_core`` that ``diffgrad`` dispatches into, and
``DepthSlab.for_frame`` (each call hands one slab to a loss). The
``DiffScalar`` operators of ``dual`` are not traced: wrapping every scalar
operation would cost more than the operation. Their cost shows as self
time of the ``losses`` kernels, and the layer table measures it as
``dual.<kind>.grad_over_value``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "scene", "optim", "diffgrad", "losses", "dual", "geometry")


def _traced_names(module):
    short = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            continue
        core = short == "losses" and name.startswith("_") \
            and name.endswith("_core")
        if core or not name.startswith("_"):
            yield f"{short}.{name}", obj


class Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Wraps the traced functions while installed; see the module doc."""

    def __init__(self, on_return=None):
        self.stats = {}
        self.on_return = on_return or {}  # traced name -> f(return value)
        self._child = []     # time covered by child spans, per open span
        self._patches = []   # (namespace, attribute, original)

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        child = self._child
        hook = self.on_return.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                span = clock() - t0
                covered = child.pop()
                stat.calls += 1
                stat.self_s += span - covered
                if child:
                    child[-1] += span
            if hook is not None:
                hook(out)
            return out

        return wrapper

    def install(self, package):
        """Wrap every traced function of the package's layer modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for traced, fn in _traced_names(module):
                wrappers[id(fn)] = self._wrap(traced, fn)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        slab_cls = sys.modules[f"{package.__name__}.scene"].DepthSlab
        original = slab_cls.for_frame
        self._patches.append((slab_cls, "for_frame", original))
        slab_cls.for_frame = self._wrap("scene.DepthSlab.for_frame", original)

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def snapshot(self):
        """Calls per traced name, for differences around one CLI call."""
        return {name: s.calls for name, s in self.stats.items()}

    def layer_totals(self):
        """{layer: Stat} summed over the traced names of each layer."""
        totals = {layer: Stat() for layer in LAYERS}
        for name, s in self.stats.items():
            t = totals[name.split(".", 1)[0]]
            t.calls += s.calls
            t.self_s += s.self_s
            t.errors += s.errors
        return totals
