"""Module -> layer map and the cProfile collector behind ``--trace 1``.

The traced pass wraps the same ``run(inputs)`` the untraced pass times in a
:class:`cProfile.Profile` and folds each function's *self* time (``tottime``)
and call count into the layer its source file belongs to.  Layers are this
repository's modules; time outside ``src/repro`` is split into ``numpy``,
``pickle``, ``socket_io``, ``select_wait`` (time place 0 sat in the selector:
waited, not worked) and ``other``; a built-in that is none of these is
charged to the layer that called it.  Profiling inflates Python-level calls and
not native work, so shares shift towards call-heavy layers: read the table
for where time goes, and the untraced run for how much there is.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Optional

LAYERS = (
    "sim", "machine", "xrt_transport", "xrt_collectives_rdma", "runtime_core",
    "runtime_finish", "runtime_team_bcast", "glb", "kernels", "numpy", "obs", "chaos",
    "resilient", "serve", "procs_wire", "procs_loop", "procs_runtime", "procs_finish",
    "procs_launcher", "pickle", "socket_io", "select_wait", "other",
)

#: path below ``repro/`` -> layer; the first matching prefix wins, so the
#: specific files come before their package
_REPRO_PREFIXES = (
    ("xrt/procs/wire.py", "procs_wire"),
    ("xrt/serialization.py", "procs_wire"),
    ("xrt/procs/loop.py", "procs_loop"),
    ("xrt/procs/runtime.py", "procs_runtime"),
    ("xrt/procs/finishproc.py", "procs_finish"),
    ("xrt/procs/", "procs_launcher"),
    ("xrt/collectives.py", "xrt_collectives_rdma"),
    ("xrt/rdma.py", "xrt_collectives_rdma"),
    ("xrt/", "xrt_transport"),
    ("runtime/finish/", "runtime_finish"),
    ("runtime/team.py", "runtime_team_bcast"),
    ("runtime/broadcast.py", "runtime_team_bcast"),
    ("runtime/", "runtime_core"),
    ("sim/", "sim"),
    ("machine/", "machine"),
    ("glb/", "glb"),
    ("kernels/", "kernels"),
    ("obs/", "obs"),
    ("chaos/", "chaos"),
    ("resilient/", "resilient"),
    ("serve/", "serve"),
    # not on any workload's path: tooling, drivers and result containers
    ("analyze/", "other"),
    ("harness/", "other"),
    ("perf/", "other"),
    ("cli.py", "other"),
    ("errors.py", "other"),
    ("__init__.py", "other"),
    ("_version.py", "other"),
)

#: the simulator's payload-size estimate lives in the wire-format module but
#: is the sim transport's cost, not the procs wire's
_FUNCTION_OVERRIDES = {
    ("xrt/serialization.py", "estimate_nbytes"): "xrt_transport",
    ("xrt/serialization.py", "_estimate"): "xrt_transport",
}

#: substrings of a built-in's profile name (``<method 'send' of
#: '_socket.socket' objects>``) -> layer
_BUILTIN_MARKERS = (
    ("_pickle", "pickle"),
    ("_socket", "socket_io"),
    ("select.", "select_wait"),
    ("numpy", "numpy"),
    ("posix.fork", "procs_launcher"),
    ("posix.waitpid", "procs_launcher"),
)

#: source paths outside ``repro`` -> layer
_FOREIGN_MARKERS = (
    ("/numpy/", "numpy"),
    ("/scipy/", "numpy"),
    ("/pickle.py", "pickle"),
    ("/socket.py", "socket_io"),
    ("/selectors.py", "select_wait"),
    ("/multiprocessing/", "procs_launcher"),
)


def repro_layer(relative_path: str, function: str = "") -> Optional[str]:
    """Layer of a file given by its path below ``src/repro/`` (None: unmapped)."""
    override = _FUNCTION_OVERRIDES.get((relative_path, function))
    if override is not None:
        return override
    for prefix, layer in _REPRO_PREFIXES:
        if relative_path.startswith(prefix):
            return layer
    return None


def layer_of(filename: str, function: str) -> str:
    """Layer of one profile entry ``(filename, function)``."""
    filename = filename.replace("\\", "/")
    if filename == "~":  # a built-in: the name carries its module
        for marker, layer in _BUILTIN_MARKERS:
            if marker in function:
                return layer
        return "other"
    _, found, below = filename.rpartition("/repro/")
    if found:
        return repro_layer(below, function) or "other"
    for marker, layer in _FOREIGN_MARKERS:
        if marker in filename:
            return layer
    return "other"


def profile_layers(call) -> tuple:
    """Run ``call()`` under cProfile; returns ``(its result, layer table)``.

    The table maps ``layer.<L>.self_s`` and ``layer.<L>.calls`` for every
    layer in :data:`LAYERS` (0 where the layer did not run).
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, function), (_cc, ncalls, tottime, _ct, callers) in (
        pstats.Stats(profiler).stats.items()
    ):
        layer = layer_of(filename, function)
        if filename == "~" and layer == "other":
            # a built-in with no layer of its own (list.append, heapq.heappush,
            # bytearray.extend): its time is the cost of whoever called it
            for (caller_file, _l, caller), (_c, caller_calls, caller_tottime, _t) in callers.items():
                layer = layer_of(caller_file, caller)
                self_s[layer] += caller_tottime
                calls[layer] += caller_calls
        else:
            self_s[layer] += tottime
            calls[layer] += ncalls
    table = {}
    for layer in LAYERS:
        table[f"layer.{layer}.self_s"] = self_s[layer]
        table[f"layer.{layer}.calls"] = calls[layer]
    return result, table
