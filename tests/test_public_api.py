"""Public API stability: the names a downstream user imports."""

import repro
from repro import errors


def test_version():
    assert repro.__version__ == "1.0.0"


def test_runtime_exports():
    from repro.runtime import (  # noqa: F401
        Activity,
        ActivityContext,
        ApgasRuntime,
        Cell,
        Clock,
        CongruentAllocator,
        CongruentArray,
        GlobalRef,
        PlaceGroup,
        Pragma,
        Team,
        broadcast_spawn,
        classify_function,
        make_finish,
        sequential_spawn,
        suggest,
    )


def test_machine_exports():
    from repro.machine import (  # noqa: F401
        JitterModel,
        LinkClass,
        MachineConfig,
        Network,
        Route,
        SerialResource,
        Topology,
        TransferKind,
        alltoall_bw_per_octant,
        barrier_time,
        stream_bw_per_place,
    )


def test_xrt_exports():
    from repro.xrt import (  # noqa: F401
        Collectives,
        CollectiveOp,
        MemRegion,
        MemoryRegistry,
        MpiTransport,
        PamiTransport,
        RdmaEngine,
        SocketsTransport,
        Transport,
        estimate_nbytes,
    )


def test_glb_exports():
    from repro.glb import (  # noqa: F401
        CountingBag,
        Glb,
        GlbConfig,
        GlbStats,
        TaskBag,
        hypercube_lifelines,
        ring_lifelines,
        victim_set,
    )


def test_kernel_run_functions_exist():
    from repro.kernels.bc import bc_main, run_bc_glb  # noqa: F401
    from repro.kernels.fft import fft_main  # noqa: F401
    from repro.kernels.hpl import hpl_main  # noqa: F401
    from repro.kernels.kmeans import kmeans_main  # noqa: F401
    from repro.kernels.portable import KERNELS
    from repro.kernels.randomaccess import run_randomaccess  # noqa: F401
    from repro.kernels.smithwaterman import sw_main  # noqa: F401
    from repro.kernels.stream import stream_main  # noqa: F401
    from repro.kernels.uts import run_uts  # noqa: F401

    assert sorted(KERNELS) == sorted(
        ["stream", "randomaccess", "fft", "hpl", "uts", "kmeans", "smithwaterman", "bc"]
    )


def test_error_hierarchy_roots_at_repro_error():
    for name in (
        "SimulationError",
        "DeadlockError",
        "RoutingError",
        "TransportError",
        "RegistrationError",
        "ApgasError",
        "PlaceError",
        "FinishError",
        "PragmaError",
        "GlbError",
        "KernelError",
    ):
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError), name


def test_specific_error_parents():
    assert issubclass(errors.DeadlockError, errors.SimulationError)
    assert issubclass(errors.RegistrationError, errors.TransportError)
    assert issubclass(errors.PragmaError, errors.ApgasError)
    assert issubclass(errors.FinishError, errors.ApgasError)
    assert issubclass(errors.PlaceError, errors.ApgasError)
