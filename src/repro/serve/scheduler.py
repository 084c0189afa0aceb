"""The multi-tenant job scheduler.

One scheduler runs one scenario on one simulated machine.  Place 0 is the
*control place*: the scheduler's activity lives there, job runners spawn
there, and it is never allocated to a job — every other place belongs to a
sorted free pool carved into disjoint :class:`PlaceGroup` partitions, one per
running job.  Scheduling is three deterministic policies layered in order:

* **Admission** — an arrival whose tenant queue is at ``max_queued`` is
  rejected on the spot (open-loop traffic does not retry).
* **Ordering** — dispatch order is (priority class, weighted fair share,
  tenant name): strict priority between classes, and within a class a
  virtual-time fair queue metered in allocated places per unit weight.
* **Elastic width** — a job dispatched while others wait takes its minimum
  footprint (``places_min``); a job dispatched into an otherwise idle system
  grows to ``places_max``.  Shrinking happens at the same boundary: under
  contention the next dispatch simply carves smaller groups from the pool.

Failure handling reuses the elastic-revive machinery of ``repro.resilient``:
a chaos kill aborts the jobs that own the dead place (their collectives and
finishes fail with :class:`DeadPlaceError`), the scheduler drains their
surviving stragglers, revives the place via
:meth:`~repro.runtime.runtime.ApgasRuntime.revive_place`, and returns it to
the pool — other tenants' jobs never observe the fault (the ``serve.isolation``
audit proves it from the trace).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import DeadPlaceError, KernelError, ResilientError, ServeError
from repro.runtime.finish.pragmas import Pragma
from repro.runtime.runtime import ApgasRuntime
from repro.serve.jobs import run_job
from repro.serve.scenario import ScenarioSpec
from repro.serve.traffic import JobRequest, generate_traffic

#: how often an aborting runner re-checks that its stragglers have drained
DRAIN_POLL = 100e-6


@dataclass
class Job:
    """One job's lifecycle record (the scheduler's unit of bookkeeping)."""

    request: JobRequest
    status: str = "queued"  # queued | running | ok | aborted | rejected | starved
    places: tuple = ()
    t_start: Optional[float] = None
    t_end: Optional[float] = None
    result: Optional[object] = None
    error: Optional[str] = None

    @property
    def job_id(self) -> int:
        return self.request.job_id

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def kernel(self) -> str:
        return self.request.kernel

    @property
    def latency(self) -> Optional[float]:
        """Arrival-to-completion time for jobs that finished."""
        if self.t_end is None:
            return None
        return self.t_end - self.request.arrival


@dataclass
class ServeOutcome:
    """Everything a run produced: job records plus the clock at drain."""

    spec: ScenarioSpec
    jobs: list = field(default_factory=list)
    makespan: float = 0.0

    def by_status(self, status: str) -> list:
        return [j for j in self.jobs if j.status == status]


class _TenantState:
    __slots__ = ("spec", "queue", "in_use", "vtime")

    def __init__(self, spec) -> None:
        self.spec = spec
        self.queue: deque = deque()
        self.in_use = 0  # places currently allocated to this tenant
        self.vtime = 0.0  # places-allocated per unit weight, ever


class ServeScheduler:
    """Admits, queues, and runs one scenario's jobs; see the module docstring."""

    def __init__(
        self,
        rt: ApgasRuntime,
        spec: ScenarioSpec,
        requests: Optional[list] = None,
    ) -> None:
        if rt.n_places != spec.places:
            raise ServeError(
                f"runtime has {rt.n_places} places but the scenario wants {spec.places}"
            )
        if rt.chaos is not None:
            # shared place validation (repro.chaos.ChaosSpec.validate_places):
            # place 0 is the scheduler's control place and may never be killed
            rt.chaos.spec.validate_places(rt.n_places, control_place=0)
        self.rt = rt
        self.spec = spec
        self.requests = generate_traffic(spec) if requests is None else list(requests)
        self.jobs = [Job(request=r) for r in self.requests]
        self._tenants = {t.name: _TenantState(t) for t in spec.tenants}
        for r in self.requests:
            if r.tenant not in self._tenants:
                raise ServeError(f"job {r.job_id} names unknown tenant {r.tenant!r}")
        #: sorted free pool; place 0 is the control place and never enters it
        self._pool = list(range(1, rt.n_places))
        self._finish = None
        self._global_vtime = 0.0
        metrics = rt.obs.metrics
        self._h_latency = {
            t.name: metrics.histogram("serve.job_latency", tenant=t.name)
            for t in spec.tenants
        }
        self._h_wait = {
            t.name: metrics.histogram("serve.queue_wait", tenant=t.name)
            for t in spec.tenants
        }
        self._h_depth = metrics.histogram("serve.queue_depth")
        self._c_jobs = metrics.counter  # bound per (tenant, status) lazily
        metrics.gauge("serve.pool_free", fn=lambda: len(self._pool))

    # -- public API ---------------------------------------------------------------

    def run(self) -> ServeOutcome:
        """Run the whole scenario to drain; returns the outcome record."""
        self.rt.run(self._main)
        for job in self.jobs:
            if job.status == "queued":  # never became dispatchable
                job.status = "starved"
                self._count(job.tenant, "starved")
        return ServeOutcome(spec=self.spec, jobs=list(self.jobs), makespan=self.rt.now)

    # -- the control activity (place 0) -------------------------------------------

    def _main(self, ctx):
        with ctx.finish(Pragma.DEFAULT, name="serve") as f:
            self._finish = f
            for job in self.jobs:
                dt = job.request.arrival - ctx.now
                if dt > 0:
                    yield ctx.sleep(dt)
                self._arrive(job)
                self._dispatch(ctx.now)
        yield f.wait()

    # -- admission ----------------------------------------------------------------

    def _arrive(self, job: Job) -> None:
        tenant = self._tenants[job.tenant]
        cap = tenant.spec.max_queued
        if cap is not None and len(tenant.queue) >= cap:
            job.status = "rejected"
            self._count(job.tenant, "rejected")
        else:
            if not tenant.queue:
                # a tenant waking from idle re-enters the fair-share race at
                # the current virtual time instead of monopolizing with the
                # credit it accumulated while absent
                tenant.vtime = max(tenant.vtime, self._global_vtime)
            tenant.queue.append(job)
        self._h_depth.observe(self._waiting())

    def _waiting(self) -> int:
        return sum(len(t.queue) for t in self._tenants.values())

    # -- dispatch -----------------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        """Start every job that fits, best scheduling key first."""
        self._heal_pool()
        while True:
            order = sorted(
                (
                    (t.spec.priority, t.vtime, name)
                    for name, t in self._tenants.items()
                    if t.queue
                ),
            )
            started = False
            for _prio, _vt, name in order:
                tenant = self._tenants[name]
                job = tenant.queue[0]
                width = self._width_for(tenant, job)
                if width is None:
                    continue  # backfill: try the next tenant in key order
                tenant.queue.popleft()
                self._start(job, tenant, width, now)
                started = True
                break
            if not started:
                return

    def _width_for(self, tenant: _TenantState, job: Job) -> Optional[int]:
        """The elastic width this job would get right now, or None if it
        cannot start."""
        req = job.request
        avail = len(self._pool)
        if tenant.spec.quota_places is not None:
            avail = min(avail, tenant.spec.quota_places - tenant.in_use)
        if avail < req.places_min:
            return None
        # grow only when nothing else is waiting for the pool
        target = req.places_max if self._waiting() == 1 else req.places_min
        return max(req.places_min, min(target, avail))

    def _start(self, job: Job, tenant: _TenantState, width: int, now: float) -> None:
        places = tuple(self._pool[:width])
        del self._pool[:width]
        tenant.in_use += width
        tenant.vtime += width / tenant.spec.weight
        self._global_vtime = max(self._global_vtime, tenant.vtime)
        job.places = places
        job.status = "running"
        job.t_start = now
        self._h_wait[job.tenant].observe(now - job.request.arrival)
        tracer = self.rt.obs.trace
        if tracer.enabled:
            tracer.instant(
                "serve.job_begin", "serve", 0, now,
                id=job.job_id,
                tenant=job.tenant, kernel=job.kernel, places=list(places),
            )
        self.rt.spawn_local(
            0, self._runner, (job,), self._finish, name=f"job{job.job_id}"
        )

    # -- the per-job runner activity (place 0) --------------------------------------

    def _runner(self, ctx, job: Job):
        try:
            job.result = yield from run_job(ctx, self.rt, job.request, job.places, job.t_start)
            job.status = "ok"
        except (DeadPlaceError, ResilientError, KernelError) as exc:
            job.status = "aborted"
            job.error = str(exc)
            # the job's finish failed fast, but survivors at live places are
            # still winding down; don't reallocate under them
            yield from self._drain(ctx, job)
        job.t_end = ctx.now
        self._release(job, ctx.now)
        self._dispatch(ctx.now)

    def _drain(self, ctx, job: Job):
        def live() -> bool:
            return any(
                self.rt.live_activities(p)
                for p in job.places
                if not self.rt.is_dead(p)
            )

        while live():
            yield ctx.sleep(DRAIN_POLL)

    def _release(self, job: Job, now: float) -> None:
        tenant = self._tenants[job.tenant]
        tenant.in_use -= len(job.places)
        for p in job.places:
            if self.rt.is_dead(p):
                # elastic recovery: respawn the failed place as a fresh host
                # before the pool offers it to the next tenant
                self.rt.revive_place(p)
            elif job.status == "aborted":
                # its members never reached the pops that end a run; no other
                # job runs here, so whatever the place holds is this job's
                self.rt.place(p).store.clear()
            self._pool.append(p)
        self._pool.sort()
        if job.status == "ok":
            self._h_latency[job.tenant].observe(job.latency)
        self._count(job.tenant, job.status)
        self._h_depth.observe(self._waiting())
        tracer = self.rt.obs.trace
        if tracer.enabled:
            tracer.instant(
                "serve.job_end", "serve", 0, now,
                id=job.job_id,
                tenant=job.tenant, kernel=job.kernel, status=job.status,
                places=list(job.places),
            )

    # -- pool hygiene ----------------------------------------------------------------

    def _heal_pool(self) -> None:
        """Revive free places chaos killed while nobody owned them."""
        for p in self._pool:
            if self.rt.is_dead(p):
                self.rt.revive_place(p)

    def _count(self, tenant: str, status: str) -> None:
        self._c_jobs("serve.jobs", tenant=tenant, status=status).inc()
