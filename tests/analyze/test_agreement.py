"""Static-vs-dynamic agreement: replay the analyzer's suggestions against the
runtime's PragmaError validation on recorded fork sequences."""

import pytest

from repro.analyze import check_agreement, replay
from repro.harness.runner import PORTABLE_KERNELS
from repro.runtime.finish.pragmas import Pragma

P = Pragma


class TestReplay:
    def test_finish_async_rejects_a_second_fork(self):
        assert replay(P.FINISH_ASYNC, home=0, forks=[(0, 1)], name="f") is None
        err = replay(P.FINISH_ASYNC, home=0, forks=[(0, 1), (0, 2)], name="f")
        assert err is not None and "FINISH_ASYNC" in err

    def test_finish_here_rejects_departure_without_return(self):
        ok = replay(P.FINISH_HERE, home=0, forks=[(0, 1), (1, 0)], name="f")
        assert ok is None
        err = replay(P.FINISH_HERE, home=0, forks=[(0, 1), (1, 2)], name="f")
        assert err is not None

    def test_finish_local_rejects_remote_fork(self):
        assert replay(P.FINISH_LOCAL, home=3, forks=[(3, 3)], name="f") is None
        assert replay(P.FINISH_LOCAL, home=3, forks=[(3, 1)], name="f")

    def test_unconstrained_pragmas_accept_anything(self):
        forks = [(0, p) for p in range(6)] * 3
        for pragma in (P.DEFAULT, P.FINISH_SPMD, P.FINISH_DENSE):
            assert replay(pragma, home=0, forks=forks, name="f") is None


@pytest.mark.slow
class TestKernelAgreement:
    @pytest.fixture(scope="class")
    def records(self):
        return check_agreement(places=4)

    def test_covers_every_kernel(self, records):
        assert {r.kernel for r in records} == set(PORTABLE_KERNELS)

    def test_every_suggestion_survives_runtime_replay(self, records):
        bad = [r for r in records if not r.ok]
        assert bad == [], [
            (r.kernel, r.path, r.lineno, r.suggestion, r.error) for r in bad
        ]

    def test_annotated_sites_are_observed(self, records):
        # hpl's annotated finish_async round trip must appear and agree
        hpl = [r for r in records if r.kernel == "hpl"]
        assert any(
            r.annotated is P.FINISH_ASYNC and r.suggestion is P.FINISH_ASYNC
            for r in hpl
        )
