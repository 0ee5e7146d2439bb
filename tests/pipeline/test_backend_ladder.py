"""Back-end configuration and ladder tests.

The compact kernels are the only interference builder, Chaitin loop
and schedulers, so ``DriverConfig.backend`` accepts only
``"compact"``, and the back-end ladders have one fallback each: the
augmented scheduler degrades to the list scheduler, and the combined
coloring to the Chaitin loop.
"""

import pytest

from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import CompilationDriver, DriverConfig
from repro.utils import faults
from repro.utils.errors import InputError
from repro.workloads import example1, example2


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def machine():
    return two_unit_superscalar()


def recoveries(report):
    return [d.recovery for d in report.diagnostics if d.recovery]


def _driver(machine, **config):
    return CompilationDriver(
        machine, num_registers=3, config=DriverConfig(**config)
    )


class TestConfig:
    def test_unknown_backend_rejected(self, machine):
        with pytest.raises(InputError):
            _driver(machine, backend="turbo")

    @pytest.mark.parametrize("backend", ["auto", "reference"])
    def test_removed_backends_rejected(self, machine, backend):
        with pytest.raises(InputError):
            _driver(machine, backend=backend)

    def test_default_backend_is_compact(self):
        assert DriverConfig().backend == "compact"


class TestLadder:
    def test_clean_compact_compile_not_degraded(self, machine):
        outcome = _driver(machine, backend="compact").compile_function(
            example2()
        )
        assert outcome.ok
        assert not outcome.report.degraded

    def test_sched_augmented_fault_exhausts_both_rungs(self, machine):
        # The augmented scheduler is the only rung above the list
        # scheduler, which takes over.
        with faults.inject("sched.augmented"):
            outcome = _driver(machine, backend="compact").compile_function(
                example2()
            )
        assert outcome.ok
        assert recoveries(outcome.report) == ["list scheduler"]


class TestParanoid:
    @pytest.mark.parametrize("backend", ["compact"])
    def test_paranoid_clean(self, machine, backend):
        outcome = _driver(
            machine, backend=backend, paranoid=True
        ).compile_function(example1())
        assert outcome.ok
        assert not outcome.report.degraded
