"""One runaway-limit error on every execution path.

The same endless program stops at the machine's step limit on the flat
and cached buses and at the kernel's unit limit on the virtual bus.
Both raise :class:`StepLimitExceeded`, which ``except MachineFault``
and ``except OsError_`` each still catch, with the messages unchanged.
"""

import pytest

from repro.errors import MachineFault, OsError_, StepLimitExceeded
from repro.ossim.kernel import Kernel
from repro.ossim.programs import Exit, Fork, Repeat
from repro.system.runner import run_system

RUNAWAY = """
int main() {
    int x = 0;
    while (1) {
        x = x + 1;
    }
    return x;
}
"""

MESSAGES = {"flat": "step limit exceeded (infinite loop?)",
            "cached": "step limit exceeded (infinite loop?)",
            "virtual": "unit limit exceeded"}


@pytest.mark.parametrize("jit", [False, True])
@pytest.mark.parametrize("bus", ["flat", "cached", "virtual"])
def test_runaway_raises_one_type_on_every_bus(bus, jit):
    with pytest.raises(StepLimitExceeded) as info:
        run_system(RUNAWAY, bus=bus, jit=jit, max_steps=5000)
    assert str(info.value) == MESSAGES[bus]
    assert isinstance(info.value, MachineFault)
    assert isinstance(info.value, OsError_)


@pytest.mark.parametrize("caught", [MachineFault, OsError_])
@pytest.mark.parametrize("bus", ["flat", "virtual"])
def test_existing_except_clauses_still_catch_it(bus, caught):
    try:
        run_system(RUNAWAY, bus=bus, max_steps=5000)
    except caught as exc:
        assert type(exc) is StepLimitExceeded
    else:  # pragma: no cover - the run must not finish
        pytest.fail("runaway program finished")


def test_faults_below_the_limit_keep_their_type():
    src = "int main() { int z = 0; return 7 / z; }"
    report = run_system(src, bus="virtual")
    assert report.faults and "division by zero" in next(
        iter(report.faults.values()))
    with pytest.raises(MachineFault, match="division by zero") as info:
        run_system(src, bus="flat")
    assert type(info.value) is MachineFault


def test_kernel_unit_limit():
    k = Kernel()
    k.spawn("p", [Repeat(100, [Fork()]), Exit(0)])
    with pytest.raises(StepLimitExceeded, match="unit limit exceeded"):
        k.run(max_units=2000)
