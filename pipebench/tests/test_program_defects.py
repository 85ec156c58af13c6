"""Known program defects that keep inputs out of the benchmark.

A benchmark runs on inputs on which no job fails, so ``spec.py`` leaves
out the inputs these defects hit (mst from the batch workloads).  Each
test here reproduces a defect outside the benchmark: it fails while the
defect stands (an expected failure) and passes once it is fixed, and
strict mode then fails the suite: the left-out inputs go back into the
benchmark and the test is dropped with the defect.
"""

import os
import subprocess
import sys

import pytest

from conftest import ROOT

# Counts mst's pointer-jumping launches; a healthy run needs about 20.
_MST_JUMPS = """
import sys
from repro.emulator import machine
from repro.workloads import get_workload

launch = machine.Emulator.launch
jumps = 0

def counted(self, kernel, *args, **kwargs):
    global jumps
    if kernel.name == "mst_pointer_jump":
        jumps += 1
        if jumps > 500:
            sys.exit("no convergence after 500 pointer jumps")
    return launch(self, kernel, *args, **kwargs)

machine.Emulator.launch = counted
get_workload("mst", scale=float(sys.argv[1]),
             seed=int(sys.argv[2])).run(verify=True)
"""


@pytest.mark.xfail(strict=True, reason="mst's Boruvka hook can form a "
                   "cycle longer than two, so pointer jumping never ends")
@pytest.mark.parametrize("scale,seed", [(0.25, 166080), (0.5, 220154),
                                        (0.5, 911455)])
def test_mst_pointer_jumping_converges(scale, seed):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run([sys.executable, "-c", _MST_JUMPS, str(scale),
                           str(seed)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
