"""The benchmark's tracer still finds every graphrde function it times.

``perfbench/tracing.py`` rebinds functions by module and name; one that is
renamed or dropped would be reported as missing and its layer would read
0, so the suite checks here that nothing is missing, that a forward pass
is counted and that the tape probe reads the tape's entries at backward,
exactly, so a change in the entries per RHS evaluation shows here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# install() rebinds graphrde's functions in place, so it runs in a child.
CHILD = """
import json
import numpy as np
import tracing
from graphrde import data as D, tensor as T, training as TR
from graphrde.model import ModelConfig, ParamStore
from graphrde.solver import SolveSpec

tracer = tracing.Tracer()
tracer.install()
cfg = ModelConfig(num_nodes=2, input_len=5, horizon=1, dim_h=2, dim_z=2, subpath_len=2)
windows = D.make_windows(np.random.default_rng(0).normal(size=(2, 7, 1)), 5, 1)
prep = TR.prepare_split(windows, D.Normalizer(mean=np.zeros(1), std=np.ones(1)), cfg)
pred = TR.forward_prepared(ParamStore(cfg, seed=0), cfg, SolveSpec("rk4", 1), prep, np.arange(2))
T.backward(TR.l1_loss(pred, T.constant(prep.targets_norm[:2])))
print(json.dumps({"missing": tracer.missing, "metrics": tracer.metrics()}))
"""


def test_tracer_finds_every_layer_and_counts_rhs_evaluations():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["missing"] == []
    metrics = report["metrics"]
    assert metrics["solver.rhs_evals"] == 2 * 4  # log-signature windows x RK4 stages
    assert metrics["logsig.cells"] == 2 * 2  # forecasting windows x nodes
    # the tape probe ran at backward and read the live taped outputs: 2 per
    # RHS evaluation (one head_matvec per field) x 8, 52 RK4 state updates,
    # 5 for the adaptive graph operator, 4 for the initial state and 6 for
    # the readout and loss
    assert metrics["tensor.tape_entries"] == 2 * 8 + 52 + 5 + 4 + 6
    assert 0 < metrics["tensor.tape_bytes"]
