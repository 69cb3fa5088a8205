"""Cold start: no serving path imports scipy.

scipy is needed only to fit a Yeo-Johnson lambda, while a bundle is
trained; loading it costs a serving process most of its start-up time
and memory.  The training fixtures have already imported scipy into
this test process, so the serving paths run in a fresh interpreter.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

from repro.train.registry import ModelRegistry

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import asyncio
import json
import sys

import repro
import repro.fleet
from repro.core.library import AdsalaRuntime
from repro.engine.service import GemmService
from repro.fleet import WorkerSpec
from repro.gemm.interface import GemmSpec
from repro.machine.presets import tiny_test_node
from repro.machine.simulator import MachineSimulator
from repro.serve.server import GemmServer
from repro.train.registry import ModelRegistry


def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))


async def serve(bundle, sim, root):
    async with GemmServer(GemmService.from_bundle(bundle, sim)) as server:
        await server.submit(GemmSpec(64, 256, 64))
    # What a fleet worker builds in its own spawned interpreter.
    worker = WorkerSpec("worker-0", root, "tiny", routines=("gemm",))
    service, _ = worker.build_service()
    async with worker.build_server(service) as server:
        return await server.submit_many([GemmSpec(32, 32, 32)] * 4)


root = sys.argv[1]
bundle = ModelRegistry(root).load("gemm", "tiny")
sim = MachineSimulator(tiny_test_node(), seed=0)
runtime = AdsalaRuntime(bundle, sim)
runtime.run(GemmSpec(128, 128, 128))
records = asyncio.run(serve(bundle, sim, root))
while_serving = scipy_modules()

import numpy as np
from repro.preprocessing.yeo_johnson import yeo_johnson_mle_lambda

lam = yeo_johnson_mle_lambda(np.random.default_rng(0).lognormal(size=64))
print(json.dumps({"served": len(records), "scipy_while_serving": while_serving,
                  "lambda": lam, "scipy_after_fit": len(scipy_modules())}))
"""


def test_no_serving_path_imports_scipy(tiny_bundle, tmp_path):
    bundle, _ = tiny_bundle
    ModelRegistry(tmp_path).publish(bundle, routine="gemm", machine="tiny")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["served"] == 4
    loaded = report["scipy_while_serving"]
    assert loaded == [], f"{len(loaded)} scipy modules loaded by serving"
    # The positive control: a fit does load scipy, so the check above
    # cannot pass because the child looked in the wrong place.
    assert math.isfinite(report["lambda"])
    assert report["scipy_after_fit"] > 0
