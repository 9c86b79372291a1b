"""sha256 digests of the circuit outputs, for byte-identity checks.

Two digests, each over the raw IEEE-754 bytes of every output array:

* ``sizing`` -- ``IntegratorSizingProblem.evaluate_batch`` objectives and
  constraints, corners on and off x ``n_mc`` 1/2/6 x seeds 0-5 x
  populations 1/7/24/80/200.  Odd seeds scale each design by 0.5-1.5x,
  so some of their designs lie out of bounds.
* ``campaign`` -- power and pass bits of every campaign scenario, in
  the grid's canonical order whatever the shard plan, over two grids:
  perfbench's (5 corners x nom/hot/lowvdd x 16 MC) and
  ``campaign_smoke.py``'s (TT/SS x nom/hot/cold/lowvdd x 8 MC), each
  for 200 designs drawn in bounds, seeds 0/1/11/201.

Usage::

    python benchmarks/output_digest.py                 # digests of the importable repro
    python benchmarks/output_digest.py TREE_A TREE_B   # compare two source trees

With two trees the script runs itself once with each tree's ``src`` on
``PYTHONPATH``, prints both digest lines, and exits 1 unless every
digest matches.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def sizing_digest() -> str:
    from repro.circuits.sizing_problem import IntegratorSizingProblem

    h = hashlib.sha256()
    for use_corners in (True, False):
        for n_mc in (1, 2, 6):
            problem = IntegratorSizingProblem(n_mc=n_mc, use_corners=use_corners)
            for seed in range(6):
                rng = np.random.default_rng(seed)
                for pop in (1, 7, 24, 80, 200):
                    x = problem.lower + rng.random((pop, problem.n_var)) * (
                        problem.upper - problem.lower
                    )
                    if seed % 2:
                        x = x * rng.uniform(0.5, 1.5, x.shape)
                    out = problem.evaluate_batch(x)
                    h.update(np.ascontiguousarray(out.objectives).tobytes())
                    h.update(np.ascontiguousarray(out.constraints).tobytes())
    return h.hexdigest()


def campaign_digest() -> str:
    from campaign_smoke import SPEC as SMOKE_SPEC
    from repro.campaign.scenarios import (
        CampaignSpec,
        OperatingCondition,
        expand_scenarios,
        plan_shards,
    )
    from repro.campaign.shards import evaluate_shard
    from repro.circuits.sizing_problem import _LOWER, _UPPER

    perfbench_spec = CampaignSpec(
        n_mc=16,
        conditions=(
            OperatingCondition("nom"),
            OperatingCondition("hot", temperature=358.15),
            OperatingCondition("lowvdd", vdd_scale=0.9),
        ),
    )
    h = hashlib.sha256()
    for spec in (perfbench_spec, SMOKE_SPEC):
        scenarios = expand_scenarios(spec)
        for seed in (0, 1, 11, 201):
            rng = np.random.default_rng(seed)
            x = _LOWER + rng.random((200, _LOWER.size)) * (_UPPER - _LOWER)
            by_key = {}
            for k, indices in enumerate(plan_shards(spec)):
                shard = evaluate_shard(spec, [scenarios[i] for i in indices], x, k)
                for key, power, passes in zip(shard.scenario_keys, shard.power, shard.passes):
                    by_key[key] = (power, passes)
            for scenario in scenarios:
                for arr in by_key[scenario.key]:
                    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def digests() -> dict:
    return {"sizing": sizing_digest(), "campaign": campaign_digest()}


def run_tree(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    out = subprocess.run(
        [sys.executable, __file__], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv) -> int:
    if not argv:
        print(json.dumps(digests(), sort_keys=True))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (run_tree(tree) for tree in argv)
    print(json.dumps({"tree": argv[0], **a}, sort_keys=True))
    print(json.dumps({"tree": argv[1], **b}, sort_keys=True))
    same = a == b
    print("byte-identical" if same else "DIGESTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
