"""Every benchmark workload still writes its pinned CSV bytes.

``perfbench/workloads.py`` pins the SHA-256 of every benchmark CSV at its
seed. All four workloads are rerun here: the coefficient search
(``fig2_k2``, ``dof_k3``), the alignment Monte Carlo (``align_mc``) and
the inversion check (``invert_k3``). A change that alters a byte on any
of these paths fails in the tier-1 suite and not only in the benchmark.
The module is loaded read-only, by path.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from caf import cli

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads_digests", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["fig2_k2", "dof_k3", "align_mc", "invert_k3"])
def test_search_workload_matches_pinned_digest(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    digests = []
    for i, cmd in enumerate(workload.commands):
        out = tmp_path / f"cmd{i}"
        assert cli.main([*cmd.argv, "--seed", str(workloads.PINNED_SEED), "--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / cmd.csv).read_bytes()).hexdigest())
    assert tuple(digests) == workloads.DIGESTS[name]
