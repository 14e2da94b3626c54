"""The benchmark workloads reproduce their pinned reference values.

``perfbench/references.json`` pins every check value of the four
benchmark workloads, recorded at full size.  These tests rebuild each
workload through ``perfbench/workloads.py`` at seed 0 (``suite_all`` also
at seeds 1 and 2) and compare its checks under the harness's own 1e-12
row-relative rule (and, for ``suite_all``, the report's SHA-256).  They
run only where python, numpy, scipy and the CPU model equal the recorded
machine block; cache sizes and the core count are not compared, since
they do not change a result.  Nothing under
``perfbench/`` is written.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from worker import References, machine_block  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

REFERENCES = PERFBENCH / "references.json"
SAME_RESULTS = ("python", "numpy", "scipy", "cpu_model")


def _recorded_machine():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["machine"]


def _check_against_references(name, seed, scratch):
    recorded = _recorded_machine()
    here = machine_block()
    if any(here[key] != recorded[key] for key in SAME_RESULTS):
        pytest.skip("references were recorded with another python, numpy, scipy or CPU")
    # the recorded block is passed as this machine's, so only the keys
    # compared above decide whether the references apply
    refs = References(str(REFERENCES), name, seed, "full", recorded)
    assert refs.status == "pinned"
    workload = WORKLOADS[name](SIZES["full"])
    ctx = workload.build(seed, str(scratch))
    checks = workload.run(ctx)
    assert {c.name for c in checks} == set(refs.checks)
    differing = [(c.name, c.values, refs.checks[c.name])
                 for c in checks if not refs.matches(c)]
    assert not differing
    if name == "suite_all":
        assert hashlib.sha256(ctx["report"]).hexdigest() == refs.report_sha256


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed0_matches_references(name, tmp_path):
    _check_against_references(name, 0, tmp_path)


@pytest.mark.parametrize("seed", [1, 2])
def test_suite_all_matches_references(seed, tmp_path):
    """Every suite shares ensembles with others, so more seeds guard the report."""
    _check_against_references("suite_all", seed, tmp_path)
