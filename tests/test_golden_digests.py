import json
import os
import platform
import re
import subprocess
import sys

import pytest

from make_golden_digests import GOLDEN, SEEDS, pipeline_digests, versions

WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), ".github",
                        "workflows", "tier1.yml")

# Writes the digests of the seed-42 run under argv[1] to the file argv[2].
_DIGESTS_42 = """
import json, sys
from make_golden_digests import pipeline_digests
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(pipeline_digests(42, sys.argv[1]), fh)
"""


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden["versions"] == versions(), (
        f"digests made with {golden['versions']}, this is {versions()}; "
        f"rerun tests/make_golden_digests.py on the parent commit")
    return golden["digests"]


def test_ci_installs_the_versions_the_digests_were_made_with():
    # _golden() refuses any other Python or numpy, so CI pins these two
    with open(WORKFLOW, encoding="utf-8") as fh:
        text = fh.read()
    with open(GOLDEN, encoding="utf-8") as fh:
        made_with = json.load(fh)["versions"]
    assert re.findall(r'python-version: *"([^"]*)"', text) \
        == [made_with["python"]]
    assert re.findall(r"\bnumpy==(\S+)", text) == [made_with["numpy"]]
    # the job has its own time limit: a hung worker pool would otherwise
    # hold the runner for GitHub's 360-minute default
    assert re.findall(r"^    timeout-minutes: *(\d+)$", text, re.M) == ["15"]


def _moved(seed, want: dict, got: dict) -> list:
    return [f"seed {seed}: {name}" for name in sorted(want.keys()
                                                      | got.keys())
            if want.get(name) != got.get(name)]


def test_pipeline_outputs_match_golden_digests(tmp_path):
    # a fixed (config, seed) gives the same bytes from one change to the
    # next; a change that moves an output on purpose rewrites the digests
    golden = _golden()
    moved = []
    for seed in SEEDS:
        moved += _moved(seed, golden[str(seed)],
                        pipeline_digests(seed, tmp_path / str(seed)))
    assert moved == []


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 cores")
def test_outputs_do_not_depend_on_the_blas_core(tmp_path):
    # Prescott kernels need only SSE3, so every x86-64 CPU runs them
    golden = _golden()
    import audioanom
    src = os.path.dirname(os.path.dirname(audioanom.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(GOLDEN)]))
    digests = tmp_path / "digests.json"
    subprocess.run([sys.executable, "-c", _DIGESTS_42, str(tmp_path / "42"),
                    str(digests)], capture_output=True, check=True, env=env,
                   timeout=120)
    assert _moved(42, golden["42"], json.loads(digests.read_text())) == []
