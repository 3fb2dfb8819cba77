"""Smoke tests: the fast demos run to the end and print their last finding.

``train_and_ablate.py`` trains several models and is left out for time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "two_stage_reranking.py": "re-rank k=40",
    "audio_frontend.py": "into 1212 tokens",
    "file_formats.py": "CRC mismatch",
    "attention_pooling.py": "pooled output identical under context permutation: True",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs_and_prints_its_finding(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout
