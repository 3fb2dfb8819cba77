"""``tools/score_moves.py``: a checkout against itself moves nothing, and a
change to the arithmetic shows."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def score_moves(base: Path) -> list[str]:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "score_moves.py"), "--base", str(base),
         "--items", "20", "--seeds", "3"],
        capture_output=True, text=True, check=True).stdout.splitlines()


def test_the_checkout_against_itself_moves_no_score_and_no_rank():
    lines = score_moves(ROOT)
    assert len(lines) == 1 + 7 + 1
    for line in lines[1:-1]:
        _kind, seed, move, t2v, v2t = line.split()
        assert (seed, float(move), t2v, v2t) == ("3", 0.0, "0/20", "0/20"), line
    assert lines[-1] == ("largest |score move| 0.000e+00; ranks moved: "
                         "t2v 0 and v2t 0 of 140 each")


def test_a_changed_layernorm_epsilon_moves_every_kinds_scores(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    linalg = tmp_path / "src" / "tefal" / "linalg.py"
    source = linalg.read_text(encoding="utf-8")
    assert "LAYERNORM_EPS = 1e-5\n" in source
    linalg.write_text(source.replace("LAYERNORM_EPS = 1e-5\n", "LAYERNORM_EPS = 1e-3\n"),
                      encoding="utf-8")
    for line in score_moves(tmp_path)[1:-1]:
        assert float(line.split()[2]) > 0.0, line
