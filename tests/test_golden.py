"""The golden set: stdout digests of fixed CLI calls against the recorded ones."""

import importlib.util
import os
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "golden_cli.py"


def test_golden_cli_digests_match_the_recorded_ones(capsys, monkeypatch):
    for var in [v for v in os.environ if v.startswith("PGX_")]:
        monkeypatch.delenv(var)
    monkeypatch.chdir(REPO_ROOT)          # the script runs from the root; restored after
    spec = importlib.util.spec_from_file_location("golden_cli", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.run()
    lines = capsys.readouterr().out.splitlines()
    expected = (REPO_ROOT / "scripts" / "golden_cli.expected").read_text().splitlines()
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        assert line == want
