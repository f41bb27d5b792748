"""Every shipped config, run through the CLI at its own seed, writes the
table (or the verify report) committed under ``tests/golden`` byte for
byte.  The manifests are not compared: they hold timings.

A change that moves rows on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and lists the moves in
CHANGES.md."""

import shutil
import tempfile
from pathlib import Path

import pytest

from magspec.cli import COMMANDS, main

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(config: Path, out: Path) -> Path:
    """Run the command the config's file name starts with (``converge``,
    ``jumps``, ``butterfly`` or ``verify``) and return its output's path."""
    command = config.stem.split("_")[0]
    assert main([command, str(config), "--out", str(out)]) == 0
    table = COMMANDS[command][2]
    return out / (table[0] if table else "verify_report.json")


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_shipped_config_writes_the_golden_output(config, tmp_path):
    got = run(config, tmp_path)
    assert got.read_bytes() == (GOLDEN / config.stem / got.name).read_bytes()


if __name__ == "__main__":
    for config in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            got = run(config, Path(tmp))
            (GOLDEN / config.stem).mkdir(parents=True, exist_ok=True)
            shutil.copyfile(got, GOLDEN / config.stem / got.name)
