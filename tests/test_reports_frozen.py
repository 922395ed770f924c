"""Every verb's report in text, csv and json, frozen byte for byte.

The files under `frozen/` are the reports `kakeyagf <argv> --format <fmt>`
printed before the CLI kept its options in argparse's namespace alone;
a refactor of the front end or the renderers must leave them unchanged.
An intended change to a report rewrites its file from the new output.
"""

from pathlib import Path

import pytest

from kakeyagf.cli import main

FROZEN = Path(__file__).parent / "frozen"

CASES = {
    "verify-bluher": ["verify-bluher", "--m-max", "4"],
    "gold": ["gold", "--m", "4", "--i", "2", "--verify"],
    "quartic": ["quartic", "--m", "3"],
    "quartic-t": ["quartic", "--m", "3", "--t", "3"],
    "sharpness": ["sharpness", "--m", "5"],
    "kakeya": ["kakeya", "--m", "2", "--n", "2", "--f", "gold:1", "--check"],
    "bounds": ["bounds", "--m-range", "3..4", "--n-range", "1..2"],
    "all": ["all", "--m-max", "4"],
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("name", list(CASES))
def test_report_frozen(name, fmt, capsys):
    assert main(CASES[name] + ["--format", fmt]) == 0
    # bytes, so that csv's \r\n line ends are compared as written
    assert capsys.readouterr().out.encode() == (FROZEN / f"{name}.{fmt}").read_bytes()
