"""Byte pins for the seeded loss CSVs.

``data/figure_pins.json`` holds the SHA-256 of the figure-2 to figure-5
datasets, of two CLI ``simulate`` CSVs in analytic mode and of one in codec
mode.  The determinism tests only compare two runs of the same code; these
pins compare against recorded bytes: the loss pins from before the analytic
model counted its windows on padded prefix sums, so a change that moves a
single loss count in a seeded CSV fails here, and the rate and size pins
from before each figure's dataset became fixed in its function.
"""

import hashlib
import json
from pathlib import Path

import pytest

from relaystream.cli import main
from relaystream.sim_harness import emit_figure_data

PINS = json.loads((Path(__file__).parent / "data" / "figure_pins.json").read_text())

FIGURE_CASES = {
    "figure-2-defaults": (2, {}),
    "figure-3-defaults": (3, {}),
    "figure-4-defaults": (4, {}),
    "figure-5-defaults": (5, {}),
    "figure-4-trials2000-seed3-horizon128": (4, {"trials": 2000, "seed": 3, "horizon": 128}),
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_every_pin_has_a_case():
    assert set(PINS) == set(FIGURE_CASES) | {
        "cli-simulate-12341-analytic",
        "cli-simulate-5230-analytic-horizon128",
        "cli-simulate-12341-codec-horizon128",
    }


@pytest.mark.parametrize("name", sorted(FIGURE_CASES))
def test_figure_csv_is_pinned(name, tmp_path):
    figure, kw = FIGURE_CASES[name]
    path = tmp_path / f"{name}.csv"
    emit_figure_data(figure, str(path), **kw)
    assert _sha256(path) == PINS[name]


def test_cli_figure_data_passes_the_loss_flags(tmp_path, capsys):
    # figures 4 and 5 take --trials, --seed and --horizon from the command
    # line: the CLI's CSV is the pinned one of the same figure-4 call
    path = tmp_path / "figure4.csv"
    argv = ["figure-data", "--figure", "4", "--trials", "2000", "--seed", "3",
            "--horizon", "128", "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(path) == PINS["figure-4-trials2000-seed3-horizon128"]


def test_cli_simulate_csv_is_pinned(tmp_path, capsys):
    path = tmp_path / "loss.csv"
    argv = ("simulate --T 12 --N1 3 --N2 4 --j 1 --alpha 0.05 --beta 0.05 "
            "--trials 100000 --mode analytic --out").split() + [str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(path) == PINS["cli-simulate-12341-analytic"]


def test_cli_simulate_csv_across_blocks_is_pinned(tmp_path, capsys):
    # 40000 messages of 123 per chunk: 326 chunks, more than one block of
    # chunks, the last one partial.  Recorded before the estimate batched
    # chunks into blocks.
    path = tmp_path / "loss.csv"
    argv = ("simulate --T 5 --N1 2 --N2 3 --j 0 --alpha 0.1 --beta 0.1 "
            "--horizon 128 --trials 40000 --mode analytic --out").split() + [str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(path) == PINS["cli-simulate-5230-analytic-horizon128"]


def test_cli_simulate_codec_csv_is_pinned(tmp_path, capsys):
    # the figure-4 set in codec mode: 2000 messages of 116 per chunk, 18
    # chunks.  Recorded before the relay and the destination kept each
    # message's symbols in queue order.
    path = tmp_path / "loss.csv"
    argv = ("simulate --T 12 --N1 3 --N2 4 --j 1 --alpha 0.1 --beta 0.1 "
            "--horizon 128 --trials 2000 --mode codec --out").split() + [str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(path) == PINS["cli-simulate-12341-codec-horizon128"]
