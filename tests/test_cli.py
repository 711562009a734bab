"""Command-line interface: output conventions, exit codes, determinism.

All invocations run in-process through ``main(argv)`` so exit codes and
stdout/stderr are asserted directly.
"""

import csv
from pathlib import Path

import pytest

import relaystream.cli as cli
import relaystream.mac_region as mac_region
import relaystream.relay_codec as relay_codec
from relaystream.cli import USAGE_ERROR, VERIFY_FAILURE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DATA = Path(__file__).parent / "data"


def test_quick_start_stdout_matches_golden_files(capsys):
    """The README quick start's exhaustive and randomized ``verify`` and its
    ``mac`` command print, byte for byte, the golden files in tests/data."""
    golden = {
        "verify_T5_N1_2_N2_3_j0.txt": "verify --T 5 --N1 2 --N2 3 --j 0",
        "verify_T12_N1_3_N2_4_j1_randomized.txt":
            "verify --T 12 --N1 3 --N2 4 --j 1 --randomized",
        "mac_T7_N1_3_N2_2_N3_4_j1_2_j2_1.txt": "mac --T 7 --N1 3 --N2 2 --N3 4 --j1 2 --j2 1",
    }
    for name, argv in golden.items():
        code, out, _ = run(capsys, *argv.split())
        assert code == 0, argv
        assert out.encode() == (DATA / name).read_bytes(), argv


def test_rates_reference_small(capsys):
    code, out, _ = run(capsys, "rates", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0")
    assert code == 0
    assert "second-hop rate R2    3/10 (0.3000)" in out
    assert "nonadaptive baseline  1/4 (0.2500)" in out
    assert "first-hop rate R1     1/3 (0.3333)" in out


def test_rates_reference_isolated(capsys):
    code, out, _ = run(capsys, "rates", "--T", "6", "--N1", "2", "--N2", "3", "--j", "1")
    assert code == 0
    assert "second-hop rate R2    6/13 (0.4615)" in out
    assert "nonadaptive baseline  2/5 (0.4000)" in out


def test_rates_auto_j(capsys):
    code, out, _ = run(capsys, "rates", "--T", "5", "--N1", "2", "--N2", "3")
    assert code == 0
    assert "j=1  (auto j)" in out
    assert "optimal j             1 with rate 1/3" in out


def test_sizes_reference(capsys):
    code, out, _ = run(capsys, "sizes", "--T", "15", "--N1", "4", "--N2", "6", "--j", "0")
    assert code == 0
    assert "relay packet (worst)  112 symbols = 448 bits (56 bytes)" in out
    assert "baseline relay packet 12 symbols = 48 bits (6 bytes)" in out


def test_invalid_params_exit_code(capsys):
    code, _, err = run(capsys, "rates", "--T", "5", "--N1", "3", "--N2", "3", "--j", "0")
    assert code == USAGE_ERROR
    assert "error:" in err


def test_argparse_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--T", "5"])  # missing required flags
    assert exc.value.code == USAGE_ERROR
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == USAGE_ERROR
    capsys.readouterr()


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "worst payload     10 (target 10)" in out


def test_verify_auto_j_is_the_rate_optimal_j(capsys):
    code, out, _ = run(capsys, "verify", "--T", "5", "--N1", "2", "--N2", "3")
    assert code == 0
    assert "verify T=5 N1=2 N2=3 j=1 " in out  # optimal_j(5, 2, 3) is 1
    assert out.strip().endswith("PASS")


def test_verify_large_t_needs_randomized(capsys):
    code, _, err = run(capsys, "verify", "--T", "9", "--N1", "2", "--N2", "3", "--j", "0")
    assert code == USAGE_ERROR
    assert "--randomized" in err
    code2, out, _ = run(
        capsys, "verify", "--T", "9", "--N1", "2", "--N2", "3", "--j", "0",
        "--randomized", "--episode-budget", "6",
    )
    assert code2 == 0
    assert "PASS" in out


@pytest.mark.parametrize("mode", [(), ("--randomized", "--episode-budget", "300")],
                         ids=["full", "randomized"])
def test_verify_past_the_enumeration_bound_runs_probe_families(capsys, mode):
    """(1,1,0,0) at horizon 7 > 3(T+1): 34 hop-1 and one hop-2 pattern, a
    cross product under the full-mode budget and a hop-1 count under the
    probe budget of 50, but too long to enumerate.  Both modes run the probe
    families instead, with sampled hop-1 patterns."""
    code, out, err = run(capsys, "verify", "--T", "1", "--N1", "1", "--N2", "0", "--j", "0",
                         "--horizon", "7", *mode)
    assert code == 0, err
    assert out.strip().endswith("PASS")
    assert "first-hop patterns (sampled)" in out


def test_verify_failure_exits_two(capsys, monkeypatch):
    real = relay_codec.build_parity_groups

    def corrupted(p, plan, values):
        pg = real(p, plan, values)
        rows = [list(r) for r in pg.rows]
        if rows and rows[0]:
            rows[0][0] = (rows[0][0] + 1) % 7
            return relay_codec.ParityGroups(pg.t, pg.grouped, tuple(tuple(r) for r in rows))
        return pg

    monkeypatch.setattr(relay_codec, "build_parity_groups", corrupted)
    code, out, _ = run(capsys, "verify", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0")
    assert code == VERIFY_FAILURE
    assert "FAIL" in out
    assert "counterexample" in out


def test_simulate_stdout_deterministic(capsys):
    argv = (
        "simulate", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0",
        "--alpha", "0.1", "--beta", "0.1", "--trials", "3000",
        "--seed", "9", "--horizon", "128",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "scheme,mode,trials,losses,loss_probability,stderr"
    assert len(lines) == 3  # both schemes by default


def test_simulate_csv_out(tmp_path, capsys):
    path = tmp_path / "loss.csv"
    argv = (
        "simulate", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0",
        "--alpha", "0.1", "--beta", "0.1", "--trials", "2000",
        "--seed", "4", "--horizon", "128", "--out", str(path),
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0 and f"wrote {path}" in out
    first = path.read_bytes()
    run(capsys, *argv)
    assert path.read_bytes() == first  # byte-identical rerun
    rows = list(csv.reader(first.decode().splitlines()[1:]))
    assert rows[0] == ["scheme", "mode", "trials", "losses", "loss_probability", "stderr"]
    assert {r[0] for r in rows[1:]} == {"adaptive", "nonadaptive"}


def test_simulate_validates_probabilities(capsys):
    code, _, err = run(
        capsys, "simulate", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0",
        "--alpha", "1.5", "--beta", "0.1", "--trials", "100",
    )
    assert code == USAGE_ERROR
    assert "error:" in err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_simulate_rejects_workers_below_one(capsys, workers):
    code, _, err = run(
        capsys, "simulate", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0",
        "--alpha", "0.1", "--beta", "0.1", "--trials", "100", "--workers", workers,
    )
    assert code == USAGE_ERROR
    assert "workers must be >= 1" in err


def test_mac_summary_and_csv(tmp_path, capsys):
    path = tmp_path / "region.csv"
    code, out, _ = run(
        capsys, "mac", "--T", "7", "--N1", "3", "--N2", "2", "--N3", "4",
        "--j1", "2", "--j2", "1", "--mix-bound", "16", "--out", str(path),
    )
    assert code == 0
    assert "pure corners          R1=1/4 (0.2500), R2=2/5 (0.4000)" in out
    assert "per-user bounds       R1 <= 1/4 (0.2500), R2 <= 1/2 (0.5000)" in out
    assert "sumrate reference     1/3 (0.3333); exceeded by" in out
    assert "field size            nominal 7, implemented 7" in out
    body = list(csv.reader(path.read_text().splitlines()[1:]))
    assert body[0] == ["R1", "R2", "on_frontier", "sumrate_bound"]
    # (1/4, 0) is in the region but dominated by a mixed point at this bound
    assert ["1/4", "0", "0", "1/3"] in body
    assert ["1/4", "1/20", "1", "1/3"] in body
    assert ["0", "2/5", "1", "1/3"] in body


def test_mac_rejects_invalid(capsys):
    code, _, err = run(capsys, "mac", "--T", "7", "--N1", "4", "--N2", "2", "--N3", "4")
    assert code == USAGE_ERROR
    assert "error:" in err


def test_figure_data_writes_file(tmp_path, capsys):
    path = tmp_path / "rates.csv"
    code, out, _ = run(capsys, "figure-data", "--figure", "2", "--out", str(path))
    assert code == 0
    assert f"wrote {path}" in out
    text = path.read_text()
    assert text.splitlines()[1] == "T,N1,N2,series,j,rate"


def test_figure_data_rejects_unknown_figure(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure-data", "--figure", "9", "--out", "x.csv"])
    assert exc.value.code == USAGE_ERROR
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0", "--alpha", "0.1",
         "--beta", "0.1", "--trials", "100", "--horizon", "32"),
        ("mac", "--T", "7", "--N1", "3", "--N2", "2", "--N3", "4", "--j1", "2", "--j2", "1",
         "--mix-bound", "4"),
        ("figure-data", "--figure", "2"),
    ],
    ids=["simulate", "mac", "figure-data"],
)
def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.csv"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert code == USAGE_ERROR
    assert err.startswith("error:") and str(path) in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv, work",
    [
        (("simulate", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0", "--alpha", "0.1",
          "--beta", "0.1", "--mode", "codec"), "loss_probability"),
        (("mac", "--T", "7", "--N1", "3", "--N2", "2", "--N3", "4", "--j1", "2", "--j2", "1"),
         "build_region"),
        (("figure-data", "--figure", "4"), "emit_figure_data"),
    ],
    ids=["simulate", "mac", "figure-data"],
)
def test_unwritable_out_path_fails_before_the_work(tmp_path, capsys, monkeypatch, argv, work):
    """A bad --out exits 1 before any trial runs and before any summary
    line prints: the command's work function is never called."""

    def not_reached(*args, **kw):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(cli, work, not_reached)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == USAGE_ERROR and out == ""
    assert err.startswith("error:") and str(path) in err


def test_out_check_leaves_no_file_behind(tmp_path, capsys):
    """Checking --out creates nothing: a run that then fails leaves no file."""
    path = tmp_path / "x.csv"
    code, _, err = run(
        capsys, "simulate", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0",
        "--alpha", "0.1", "--beta", "0.1", "--trials", "100", "--workers", "0",
        "--out", str(path),
    )
    assert code == USAGE_ERROR and "workers must be >= 1" in err
    assert not path.exists()


def test_mac_out_builds_the_region_once(tmp_path, capsys, monkeypatch):
    """``mac --out`` prints the summary and writes the CSV from one region."""
    calls = []
    real = mac_region.build_region

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(cli, "build_region", counted)
    monkeypatch.setattr(mac_region, "build_region", counted)
    name = "region_T7_N1_3_N2_2_N3_4_j1_2_j2_1.csv"
    code, _, _ = run(
        capsys, "mac", "--T", "7", "--N1", "3", "--N2", "2", "--N3", "4",
        "--j1", "2", "--j2", "1", "--out", str(tmp_path / name),
    )
    assert code == 0 and len(calls) == 1
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("value", ["abc", "1.5", "", "123"])
def test_output_does_not_read_the_environment(capsys, monkeypatch, value):
    """The seed is --seed alone: with RELAYSTREAM_SEED set to anything,
    ``simulate`` without --seed prints what --seed 0 prints, and ``rates``,
    which takes no seed, runs."""
    argv_tail = (
        "simulate", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0",
        "--alpha", "0.15", "--beta", "0.15", "--trials", "3000", "--horizon", "128",
    )
    _, out_flag, _ = run(capsys, *argv_tail, "--seed", "0")
    monkeypatch.setenv("RELAYSTREAM_SEED", value)
    code, out_env, _ = run(capsys, *argv_tail)
    assert code == 0 and out_env == out_flag
    assert run(capsys, "rates", "--T", "5", "--N1", "2", "--N2", "3", "--j", "0")[0] == 0
