"""Every number a CLI flag takes, set in turn to an extreme, ends in a
documented exit: 0, 2, 3 or 4, with nothing on stderr but one
``error: …`` line and no warning but the documented far-field one.

``cli.main`` runs in-process on fixed argument vectors over seeded data
(the ``--seed`` flag): ``simulate`` in both modes, then ``extract`` and
``estimate`` on each file it writes, ``estimate`` on a good sweep,
``report`` and ``check-farfield``. Sizes stay small: at most 8 steps and
16 samples, and int flags take only 0, -1, 1 and 2.
"""

import contextlib
import io
import warnings

import pytest

from permslab import cli

FLOATS = ["nan", "inf", "-inf", "0", "-0", "5e-324", "1e-300", "1e300", "1e308", "-1e308"]
INTS = ["0", "-1", "1", "2"]
NOISE = ["--amp-sigma", "0.01", "--phase-sigma-deg", "1", "--drift", "0.01", "--seed", "0"]
SWEEP = ["--step-m", "1e-4", "--carrier-hz", "79e9", *NOISE]
SIMULATE = ["--eps-real", "2.6", "--eps-imag", "0.1", "--phase-offset", "0", "--steps", "4",
            *SWEEP]
RAW_IF = ["--mode", "raw-if", "--standoff-m", "0.25", "--thickness-m", "0.02",
          "--backing", "3,0.5", "--bandwidth-hz", "1e4", "--chirp-duration-s", "2e-5",
          "--samples", "16", "--sample-interval-s", "1e-6", "--amplitude", "1",
          "--bounces", "1", "--aperture-m", "0"]
REPORT = ["--truth", "2.6,0.1", "--steps", "8", "--trials", "1", *SWEEP]


def flag_vectors(base, ints=()):
    """``base`` with each flag's value, in turn, replaced by each extreme
    value of its kind, as ``(flag, value, argv)``; a value of ``a,b`` form
    has each part replaced in turn."""
    for i in range(0, len(base), 2):
        flag, value = base[i], base[i + 1]
        if flag == "--mode":
            continue
        parts = value.split(",")
        for j in range(len(parts)):
            for extreme in INTS if flag in ints else FLOATS:
                fuzzed = ",".join(parts[:j] + [extreme] + parts[j + 1:])
                yield flag, fuzzed, [*base[:i], f"{flag}={fuzzed}", *base[i + 2:]]


def run(argv, far_field_allowed=False):
    """``cli.main(argv)``, and what is wrong with how it ended."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(argv)
    problems = []
    if code not in (0, 2, 3, 4):
        problems.append(f"exit {code}")
    lines = err.getvalue().splitlines()
    if (lines != []) if code == 0 else (len(lines) != 1 or not lines[0].startswith("error: ")):
        problems.append(f"exit {code} with stderr {err.getvalue()!r}")
    for w in caught:
        if not (far_field_allowed and w.category is UserWarning and "far-field" in str(w.message)):
            problems.append(f"{w.category.__name__}: {w.message}")
    return code, problems


def check(vectors, tmp_path, chain=False):
    """Run each vector, and with ``chain`` extract and estimate what it
    writes; fail with every problem found."""
    found = []
    sim, gam = str(tmp_path / "sim.txt"), str(tmp_path / "gam.txt")
    for flag, value, argv in vectors:
        code, problems = run(argv, far_field_allowed=flag == "--aperture-m")
        found += [(flag, value, argv[0], p) for p in problems]
        if chain and code == 0:
            sweep = sim
            if "raw-if" in argv:
                code, problems = run(["extract", "--input", sim, "--out", gam])
                found += [(flag, value, "extract", p) for p in problems]
                sweep = gam
            if code == 0:
                code, problems = run(["estimate", "--input", sweep, "--report-out",
                                      str(tmp_path / "rep.txt")])
                found += [(flag, value, "estimate", p) for p in problems]
    assert not found, f"{len(found)} problems, the first: {found[:5]}"


@pytest.mark.parametrize("mode", ["gamma", "raw-if"])
def test_simulate_flags_then_extract_and_estimate(mode, tmp_path):
    base = SIMULATE + (RAW_IF if mode == "raw-if" else ["--mode", "gamma"])
    ints = ("--steps", "--seed", "--samples", "--bounces")
    argv = ["simulate", "--out", str(tmp_path / "sim.txt")]
    vectors = [(flag, value, argv + fuzzed) for flag, value, fuzzed in flag_vectors(base, ints)
               if mode == "raw-if" or flag not in ("--samples", "--bounces")]
    check(vectors, tmp_path, chain=True)


def test_estimate_flags(tmp_path):
    sweep = str(tmp_path / "sweep.txt")
    assert run(["simulate", "--out", sweep, *SIMULATE]) == (0, [])
    base = ["--a-max", "100", "--b-max", "50", "--start", "2.6,0.1,0"]
    argv = ["estimate", "--input", sweep, "--report-out", str(tmp_path / "rep.txt")]
    check([(flag, value, argv + fuzzed) for flag, value, fuzzed in flag_vectors(base)],
          tmp_path)


def test_report_flags(tmp_path):
    argv = ["report", "--outdir", str(tmp_path / "report")]
    check([(flag, value, argv + fuzzed)
           for flag, value, fuzzed in flag_vectors(REPORT, ("--steps", "--trials", "--seed"))],
          tmp_path)


@pytest.mark.parametrize("wave", [["--carrier-hz", "79e9"], ["--wavelength-m", "0.0038"]])
def test_check_farfield_flags(wave, tmp_path):
    base = ["--aperture-m", "0.015", *wave, "--standoff-m", "0.25"]
    check([(flag, value, ["check-farfield", *fuzzed])
           for flag, value, fuzzed in flag_vectors(base)], tmp_path)
