"""The four benchmark workloads: seeded inputs, one operation, output checks.

Every input is derived from the benchmark seed through
``SeedSequence((seed, stream, index))``; permslab only ever receives the
generated inputs. An operation is ``execute(inputs(stream, i))``, the
timed part; ``verify`` checks its outputs afterwards, untimed, and
returns one line per failed unit (a unit is one fitted trial on
mc-paper and the whole operation elsewhere). ``checks`` runs the
zero-noise, truth-anchored check operations after the measurement.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

TRUTHS = ((2.0, 0.1), (3.0, 0.15), (7.0, 0.3))  # the paper's Fig. 5 materials
CARRIER_HZ = 79e9
STEP_M = 1e-4
AMP_SIGMA = 5e-4  # the paper's measured noise, as in permslab's NoiseModel()
PHASE_SIGMA_DEG = 0.8
DRIFT = 1.22e-2
EPS_TOL = 1e-6  # zero-noise recovery anchored at the truth

TIMED, WARMUP, TRACED, CHECK = range(4)  # seed streams


def bits_equal(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.ascontiguousarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def eps_error(a, b, truth) -> float:
    return abs(complex(a - truth[0], b - truth[1]))


def fits_as_well_as_truth(residual_norm, truth_residual_norm) -> bool:
    """A fit must explain the data at least as well as the generating point."""
    return residual_norm <= truth_residual_norm * (1.0 + 1e-9) + 1e-9


class Workload:
    """Base: seeding, CLI invocation and the shared bookkeeping."""

    name = ""
    group = 1  # operations per latency sample
    setup_repeats = 21  # setup_s is their median; fewer where a repeat is slow
    trace_batch = 0  # operations in a traced run; fixed so counts repeat exactly

    def __init__(self, pl, seed: int, workdir):
        self.pl = pl
        self.seed = seed
        self.workdir = workdir
        self.sizes: dict = {}

    @property
    def units(self) -> int:
        return 1

    def rng(self, stream: int, i: int):
        return np.random.default_rng(np.random.SeedSequence((self.seed, stream, i)))

    def truth(self, i: int) -> tuple[float, float]:
        return TRUTHS[(self.seed + i) % len(TRUTHS)]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{self.name}-{name}")

    def noise_model(self, noise_seed: int, noisy: bool):
        if not noisy:
            return self.pl.NoiseModel.quiet(noise_seed)
        return self.pl.NoiseModel(AMP_SIGMA, math.radians(PHASE_SIGMA_DEG), DRIFT, noise_seed)

    @staticmethod
    def noise_flags(noise_seed: int, noisy: bool) -> list[str]:
        flags = ["--seed", str(noise_seed)]
        if noisy:
            flags += ["--amp-sigma", repr(AMP_SIGMA), "--phase-sigma-deg",
                      repr(PHASE_SIGMA_DEG), "--drift", repr(DRIFT)]
        return flags

    def run_cli(self, *argvs) -> list[tuple[str, int, str]]:
        """``cli.main`` on each argv in turn, stopping at the first non-zero exit."""
        results = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.pl.cli.main([str(a) for a in argv])
            results.append((argv[0], code, err.getvalue().strip()))
            if code != 0:
                break
        return results

    @staticmethod
    def exit_problems(results, expected: int) -> list[str]:
        why = [f"{cmd} exited {code}: {err}" for cmd, code, err in results if code != 0]
        if not why and len(results) != expected:
            why.append(f"ran {len(results)} of {expected} commands")
        return why

    def report_problems(self, report_path, truth_c, truth) -> list[str]:
        """Parse the report and check it against the truth's own residual."""
        pl = self.pl
        rep = pl.ReportFile.read(report_path)
        why = []
        if not rep.converged:
            why.append("fit not converged")
        c1 = pl.step_phase_advance(rep.carrier_hz, rep.step_m)
        model = pl.model_gamma(truth[0], truth[1], truth_c, np.arange(rep.step_count), c1)
        truth_res = float(np.linalg.norm(rep.measured - model))
        if not fits_as_well_as_truth(rep.residual_norm, truth_res):
            why.append(f"residual {rep.residual_norm:.3e} above the truth's {truth_res:.3e}")
        return why


class McPaper(Workload):
    """``run_sweep`` over the Fig. 5 truths, alternating truth and auto starts."""

    name = "mc-paper"
    group = 2  # one truth-start call plus one auto-start call
    setup_repeats = 9
    trace_batch = 16
    TRIALS = 4  # per truth and call
    M = 40

    @property
    def units(self) -> int:
        return self.TRIALS * len(TRUTHS)

    def setup(self):
        self.truths = [self.pl.ComplexPermittivity(a, b) for a, b in TRUTHS]
        self.sizes = {"M": self.M, "trials_per_truth_per_call": self.TRIALS,
                      "truths": len(TRUTHS)}

    def inputs(self, stream, i):
        rng = self.rng(stream, i)
        return {"noise_seed": int(rng.integers(2**32)), "policy": ("truth", "auto")[i % 2]}

    def execute(self, inp, noisy=True):
        pl = self.pl
        return pl.run_sweep(
            self.truths, self.noise_model(inp["noise_seed"], noisy), self.TRIALS,
            m_count=self.M, step=STEP_M, carrier=CARRIER_HZ, start_policy=inp["policy"],
        )

    def verify(self, inp, report) -> list[str]:
        pl = self.pl
        noise = report.noise
        failed = []
        for r in report.records:
            if r.error is not None:
                failed.append(f"trial {r.seed}: {r.error}")
                continue
            if not r.converged:
                failed.append(f"trial {r.seed}: not converged")
                continue
            trial_noise = pl.NoiseModel(noise.amplitude_rel_sigma, noise.phase_sigma,
                                        noise.amplitude_drift_rel, r.seed)
            data = pl.generate_dataset(r.truth, r.phase_offset, self.M, STEP_M, CARRIER_HZ,
                                       trial_noise)
            at_truth = (r.truth.real_part, r.truth.imag_part, r.phase_offset)
            truth_res = float(np.linalg.norm(pl.residuals(at_truth, data)))
            if not fits_as_well_as_truth(r.residual_norm, truth_res):
                failed.append(f"trial {r.seed}: residual {r.residual_norm:.3e} "
                              f"above the truth's {truth_res:.3e}")
        if len(report.records) != self.units:
            failed.append(f"{len(report.records)} records, expected {self.units}")
        return failed[: self.units]

    def checks(self, tally) -> list[float]:
        errors = []
        # zero noise, truth-anchored: every trial recovers its truth
        inp = {"noise_seed": int(self.rng(CHECK, 0).integers(2**32)), "policy": "truth"}
        report = self.execute(inp, noisy=False)
        failed = self.verify(inp, report)
        for r in report.records:
            if r.error is None:
                err = eps_error(r.fitted_a, r.fitted_b, (r.truth.real_part, r.truth.imag_part))
                errors.append(err)
                if not err <= EPS_TOL:
                    failed.append(f"zero-noise trial {r.seed}: eps error {err:.3e}")
        tally.add(self.units, failed[: self.units])
        # a repeated seed gives a bit-identical serialized report, for both policies
        for i in (1, 2):
            inp = self.inputs(CHECK, i)
            first = json.dumps(self.execute(inp).to_dict(), sort_keys=True)
            second = json.dumps(self.execute(inp).to_dict(), sort_keys=True)
            same = first == second
            tally.add(1, [] if same else [f"{inp['policy']} report differs for a repeated seed"])
        return errors


class GammaSmall(Workload):
    """CLI ``simulate`` (gamma mode, M=40) then ``estimate --start <truth>``."""

    name = "gamma-small"
    trace_batch = 300
    M = 40

    def setup(self):
        self.sizes = {"M": self.M}

    def inputs(self, stream, i):
        rng = self.rng(stream, i)
        return {"truth": self.truth(i), "offset": float(rng.uniform(-math.pi, math.pi)),
                "noise_seed": int(rng.integers(2**32)), "noisy": stream != CHECK}

    def execute(self, inp):
        a, b = inp["truth"]
        c = inp["offset"]
        return self.run_cli(
            ["simulate", "--eps-real", repr(a), "--eps-imag", repr(b),
             f"--phase-offset={c!r}", "--steps", self.M, "--step-m", repr(STEP_M),
             "--carrier-hz", repr(CARRIER_HZ), "--out", self.path("sweep.txt"),
             *self.noise_flags(inp["noise_seed"], inp["noisy"])],
            ["estimate", "--input", self.path("sweep.txt"), f"--start={a!r},{b!r},{c!r}",
             "--report-out", self.path("report.txt")],
        )

    def verify(self, inp, results) -> list[str]:
        why = self.exit_problems(results, 2)
        if not why:
            pl = self.pl
            written = pl.generate_dataset(
                pl.ComplexPermittivity(*inp["truth"]), inp["offset"], self.M, STEP_M,
                CARRIER_HZ, self.noise_model(inp["noise_seed"], inp["noisy"]))
            if not bits_equal(pl.DatasetFile.read(self.path("sweep.txt")).gammas,
                              written.gammas):
                why.append("gamma file does not read back bit-exact")
            why += self.report_problems(self.path("report.txt"), inp["offset"], inp["truth"])
            self.sizes["gamma_file_bytes"] = os.path.getsize(self.path("sweep.txt"))
            self.sizes["report_file_bytes"] = os.path.getsize(self.path("report.txt"))
        return ["; ".join(why)] if why else []

    def checks(self, tally) -> list[float]:
        errors = []
        for i in range(len(TRUTHS)):
            inp = self.inputs(CHECK, i)
            failed = self.verify(inp, self.execute(inp))
            if not failed:
                rep = self.pl.ReportFile.read(self.path("report.txt"))
                err = eps_error(rep.eps_real, rep.eps_imag, inp["truth"])
                errors.append(err)
                if not err <= EPS_TOL:
                    failed = [f"zero-noise eps error {err:.3e}"]
            tally.add(1, failed)
        return errors


class RawIfLarge(Workload):
    """CLI ``simulate --mode raw-if`` (M=200, N=1024), ``extract``, ``estimate``."""

    name = "rawif-large"
    setup_repeats = 5
    trace_batch = 4
    M = 200
    N = 1024
    SAMPLE_INTERVAL_S = 2e-6
    BANDWIDTH_HZ = 1e4  # narrow on purpose: see permslab.benchmark_chirp
    STANDOFF_M = 0.25
    THICKNESS_M = 0.02
    APERTURE_M = 0.015

    def setup(self):
        self.sizes = {"M": self.M, "N": self.N}

    def inputs(self, stream, i):
        rng = self.rng(stream, i)
        return {"truth": self.truth(i), "noise_seed": int(rng.integers(2**32)),
                "check": stream == CHECK}

    def execute(self, inp):
        a, b = inp["truth"]
        # check operations anchor the fit at the truth; the raw-IF route
        # puts the sweep's phase offset at exactly 0
        start = [f"--start={a!r},{b!r},0.0"] if inp["check"] else []
        return self.run_cli(
            ["simulate", "--mode", "raw-if", "--eps-real", repr(a), "--eps-imag", repr(b),
             "--steps", self.M, "--step-m", repr(STEP_M), "--carrier-hz", repr(CARRIER_HZ),
             "--samples", self.N, "--sample-interval-s", repr(self.SAMPLE_INTERVAL_S),
             "--chirp-duration-s", repr(self.N * self.SAMPLE_INTERVAL_S),
             "--bandwidth-hz", repr(self.BANDWIDTH_HZ), "--standoff-m", repr(self.STANDOFF_M),
             "--thickness-m", repr(self.THICKNESS_M), "--aperture-m", repr(self.APERTURE_M),
             "--out", self.path("traces.txt"),
             *self.noise_flags(inp["noise_seed"], not inp["check"])],
            ["extract", "--input", self.path("traces.txt"), "--out", self.path("sweep.txt")],
            ["estimate", "--input", self.path("sweep.txt"), *start,
             "--report-out", self.path("report.txt")],
        )

    def written_traces(self, inp):
        """The traces ``simulate`` writes, rebuilt through the library."""
        pl = self.pl
        chirp = pl.ChirpConfig(CARRIER_HZ, self.BANDWIDTH_HZ, self.N * self.SAMPLE_INTERVAL_S,
                               self.N, self.SAMPLE_INTERVAL_S)
        geom = pl.SlabGeometry(self.THICKNESS_M, self.STANDOFF_M, pl.METAL)
        return pl.generate_if_datasets(
            pl.ComplexPermittivity(*inp["truth"]), geom, chirp, self.M, STEP_M,
            self.noise_model(inp["noise_seed"], not inp["check"]),
            antenna_aperture=self.APERTURE_M)

    def verify(self, inp, results) -> list[str]:
        why = self.exit_problems(results, 3)
        if not why:
            why += self.report_problems(self.path("report.txt"), 0.0, inp["truth"])
            for key, name in (("raw_file_bytes", "traces.txt"), ("gamma_file_bytes", "sweep.txt"),
                              ("report_file_bytes", "report.txt")):
                self.sizes[key] = os.path.getsize(self.path(name))
        if not why and inp["check"]:
            pl = self.pl
            mut, metal = self.written_traces(inp)
            raw = pl.DatasetFile.read(self.path("traces.txt"))
            if not (bits_equal(raw.mut_samples, mut.samples) and bits_equal(
                    raw.metal_samples, np.vstack([t.samples for t in metal]))):
                why.append("raw-if file does not read back bit-exact")
            sweep = pl.extract_sweep(mut, metal, STEP_M, CARRIER_HZ)
            if not bits_equal(pl.DatasetFile.read(self.path("sweep.txt")).gammas, sweep.gammas):
                why.append("extracted gamma file does not read back bit-exact")
        return ["; ".join(why)] if why else []

    def checks(self, tally) -> list[float]:
        # one truth per run (M=200, N=1024 costs about a second); the seed rotates it
        inp = self.inputs(CHECK, 0)
        failed = self.verify(inp, self.execute(inp))
        errors = []
        if not failed:
            rep = self.pl.ReportFile.read(self.path("report.txt"))
            err = eps_error(rep.eps_real, rep.eps_imag, inp["truth"])
            errors.append(err)
            if not err <= EPS_TOL:
                failed = [f"zero-noise eps error {err:.3e}"]
        tally.add(1, failed)
        return errors


class IdealFit(Workload):
    """``fit_ideal`` (auto starts, finite-difference Jacobian) on thin backed slabs."""

    name = "ideal-fit"
    trace_batch = 50
    M = 40
    STANDOFF_M = 0.25
    THICKNESS_M = (1e-3, 5e-3)  # thin: the internal bounces stay strong

    def setup(self):
        self.sizes = {"M": self.M, "thickness_m": list(self.THICKNESS_M)}

    def inputs(self, stream, i):
        pl = self.pl
        rng = self.rng(stream, i)
        truth = self.truth(i)
        geom = pl.SlabGeometry(float(rng.uniform(*self.THICKNESS_M)), self.STANDOFF_M, pl.METAL)
        m = np.arange(self.M)
        k1 = 2.0 * math.pi * CARRIER_HZ / pl.SPEED_OF_LIGHT
        face = pl.effective_reflection(pl.ComplexPermittivity(*truth), geom, CARRIER_HZ)
        clean = face * np.exp(2j * k1 * (self.STANDOFF_M + m * STEP_M))
        check = stream == CHECK
        gammas = clean
        if not check:
            amp = 1.0 + DRIFT * m / (self.M - 1) + AMP_SIGMA * rng.standard_normal(self.M)
            phase = math.radians(PHASE_SIGMA_DEG) * rng.standard_normal(self.M)
            gammas = clean * amp * np.exp(1j * phase)
        return {"truth": truth, "geom": geom, "gammas": gammas, "clean": clean, "check": check}

    def execute(self, inp):
        starts = [inp["truth"]] if inp["check"] else "auto"
        return self.pl.fit_ideal(inp["gammas"], inp["geom"], STEP_M, CARRIER_HZ, starts=starts)

    def verify(self, inp, fit) -> list[str]:
        why = []
        if not fit.converged:
            why.append("fit not converged")
        truth_res = float(np.linalg.norm(inp["gammas"] - inp["clean"]))
        if not fits_as_well_as_truth(fit.residual_norm, truth_res):
            why.append(f"residual {fit.residual_norm:.3e} above the truth's {truth_res:.3e}")
        return ["; ".join(why)] if why else []

    def checks(self, tally) -> list[float]:
        errors = []
        for i in range(len(TRUTHS)):
            inp = self.inputs(CHECK, i)
            fit = self.execute(inp)
            failed = self.verify(inp, fit)
            err = eps_error(fit.permittivity.real_part, fit.permittivity.imag_part, inp["truth"])
            errors.append(err)
            if not err <= EPS_TOL:
                failed.append(f"zero-noise eps error {err:.3e}")
            tally.add(1, failed[:1])
        return errors


WORKLOADS = {cls.name: cls for cls in (McPaper, RawIfLarge, GammaSmall, IdealFit)}
