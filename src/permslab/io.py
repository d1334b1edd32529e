"""Self-describing text files for sweeps, raw traces, and fit reports.

One envelope serves both dataset modes: a comment banner, `key: value`
metadata lines, a `columns:` line naming the record fields, then
whitespace-separated numeric records. Floats are written with 17
significant digits so a write/read round trip is bit-exact. Units are
SI and part of the key names (``_hz``, ``_m``, ``_s``, ``_rad``).

gamma mode records:   m  re_gamma  im_gamma
raw-if mode records:  trace_id  sample_index  re  im
                      (trace ids: ``mut`` and ``metal-<m>``)

The ``direction`` key records which way the reference moved during the
sweep: ``backward`` (away from the radar, the default) means the
calibrated phase falls by the per-step advance; ``forward`` means it
rises, and loading flips the progression so the estimator always sees
the falling convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetFormatError
from .estimator import FitResult, SdiDataset, model_gamma, step_phase_advance
from .fmcw import ChirpConfig

FORMAT_BANNER = "# permslab dataset v1"
REPORT_BANNER = "# permslab report v1"

GAMMA_COLUMNS = "m re_gamma im_gamma"
RAW_COLUMNS = "trace_id sample_index re im"
REPORT_COLUMNS = "m x_mm re_measured im_measured re_fitted im_fitted"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class DatasetFile:
    """In-memory form of a dataset file, either sweep or raw-trace mode.

    gamma mode fills ``gammas``; raw-if mode fills ``chirp``,
    ``mut_samples`` and ``metal_samples`` (one row per metal position).
    """

    mode: str
    carrier_hz: float
    step_m: float
    step_count: int
    direction: str = "backward"
    provenance: str = ""
    gammas: np.ndarray | None = None
    chirp: ChirpConfig | None = None
    mut_samples: np.ndarray | None = None
    metal_samples: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("gamma", "raw-if"):
            raise DatasetFormatError(f"unknown mode {self.mode!r}")
        if self.direction not in ("backward", "forward"):
            raise DatasetFormatError(f"unknown direction {self.direction!r}")
        if self.mode == "gamma":
            if self.gammas is None:
                raise DatasetFormatError("gamma mode requires gamma records")
            self.gammas = np.asarray(self.gammas, dtype=complex)
            if self.gammas.size != self.step_count:
                raise DatasetFormatError(
                    f"record count {self.gammas.size} != step_count {self.step_count}"
                )
        else:
            if self.chirp is None or self.mut_samples is None or self.metal_samples is None:
                raise DatasetFormatError("raw-if mode requires chirp and trace records")
            self.mut_samples = np.asarray(self.mut_samples, dtype=complex)
            self.metal_samples = np.asarray(self.metal_samples, dtype=complex)
            n = self.chirp.sample_count
            if self.mut_samples.shape != (n,):
                raise DatasetFormatError("mut trace length != sample_count")
            if self.metal_samples.shape != (self.step_count, n):
                raise DatasetFormatError(
                    f"expected {self.step_count} metal traces of {n} samples, "
                    f"got shape {self.metal_samples.shape}"
                )

    def to_sweep(self) -> SdiDataset:
        """Gamma records as an estimator-ready sweep.

        A ``forward`` direction flag is normalized by rotating sample m
        by e^{-2j C1 m}, which maps a rising phase progression onto the
        falling convention the fit model uses.
        """
        if self.mode != "gamma":
            raise DatasetFormatError("raw-if file: run extraction first")
        gammas = self.gammas
        if self.direction == "forward":
            c1 = step_phase_advance(self.carrier_hz, self.step_m)
            gammas = gammas * np.exp(-2j * c1 * np.arange(self.step_count))
        return SdiDataset(gammas, self.step_m, self.carrier_hz)

    def write(self, path) -> None:
        lines = [FORMAT_BANNER]
        lines.append(f"mode: {self.mode}")
        lines.append(f"carrier_hz: {_fmt(self.carrier_hz)}")
        lines.append(f"step_m: {_fmt(self.step_m)}")
        lines.append(f"step_count: {self.step_count}")
        lines.append(f"direction: {self.direction}")
        if self.provenance:
            lines.append(f"provenance: {self.provenance}")
        if self.mode == "raw-if":
            c = self.chirp
            lines.append(f"bandwidth_hz: {_fmt(c.bandwidth)}")
            lines.append(f"chirp_duration_s: {_fmt(c.chirp_duration)}")
            lines.append(f"sample_count: {c.sample_count}")
            lines.append(f"sample_interval_s: {_fmt(c.sample_interval)}")
            lines.append(f"amplitude: {_fmt(c.amplitude)}")
            lines.append(f"path_loss_re: {_fmt(c.path_loss.real)}")
            lines.append(f"path_loss_im: {_fmt(c.path_loss.imag)}")
            lines.append(f"columns: {RAW_COLUMNS}")
            for n, v in enumerate(self.mut_samples):
                lines.append(f"mut {n} {_fmt(v.real)} {_fmt(v.imag)}")
            for m in range(self.step_count):
                for n, v in enumerate(self.metal_samples[m]):
                    lines.append(f"metal-{m} {n} {_fmt(v.real)} {_fmt(v.imag)}")
        else:
            lines.append(f"columns: {GAMMA_COLUMNS}")
            for m, v in enumerate(self.gammas):
                lines.append(f"{m} {_fmt(v.real)} {_fmt(v.imag)}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path) -> "DatasetFile":
        meta, records = _split_header(_read_lines(path))
        if "mode" not in meta:
            raise DatasetFormatError("missing metadata key 'mode'")
        mode = meta["mode"]
        step_count = _parse(meta, "step_count", int)
        common = dict(
            mode=mode,
            carrier_hz=_parse(meta, "carrier_hz"),
            step_m=_parse(meta, "step_m"),
            step_count=step_count,
            direction=meta.get("direction", "backward"),
            provenance=meta.get("provenance", ""),
        )
        if mode == "gamma":
            gammas = _parse_gamma_records(records, step_count)
            return cls(gammas=gammas, **common)
        if mode == "raw-if":
            chirp = ChirpConfig(
                start_frequency=_parse(meta, "carrier_hz"),
                bandwidth=_parse(meta, "bandwidth_hz"),
                chirp_duration=_parse(meta, "chirp_duration_s"),
                sample_count=_parse(meta, "sample_count", int),
                sample_interval=_parse(meta, "sample_interval_s"),
                amplitude=_parse(meta, "amplitude"),
                path_loss=complex(
                    float(meta.get("path_loss_re", 1.0)),
                    float(meta.get("path_loss_im", 0.0)),
                ),
            )
            mut, metal = _parse_raw_records(records, step_count, chirp.sample_count)
            return cls(chirp=chirp, mut_samples=mut, metal_samples=metal, **common)
        raise DatasetFormatError(f"unknown mode {mode!r}")


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc


def _split_header(raw_lines):
    meta = {}
    records = []
    in_records = False
    for line in raw_lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if in_records:
            records.append(stripped)
            continue
        if ":" not in stripped:
            raise DatasetFormatError(f"metadata line without colon: {stripped!r}")
        key, value = stripped.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key == "columns":
            in_records = True
            meta[key] = value
        else:
            meta[key] = value
    if "columns" not in meta:
        raise DatasetFormatError("missing columns line")
    return meta, records


def _parse(meta, key, kind=float):
    if key not in meta:
        raise DatasetFormatError(f"missing metadata key {key!r}")
    try:
        return kind(meta[key])
    except ValueError as exc:
        raise DatasetFormatError(f"bad {kind.__name__} for {key!r}: {meta[key]!r}") from exc


def _parse_gamma_records(records, step_count) -> np.ndarray:
    if len(records) != step_count:
        raise DatasetFormatError(
            f"record count {len(records)} != step_count {step_count}"
        )
    gammas = np.empty(step_count, dtype=complex)
    for expected, line in enumerate(records):
        parts = line.split()
        if len(parts) != 3:
            raise DatasetFormatError(f"bad gamma record: {line!r}")
        try:
            m = int(parts[0])
            gammas[expected] = complex(float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise DatasetFormatError(f"bad gamma record: {line!r}") from exc
        if m != expected:
            raise DatasetFormatError(f"record index {m} out of order")
    if not np.all(np.isfinite(gammas)):
        raise DatasetFormatError("non-finite gamma record")
    return gammas


def _parse_raw_records(records, step_count, sample_count):
    mut = np.full(sample_count, np.nan, dtype=complex)
    metal = np.full((step_count, sample_count), np.nan, dtype=complex)
    for line in records:
        parts = line.split()
        if len(parts) != 4:
            raise DatasetFormatError(f"bad trace record: {line!r}")
        trace_id = parts[0]
        try:
            n = int(parts[1])
            value = complex(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise DatasetFormatError(f"bad trace record: {line!r}") from exc
        if not 0 <= n < sample_count:
            raise DatasetFormatError(f"sample index {n} out of range")
        if trace_id == "mut":
            mut[n] = value
        elif trace_id.startswith("metal-"):
            try:
                m = int(trace_id[6:])
            except ValueError as exc:
                raise DatasetFormatError(f"bad trace id {trace_id!r}") from exc
            if not 0 <= m < step_count:
                raise DatasetFormatError(f"metal index {m} out of range")
            metal[m, n] = value
        else:
            raise DatasetFormatError(f"bad trace id {trace_id!r}")
    if not (np.all(np.isfinite(mut)) and np.all(np.isfinite(metal))):
        raise DatasetFormatError("incomplete or non-finite trace records")
    return mut, metal


@dataclass
class ReportFile:
    """Fit summary plus measured-vs-fitted curve samples for plotting."""

    eps_real: float
    eps_imag: float
    phase_offset_rad: float
    residual_norm: float
    iterations: int
    converged: bool
    carrier_hz: float
    step_m: float
    step_count: int
    measured: np.ndarray = field(repr=False)
    fitted: np.ndarray = field(repr=False)

    @classmethod
    def from_fit(cls, fit: FitResult, data: SdiDataset) -> "ReportFile":
        m = np.arange(data.step_count)
        fitted = model_gamma(
            fit.permittivity.real_part,
            fit.permittivity.imag_part,
            fit.phase_offset,
            m,
            data.step_phase,
        )
        return cls(
            eps_real=fit.permittivity.real_part,
            eps_imag=fit.permittivity.imag_part,
            phase_offset_rad=fit.phase_offset,
            residual_norm=fit.residual_norm,
            iterations=fit.iterations,
            converged=fit.converged,
            carrier_hz=data.carrier,
            step_m=data.step,
            step_count=data.step_count,
            measured=np.asarray(data.gammas, dtype=complex),
            fitted=fitted,
        )

    def write(self, path) -> None:
        lines = [REPORT_BANNER]
        lines.append(f"eps_real: {_fmt(self.eps_real)}")
        lines.append(f"eps_imag: {_fmt(self.eps_imag)}")
        lines.append(f"phase_offset_rad: {_fmt(self.phase_offset_rad)}")
        lines.append(f"residual_norm: {_fmt(self.residual_norm)}")
        lines.append(f"iterations: {self.iterations}")
        lines.append(f"converged: {'true' if self.converged else 'false'}")
        lines.append(f"carrier_hz: {_fmt(self.carrier_hz)}")
        lines.append(f"step_m: {_fmt(self.step_m)}")
        lines.append(f"step_count: {self.step_count}")
        lines.append(f"columns: {REPORT_COLUMNS}")
        for m in range(self.step_count):
            x_mm = m * self.step_m * 1e3
            lines.append(
                f"{m} {_fmt(x_mm)} "
                f"{_fmt(self.measured[m].real)} {_fmt(self.measured[m].imag)} "
                f"{_fmt(self.fitted[m].real)} {_fmt(self.fitted[m].imag)}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path) -> "ReportFile":
        meta, records = _split_header(_read_lines(path))
        step_count = _parse(meta, "step_count", int)
        if len(records) != step_count:
            raise DatasetFormatError("report record count mismatch")
        measured = np.empty(step_count, dtype=complex)
        fitted = np.empty(step_count, dtype=complex)
        for i, line in enumerate(records):
            parts = line.split()
            if len(parts) != 6:
                raise DatasetFormatError(f"bad report record: {line!r}")
            try:
                measured[i] = complex(float(parts[2]), float(parts[3]))
                fitted[i] = complex(float(parts[4]), float(parts[5]))
            except ValueError as exc:
                raise DatasetFormatError(f"bad report record: {line!r}") from exc
        return cls(
            eps_real=_parse(meta, "eps_real"),
            eps_imag=_parse(meta, "eps_imag"),
            phase_offset_rad=_parse(meta, "phase_offset_rad"),
            residual_norm=_parse(meta, "residual_norm"),
            iterations=_parse(meta, "iterations", int),
            converged=meta.get("converged") == "true",
            carrier_hz=_parse(meta, "carrier_hz"),
            step_m=_parse(meta, "step_m"),
            step_count=step_count,
            measured=measured,
            fitted=fitted,
        )
