"""Self-describing text files for sweeps, raw traces, and fit reports.

One envelope serves both dataset modes and the report: a comment
banner, `key: value` metadata lines, a `columns:` line naming the record
fields, then whitespace-separated records, one per line. Floats are
written with 17 significant digits so a write/read round trip is
bit-exact. Units are SI and part of the key names (``_hz``, ``_m``,
``_s``, ``_rad``).

gamma mode records:   m  re_gamma  im_gamma  (in order of m)
raw-if mode records:  trace_id  sample_index  re  im  (any order, each
                      sample once; trace ids ``mut`` and ``metal-<m>``,
                      at most 15 characters)

Blank lines and ``#`` comments may appear anywhere, also after the
fields of a record line. A malformed, incomplete or non-finite record
ends in ``DatasetFormatError``.

The ``direction`` key records which way the reference moved during the
sweep: ``backward`` (away from the radar, the default) means the
calibrated phase falls by the per-step advance; ``forward`` means it
rises, and loading flips the progression so the estimator always sees
the falling convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetFormatError
from .estimator import FitResult, SdiDataset, check_step, model_gamma, step_phase_advance
from .fmcw import ChirpConfig

FORMAT_BANNER = "# permslab dataset v1"
REPORT_BANNER = "# permslab report v1"

GAMMA_COLUMNS = "m re_gamma im_gamma"
RAW_COLUMNS = "trace_id sample_index re im"
REPORT_COLUMNS = "m x_mm re_measured im_measured re_fitted im_fitted"

# record name and np.loadtxt layout per dataset mode, and of reports; each
# (re, im) pair is one field, viewed as complex bit for bit. A 16-byte trace
# id may have been cut short, so it is rejected.
_RECORDS = {
    "gamma": ("gamma", np.dtype([("m", "i8"), ("z", "f8", 2)])),
    "raw-if": ("trace", np.dtype([("trace_id", "S16"), ("n", "i8"), ("z", "f8", 2)])),
}
_REPORT_RECORDS = ("report", np.dtype([("m", "i8"), ("x_mm", "f8"), ("measured", "f8", 2),
                                       ("fitted", "f8", 2)]))

# (key, attribute, type) of the header lines each file kind writes in this
# order and requires on reading; the dataset's mode, direction and provenance
# and the chirp's path loss are written and read by hand
_COMMON_KEYS = (("carrier_hz", "carrier_hz", float), ("step_m", "step_m", float),
                ("step_count", "step_count", int))
_CHIRP_KEYS = (("bandwidth_hz", "bandwidth", float),
               ("chirp_duration_s", "chirp_duration", float),
               ("sample_count", "sample_count", int),
               ("sample_interval_s", "sample_interval", float),
               ("amplitude", "amplitude", float))
_REPORT_KEYS = (("eps_real", "eps_real", float), ("eps_imag", "eps_imag", float),
                ("phase_offset_rad", "phase_offset_rad", float),
                ("residual_norm", "residual_norm", float),
                ("converged", "converged", bool)) + _COMMON_KEYS
# header values: floats to 17 significant digits, bools as true/false
_FORMATS = {float: lambda x: format(x, ".17g"), int: str, bool: lambda x: "true" if x else "false"}
_BOOLS = {"true": True, "false": False}


@dataclass
class DatasetFile:
    """In-memory form of a dataset file, either sweep or raw-trace mode.

    gamma mode fills ``gammas``; raw-if mode fills ``chirp``,
    ``mut_samples`` and ``metal_samples`` (one row per metal position).
    A non-finite sample raises DatasetFormatError at construction, so
    ``write`` never writes a file that ``read`` refuses, and ``read``,
    which builds through the constructor, refuses a missing trace sample.
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
            if not np.isfinite(self.gammas).all():
                raise DatasetFormatError("non-finite gamma record")
        else:
            if self.chirp is None or self.mut_samples is None or self.metal_samples is None:
                raise DatasetFormatError("raw-if mode requires chirp and trace records")
            if self.step_count < 1:
                raise DatasetFormatError(f"raw-if step_count {self.step_count} < 1")
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
            if not (np.isfinite(self.mut_samples).all() and np.isfinite(self.metal_samples).all()):
                raise DatasetFormatError("incomplete or non-finite trace records")

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
            check_step(self.step_m, self.carrier_hz)  # a bad one makes the rotation non-finite
            c1 = step_phase_advance(self.carrier_hz, self.step_m)
            gammas = gammas * np.exp(-2j * c1 * np.arange(self.step_count))
        return SdiDataset(gammas, self.step_m, self.carrier_hz)

    def write(self, path) -> None:
        header = [FORMAT_BANNER, f"mode: {self.mode}", *_header(self, _COMMON_KEYS),
                  f"direction: {self.direction}"]
        if self.provenance:
            header.append(f"provenance: {self.provenance}")
        if self.mode == "gamma":
            header.append(f"columns: {GAMMA_COLUMNS}")
            blocks = [([f"{m} " for m in range(self.step_count)], _pairs(self.gammas))]
        else:
            c = self.chirp
            header += [
                *_header(c, _CHIRP_KEYS),
                f"path_loss_re: {c.path_loss.real:.17g}",
                f"path_loss_im: {c.path_loss.imag:.17g}",
                f"columns: {RAW_COLUMNS}",
            ]
            # one block per trace, formatted as it is written
            ids = ["mut "] + [f"metal-{m} " for m in range(self.step_count)]
            indexes = [f"{n} " for n in range(c.sample_count)]
            traces = zip(ids, [self.mut_samples, *self.metal_samples])
            blocks = (([i + n for n in indexes], _pairs(s)) for i, s in traces)
        write_records(path, header, blocks)

    @classmethod
    def read(cls, path) -> "DatasetFile":
        meta, records = _read_file(path)
        common = {"mode": meta["mode"], **_read_keys(meta, _COMMON_KEYS)}
        common.update((key, meta[key]) for key in ("direction", "provenance") if key in meta)
        if meta["mode"] == "gamma":
            return cls(gammas=_gammas(records, common["step_count"]), **common)
        chirp = ChirpConfig(
            **_read_keys(meta, _CHIRP_KEYS),
            start_frequency=common["carrier_hz"],
            path_loss=complex(_parse(meta, "path_loss_re", default=1.0),
                              _parse(meta, "path_loss_im", default=0.0)),
        )
        traces = _traces(records, common["step_count"], chirp.sample_count)
        return cls(chirp=chirp, mut_samples=traces[0], metal_samples=traces[1:], **common)


def write_records(path, header, blocks) -> None:
    """Write ``header`` lines, then each block of records.

    A block is ``(labels, values)``: record i is ``labels[i]`` followed
    by row i of the 2-D ``values``. One ``%`` operation formats a block;
    ``%.17g`` rounds as ``format(x, ".17g")`` does.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        for labels, values in blocks:
            fields = " ".join(["%.17g"] * values.shape[1]) + "\n"
            template = "".join([label + fields for label in labels])
            fh.write(template % tuple(values.ravel().tolist()))


def _pairs(z) -> np.ndarray:
    """Complex values as (re, im) rows."""
    z = np.asarray(z, dtype=complex)
    return np.column_stack((z.real, z.imag))


def _read_file(path, layout=None):
    """Metadata up to ``columns:``, then the records, streamed by one
    ``np.loadtxt`` call in ``layout`` (default: that of the file's mode)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta = _read_header(fh)
            if layout is None:
                mode = _parse(meta, "mode", str)
                if mode not in _RECORDS:
                    raise DatasetFormatError(f"unknown mode {mode!r}")
                layout = _RECORDS[mode]
            kind, dtype = layout
            try:
                with warnings.catch_warnings():
                    # no records is an empty sweep or a count error, found below
                    warnings.simplefilter("ignore", UserWarning)
                    records = np.loadtxt(fh, dtype=dtype, comments="#", ndmin=1)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                raise DatasetFormatError(f"bad {kind} record: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    return meta, records


def _read_header(fh) -> dict:
    meta = {}
    for line in iter(fh.readline, ""):
        key, colon, value = (part.strip() for part in line.partition(":"))
        if not (key or colon) or key.startswith("#"):
            continue  # blank or comment
        if not colon:
            raise DatasetFormatError(f"metadata line without colon: {key!r}")
        meta[key] = value
        if key == "columns":
            return meta
    raise DatasetFormatError("missing columns line")


def _header(obj, keys) -> list[str]:
    """A ``key: value`` line per table entry."""
    return [f"{key}: {_FORMATS[kind](getattr(obj, attr))}" for key, attr, kind in keys]


def _read_keys(meta, keys) -> dict:
    return {attr: _parse(meta, key, kind) for key, attr, kind in keys}


def _parse(meta, key, kind=float, default=None):
    if key not in meta:
        if default is not None:
            return default
        raise DatasetFormatError(f"missing metadata key {key!r}")
    text = meta[key]
    try:
        return _BOOLS[text] if kind is bool else kind(text)
    except (KeyError, ValueError) as exc:
        raise DatasetFormatError(f"bad {kind.__name__} for {key!r}: {text!r}") from exc


def _gammas(records, step_count) -> np.ndarray:
    if records.size != step_count:
        raise DatasetFormatError(f"record count {records.size} != step_count {step_count}")
    out_of_order = np.flatnonzero(records["m"] != np.arange(step_count))
    if out_of_order.size:
        raise DatasetFormatError(f"record index {records['m'][out_of_order[0]]} out of order")
    return np.ravel(records["z"].view(complex))


def _traces(records, step_count, sample_count) -> np.ndarray:
    """Raw-IF records as a (1 + step_count, sample_count) stack: mut, metal-0, ...

    A sample with no record is nan, which the DatasetFile constructor refuses.
    """
    if step_count < 1:
        raise DatasetFormatError(f"raw-if step_count {step_count} < 1")
    expected = (step_count + 1) * sample_count
    if records.size != expected:
        raise DatasetFormatError(f"trace record count {records.size} != {expected}")
    n = records["n"]
    out_of_range = (n < 0) | (n >= sample_count)
    if out_of_range.any():
        raise DatasetFormatError(f"sample index {n[out_of_range.argmax()]} out of range")
    # each run of equal ids is looked up once, each distinct id validated once
    ids = records["trace_id"]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    names, which = np.unique(ids[starts], return_inverse=True)
    rows = np.array([_trace_row(name, step_count) for name in names])
    row = np.repeat(rows[which], np.diff(np.r_[starts, ids.size]))
    traces = np.full((step_count + 1, sample_count), np.nan, dtype=complex)
    traces[row, n] = np.ravel(records["z"].view(complex))  # a missing sample stays nan
    return traces


def _trace_row(name: bytes, step_count) -> int:
    trace_id = name.decode("latin-1")
    if trace_id == "mut":
        return 0
    if not (trace_id.startswith("metal-") and trace_id[6:].isdecimal() and len(name) < 16):
        raise DatasetFormatError(f"bad trace id {trace_id!r}")
    m = int(trace_id[6:])
    if m >= step_count:
        raise DatasetFormatError(f"metal index {m} out of range")
    return m + 1


@dataclass
class ReportFile:
    """Fit summary plus measured-vs-fitted curve samples for plotting."""

    eps_real: float
    eps_imag: float
    phase_offset_rad: float
    residual_norm: float
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
            converged=fit.converged,
            carrier_hz=data.carrier,
            step_m=data.step,
            step_count=data.step_count,
            measured=np.asarray(data.gammas, dtype=complex),
            fitted=fitted,
        )

    def write(self, path) -> None:
        header = [REPORT_BANNER, *_header(self, _REPORT_KEYS), f"columns: {REPORT_COLUMNS}"]
        m = np.arange(self.step_count)
        values = np.column_stack((m * self.step_m * 1e3, _pairs(self.measured),
                                  _pairs(self.fitted)))
        write_records(path, header, [([f"{k} " for k in m.tolist()], values)])

    @classmethod
    def read(cls, path) -> "ReportFile":
        meta, records = _read_file(path, _REPORT_RECORDS)
        values = _read_keys(meta, _REPORT_KEYS)
        if records.size != values["step_count"]:
            raise DatasetFormatError("report record count mismatch")
        return cls(
            **values,
            measured=np.ravel(records["measured"].view(complex)),
            fitted=np.ravel(records["fitted"].view(complex)),
        )
