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
fields of a record line; a ``#`` after a header value is part of the
value. A malformed, incomplete or non-finite record, and a chirp header
value that ``ChirpConfig`` refuses, end in ``DatasetFormatError``.

Writing renders each value as ``"%.17g" % x`` does, byte for byte. A
block of ``_KERNEL_MIN_VALUES`` values or more is laid out as one array
of 64-bit words, a row per record: the label's words, gathered from
tables of words made once per file (two for each trace id, one for each
sample index), then four for each value from the numpy kernel of ``_g17``,
exact for finite 1e-4 < |x| < 10, the fixed-point range where
reflection coefficients and unit-amplitude IF samples lie, with ``%``
for the values outside it (zeros, values up to 1e-4, values of 10 and
more, non-finite ones). The
space or line end after a value is the top byte of its last word, and
one ``bytes.translate`` drops the 0 bytes that pad labels and values.
A smaller block, where numpy's cost per call does not pay back, is
formatted by one ``%`` operation. The raw-IF writer hands over the
traces in blocks of ``_BLOCK_RECORDS`` records.

Reading takes the file as bytes, in blocks of about ``_BLOCK_BYTES``
cut after their last line end, and parses each block of records at once.
A raw-IF block whose every line is ASCII ``id index re im`` with single
spaces (no ``#`` and no control byte but the line ends) goes to
``_raw_records``, which reads it when ``_g17.parse`` takes every value
by one of its two exact rules; it gathers each trace id as two 64-bit
words with the bytes after the id cleared, and ``_traces`` finds the
runs of records of one trace by comparing those words. The first block
it refuses, every later block of the file, and every gamma and report
block, is decoded and parsed by one ``np.loadtxt`` call over its lines,
split at ``\n``, ``\r\n`` and ``\r`` as text mode splits them. Both read
a record to the same bits, so a file reads the same whichever parses it. A
raw-IF reader scatters each block's records into the trace stack it
returns, so a read holds about its output plus one block and the
temporaries of its parse; a pipe, which has no size, is first read
whole into memory. A header that promises more records than its input
can hold is refused without allocating the stack or holding any
records. A file is refused as a check of all its records at
once would refuse it: a malformed record anywhere wins over a bad header
value and over the checks of the records, and its row is counted from
the file's first record.

The ``direction`` key records which way the reference moved during the
sweep: ``backward`` (away from the radar, the default) means the
calibrated phase falls by the per-step advance; ``forward`` means it
rises, and loading flips the progression so the estimator always sees
the falling convention.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from io import SEEK_END, BytesIO, StringIO
from itertools import chain

import numpy as np

from . import _g17
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
_RAW = np.dtype([("trace_id", "S16"), ("n", "i8"), ("z", "f8", 2)])
_RECORDS = {"gamma": ("gamma", np.dtype([("m", "i8"), ("z", "f8", 2)])), "raw-if": ("trace", _RAW)}
# raw-IF records with each trace id as its two words, to gather and compare
_RAW_ID_WORDS = np.dtype({"names": ["trace_id"], "formats": [(_g17.WORD, 2)],
                          "itemsize": _RAW.itemsize})
_REPORT_RECORDS = ("report", np.dtype([("m", "i8"), ("x_mm", "f8"), ("measured", "f8", 2),
                                       ("fitted", "f8", 2)]))
# bytes read at a time: besides what it builds, a raw-IF reader holds one
# block, a copy and the temporaries of its parse, about 2.5 MB at the peak.
# Reading an M=200, N=1024 file took about 60% longer in 64 KB blocks and
# 25% longer in 128 KB ones (numpy's cost per call); 512 KB blocks were
# about 5% faster, but raised the read's peak from 5.9 to 8.4 MB
_BLOCK_BYTES = 1 << 18
# a line with its line end, split as text mode splits lines
_LINE = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")
# a block of fewer values is written by one `%` operation: below this the
# numpy kernel's fixed cost per call outweighs what it saves per value
_KERNEL_MIN_VALUES = 256
# records per block of the raw-IF writer: at M=200 a block's words take
# 88 bytes a record (360 KB), its bytes as much again before the 0 bytes
# go, and the kernel's temporaries for its 8192 values about 1 MB, so
# writing an M=200, N=1024 file peaks at 1.8 MB (tracemalloc). Blocks of
# 2048 and 8192 records were slower, and 8192 doubled that peak
_BLOCK_RECORDS = 4096

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
    A non-finite sample, or a ``provenance`` that spans lines, raises
    DatasetFormatError at construction, so ``write`` never writes a file
    that ``read`` refuses, and ``read``, which builds through the
    constructor, refuses a missing trace sample. The provenance is read
    back without its surrounding whitespace.
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
        if self.provenance and ("\n" in self.provenance or "\r" in self.provenance):
            raise DatasetFormatError(f"provenance spans lines: {self.provenance!r}")
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
            blocks = [((_indexes(self.step_count),), _pairs(self.gammas))]
        else:
            c = self.chirp
            header += [
                *_header(c, _CHIRP_KEYS),
                f"path_loss_re: {c.path_loss.real:.17g}",
                f"path_loss_im: {c.path_loss.imag:.17g}",
                f"columns: {RAW_COLUMNS}",
            ]
            ids = _word_rows([b"mut "] + [b"metal-%d " % m for m in range(self.step_count)])
            blocks = _trace_blocks(ids, _indexes(c.sample_count),
                                   (self.mut_samples[None], self.metal_samples))
        write_records(path, header, blocks)

    @classmethod
    def read(cls, path) -> "DatasetFile":
        return _read_file(path, cls._from_records)

    @classmethod
    def _from_records(cls, meta, chunks, room) -> "DatasetFile":
        common = {"mode": meta["mode"], **_read_keys(meta, _COMMON_KEYS)}
        common.update((key, meta[key]) for key in ("direction", "provenance") if key in meta)
        if meta["mode"] == "gamma":
            return cls(gammas=_gammas(_joined(chunks), common["step_count"]), **common)
        try:
            chirp = ChirpConfig(
                **_read_keys(meta, _CHIRP_KEYS),
                start_frequency=common["carrier_hz"],
                path_loss=complex(_parse(meta, "path_loss_re", default=1.0),
                                  _parse(meta, "path_loss_im", default=0.0)),
            )
        except ValueError as exc:  # a header value that parses but ChirpConfig refuses
            raise DatasetFormatError(f"bad chirp header: {exc}") from exc
        traces = _traces(chunks, common["step_count"], chirp.sample_count, room)
        return cls(chirp=chirp, mut_samples=traces[0], metal_samples=traces[1:], **common)


def write_records(path, header, blocks) -> None:
    """Write ``header`` lines, then each block of records.

    A block is ``(labels, values)``: ``labels`` is a tuple, maybe empty,
    of 2-D arrays of words (``_g17.WORD``), and record i is row i of each
    of them side by side, without their 0 bytes, then row i of the
    2-D float ``values``, each value as ``"%.17g" % x`` writes it. A block
    of at least ``_KERNEL_MIN_VALUES`` values is laid out as one array of
    words, the labels' and then ``_g17.WORDS`` per value from
    ``_g17.format_into``, and written without its 0 bytes; a smaller one
    is formatted by one ``%`` operation.
    """
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for labels, values in blocks:
            fh.write(_record_bytes(labels, values))


def _record_bytes(labels, values) -> bytes:
    """The bytes of one block of records, see ``write_records``."""
    values = np.asarray(values, dtype=np.float64)
    n, k = values.shape
    if values.size < _KERNEL_MIN_VALUES:
        fields = b" ".join([b"%.17g"] * k) + b"\n"
        texts = [np.ascontiguousarray(part).view(f"S{8 * part.shape[1]}").ravel().tolist()
                 for part in labels]
        # the column of b"" gives each record its line where no label does
        template = b"".join([b"".join(label) + fields for label in zip(*texts, [b""] * n)])
        return template.replace(b"\0", b"") % tuple(values.ravel().tolist())
    width = sum(part.shape[1] for part in labels)
    rows = np.empty((n, width + k * _g17.WORDS), _g17.WORD)
    start = 0
    for part in labels:
        _g17.store(rows[:, start:start + part.shape[1]], part)
        start += part.shape[1]
    ends = np.full(k, ord(" "))
    ends[-1] = ord("\n")
    _g17.format_into(values, rows[:, width:].reshape(n, k, _g17.WORDS), ends)
    return rows.tobytes().translate(None, b"\0")


def _word_rows(texts) -> np.ndarray:
    """The bytes of each text as a row of words, padded with 0 bytes."""
    width = -(-max(map(len, texts), default=1) // 8)
    return np.array(texts, dtype=f"S{8 * width}").view(_g17.WORD).reshape(len(texts), width)


def _indexes(count) -> np.ndarray:
    """The labels ``0 ``, ``1 ``, ... of ``count`` records, as word rows."""
    return _word_rows([b"%d " % i for i in range(count)])


def _trace_blocks(ids, indexes, stacks):
    """Raw-IF blocks of at most ``_BLOCK_RECORDS`` records, trace by
    trace: ``stacks`` hold the traces as rows of samples, ``ids`` label
    each trace in turn and ``indexes`` each sample, both as word rows."""
    first = 0
    for stack in stacks:
        pairs = _pairs(stack)  # record r is sample r % N of the trace first + r // N
        for start in range(0, len(pairs), _BLOCK_RECORDS):
            record = np.arange(start, min(start + _BLOCK_RECORDS, len(pairs)))
            trace = record // len(indexes)  # numpy's divmod of integers is several times slower
            sample = record - trace * len(indexes)
            # np.take copies rows several times faster than fancy indexing
            labels = np.take(ids, first + trace, axis=0), np.take(indexes, sample, axis=0)
            yield labels, pairs[start:start + _BLOCK_RECORDS]
        first += len(stack)


def _pairs(z) -> np.ndarray:
    """Complex values as (re, im) rows: a view of ``z`` where it is contiguous."""
    return np.ascontiguousarray(z, dtype=complex).view(np.float64).reshape(-1, 2)


def _read_file(path, build, layout=None):
    """Metadata up to ``columns:``, then ``build(meta, chunks, room)``.

    ``chunks`` yields the records in ``layout`` (default: that of the
    file's mode), see ``_chunks``. ``room`` is the most raw-IF records
    the input can hold: a raw-IF record takes at least 8 bytes, four
    one-character fields, three separators and a newline, which the last
    record may lack. A seekable file is sized by its length; any other
    input, such as a pipe, is read whole into memory first. When
    ``build`` refuses the file, a bad record later in it wins, as when
    every record was parsed before any header value.
    """
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():
                fh = BytesIO(fh.read())
            room = (fh.seek(0, SEEK_END) + 1) // 8
            fh.seek(0)
            blocks = _blocks(fh)
            meta, rest = _read_header(blocks)
            if layout is None:
                mode = _parse(meta, "mode", str)
                if mode not in _RECORDS:
                    raise DatasetFormatError(f"unknown mode {mode!r}")
                layout = _RECORDS[mode]
            chunks = _chunks(chain((rest,), blocks), *layout)
            try:
                return build(meta, chunks, room)
            except (DatasetFormatError, ValueError):
                for _ in chunks:
                    pass
                raise
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc


def _blocks(fh):
    """The rest of the binary file ``fh`` in blocks of about
    ``_BLOCK_BYTES``, each cut after its last line end (``\\n``, or
    ``\\r`` not followed by ``\\n``), so that no line, and no ``\\r\\n``,
    spans two blocks; the last block holds what follows the last line end.
    """
    tail = b""
    while data := fh.read(_BLOCK_BYTES):
        data = tail + data
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        block, tail = data[:cut], data[cut:]
        del data
        if block:
            yield block
    if tail:
        yield tail


def _chunks(blocks, kind, dtype):
    """The records in ``blocks`` as arrays of ``dtype``, one per block.

    Raw-IF blocks are parsed by ``_raw_records`` up to the first block it
    refuses; that block and every later one, and every other kind of
    block, decoded, by one ``np.loadtxt`` call over its lines, split as
    text mode splits them. So a file whose values the parser's rules
    refuse costs one block's parse more than ``np.loadtxt`` alone. There
    is at least one array, so the arrays of a file without records
    concatenate to an empty one. A malformed record raises
    DatasetFormatError with numpy's message, its row counted from the
    first record of the file.
    """
    parsed, records, raw = 0, None, kind == "trace"
    for block in blocks:
        records = _raw_records(block, dtype) if raw else None
        if records is None:
            raw = False
            records = _loaded(block, kind, dtype, parsed)
        parsed += records.size
        yield records
    if records is None:  # nothing after the header
        yield np.empty(0, dtype)


def _loaded(block, kind, dtype, parsed):
    """The records of a block by ``np.loadtxt``, see ``_chunks``."""
    lines = StringIO(str(block, "utf-8"), newline=None).readlines()
    try:
        with warnings.catch_warnings():
            # a block of only comments and blank lines
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)
    except ValueError as exc:
        # numpy counts rows from the first record of the block
        message = re.sub(r"at row (\d+)", lambda row: f"at row {parsed + int(row[1])}",
                         str(exc), count=1)
        raise DatasetFormatError(f"bad {kind} record: {message}") from exc


def _raw_records(block, dtype):
    """The raw-IF records of a block, or None where ``np.loadtxt`` must
    parse it.

    Every line must be ASCII ``id index re im\\n``: single spaces, no
    other control byte and no ``#``, an id of up to 16 bytes, an index of
    up to 8 digits, and values that ``_g17.parse`` takes. ``np.loadtxt``
    reads such a line to the same record, bit for bit.
    """
    size = len(block)
    if not (block.endswith(b"\n") and block.isascii()) or b"#" in block:
        return None
    pad = _g17.WINDOW
    buf = np.zeros(pad + size + 16, np.uint8)  # room for words and ids at either end
    text = buf[pad:pad + size]
    text[:] = np.frombuffer(block, np.uint8)
    # the bytes up to " " are the 3 spaces and the line end of each line
    ends = np.flatnonzero(text <= 32).astype(np.int32)
    n = ends.size // 4
    separators = np.take(text, ends)
    if (ends.size != 4 * n or (separators[3::4] != ord("\n")).any()
            or np.count_nonzero(separators == ord(" ")) != 3 * n):
        return None
    ends += pad
    lengths = np.diff(ends, prepend=np.int32(pad - 1)).reshape(n, 4)
    lengths -= 1
    ends = ends.reshape(n, 4)
    if not ((lengths > 0).all() and (lengths[:, 0] <= 16).all() and (lengths[:, 1] <= 8).all()):
        return None
    words = np.ndarray((buf.size - 7,), _g17.WORD, buf, 0, (1,))
    index, digits = _g17.small_integers(words[ends[:, 1] - 8], lengths[:, 1])
    if not digits.all():
        return None
    values, rest = _g17.parse(buf, ends[:, 2:].ravel(), lengths[:, 2:].ravel())
    if rest.size:
        return None
    # each trace id as two words, the bytes after it cleared
    ids = np.ndarray((buf.size - 15,), "V16", buf, 0, (1,))[ends[:, 0] - lengths[:, 0]]
    ids = ids.view(_g17.WORD).reshape(n, 2)
    ids &= np.take(_g17.FIRST_BYTES, lengths[:, 0], axis=0)
    records = np.empty(n, dtype)
    records["trace_id"] = ids.view("S16")[:, 0]
    records["n"] = index
    records["z"] = values.reshape(n, 2)
    return records


def _joined(chunks) -> np.ndarray:
    """All the chunks' records in one array: the only chunk itself, as a
    file of up to ``_BLOCK_BYTES`` bytes has."""
    first, *rest = chunks
    return np.concatenate([first, *rest]) if rest else first


def _read_header(blocks):
    """The metadata up to ``columns:``, and the bytes of its block after
    that line."""
    meta = {}
    for block in blocks:
        for line in _LINE.finditer(block):
            key, colon, value = (part.strip() for part in str(line[0], "utf-8").partition(":"))
            if not (key or colon) or key.startswith("#"):
                continue  # blank or comment
            if not colon:
                raise DatasetFormatError(f"metadata line without colon: {key!r}")
            meta[key] = value
            if key == "columns":
                return meta, block[line.end():]
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


def _traces(chunks, step_count, sample_count, room) -> np.ndarray:
    """Raw-IF records as a (1 + step_count, sample_count) stack: mut, metal-0, ...

    Each chunk of records is checked and scattered into the stack as it
    comes, so the whole file's records are never held at once. A sample
    with no record is nan, which the DatasetFile constructor refuses.
    After the last chunk the first failing check raises, in the order a
    check of all records at once would take: the record count, the first
    sample index out of range, then the trace ids in sorted order.

    An input without ``room`` for the records its header promises cannot
    pass the count check, so its chunks are only counted and checked:
    a false header allocates no stack and holds no records.
    """
    if step_count < 1:
        raise DatasetFormatError(f"raw-if step_count {step_count} < 1")
    expected = (step_count + 1) * sample_count
    traces = (np.full((step_count + 1, sample_count), np.nan, dtype=complex)
              if expected <= room else None)
    count, bad_index, rows, bad_ids = 0, None, {}, {}
    for records in chunks:
        if not records.size:
            continue
        count += records.size
        n = records["n"]
        out_of_range = (n < 0) | (n >= sample_count)
        if bad_index is None and out_of_range.any():
            bad_index = n[out_of_range.argmax()]
        # each run of equal ids is looked up once, each distinct id validated once
        ids = records.view(_RAW_ID_WORDS)["trace_id"]
        starts = np.empty(records.size, bool)
        starts[0] = True
        np.not_equal(ids[1:, 0], ids[:-1, 0], out=starts[1:])
        starts[1:] |= ids[1:, 1] != ids[:-1, 1]
        starts = np.flatnonzero(starts)
        names, which = np.unique(records["trace_id"][starts], return_inverse=True)
        names = names.tolist()
        for name in names:
            if name not in rows and name not in bad_ids:
                try:
                    rows[name] = _trace_row(name, step_count)
                except DatasetFormatError as exc:
                    bad_ids[name] = exc
        if traces is None or bad_index is not None or bad_ids:
            continue  # the file is refused below; only its count and errors matter
        row = np.repeat(np.array([rows[name] for name in names])[which],
                        np.diff(starts, append=records.size))
        traces[row, n] = records["z"].view(complex)[:, 0]  # a missing sample stays nan
    if count != expected:
        raise DatasetFormatError(f"trace record count {count} != {expected}")
    if bad_index is not None:
        raise DatasetFormatError(f"sample index {bad_index} out of range")
    if bad_ids:
        raise bad_ids[min(bad_ids)]
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
        write_records(path, header, [((_indexes(self.step_count),), values)])

    @classmethod
    def read(cls, path) -> "ReportFile":
        return _read_file(path, cls._from_records, _REPORT_RECORDS)

    @classmethod
    def _from_records(cls, meta, chunks, room) -> "ReportFile":
        records = _joined(chunks)
        values = _read_keys(meta, _REPORT_KEYS)
        if records.size != values["step_count"]:
            raise DatasetFormatError("report record count mismatch")
        return cls(
            **values,
            measured=np.ravel(records["measured"].view(complex)),
            fitted=np.ravel(records["fitted"].view(complex)),
        )
