"""Bit-exact file formats: grid binaries, PGM heatmaps, JSON, CSV, replay tapes.

Every writer is byte-deterministic for a fixed input (atomic temp-file
writes), so identical runs produce identical files.

Grid binary layout ("JITG"): 4 ASCII magic bytes, then four little-endian
uint32 words (version=1, h_tok, w_tok, d), then h*w*d little-endian float32
values, token-row-major then channel.

Canonical JSON is the text of json.dumps(doc, sort_keys=True, indent=2)
plus "\n": sorted keys, ASCII escapes, floats via repr.

Replay tape: a directory with manifest.json, canonical JSON of
{"entries": [{"indices", "t"}, ...]} sorted by t, then by the int64 bytes
of the indices, and values.jitg, a 1 x R x d JITG grid holding the
entries' rows in entry order (no file for an empty tape).  save_replay
checks the values before it removes the manifest, and writes the manifest
last, so a save cut short leaves a tape load_replay refuses.  Tapes of the
older one-block-per-entry layout have no values.jitg and are refused.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict, config_to_dict
from .errors import ConfigError, DimensionError, EngineError, FormatError
from .fields import ReplayField
from .grid import TokenGrid
from .importance import ImportanceMap
from .sampler import RunReport

_MAGIC = b"JITG"
_HEADER = struct.Struct("<4sIIII")


def _process_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# mkstemp creates files 0600; give outputs the mode a plain open() would
_FILE_MODE = 0o666 & ~_process_umask()


def _atomic_write(path, payload: bytes) -> None:
    """Write through a temp file unique to this call, then rename over path.

    Concurrent writers to one path each rename a complete file, so the
    last rename wins and no reader sees a mix of two payloads.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), _FILE_MODE)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_grid(path, grid: TokenGrid) -> None:
    header = _HEADER.pack(_MAGIC, 1, grid.h_tok, grid.w_tok, grid.d)
    _atomic_write(path, header + grid.data.astype("<f4").tobytes())


def read_grid(path) -> TokenGrid:
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != _MAGIC:
        raise FormatError("bad magic, expected 'JITG'", offset=0)
    if len(raw) < _HEADER.size:
        raise FormatError("truncated header", offset=len(raw))
    _, version, h, w, d = _HEADER.unpack_from(raw)
    if version != 1:
        raise FormatError(f"unsupported version {version}", offset=4)
    expected = _HEADER.size + h * w * d * 4
    if len(raw) < expected:
        raise FormatError(
            f"truncated payload, expected {expected} bytes", offset=len(raw)
        )
    if len(raw) > expected:
        raise FormatError("trailing bytes after payload", offset=expected)
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).copy()
    return TokenGrid(h, w, d, data)


def write_pgm(imap: ImportanceMap, path) -> None:
    """An importance map as binary PGM (P5), min-max normalized; a constant map -> 128."""
    arr = imap.scores.reshape(imap.h_tok, imap.w_tok)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        img = np.full(arr.shape, 128, dtype=np.uint8)
    else:
        img = np.rint((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)
    h, w = arr.shape
    _atomic_write(path, f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


# ---------------------------------------------------------------------------
# JSON documents


def canonical_json(doc) -> str:
    """The text of json.dumps(doc, sort_keys=True, indent=2) plus "\\n".

    json.dumps runs its pure-Python encoder whenever indent is set; this
    builds the same text from json's C pieces. Dicts need str keys.
    """
    return _encode(doc, "\n") + "\n"


# json's spellings of the floats that have no repr in JSON
_FLOAT_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_SPELLING.get(text, text)


_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
# json's C encoder: one line, items separated by ", "
_one_line = json.JSONEncoder().encode


def _encode(value, pad: str) -> str:
    """value as indented JSON; pad is the newline and indent of value's line."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if type(value[0]) in _SCALAR_TEXT:
            # all scalars, and no string holds ", ", "[" or "{": each ", " splits two items
            line = _one_line(value)
            if (line.count(", ") == len(value) - 1
                    and line.find("[", 1) < 0 and "{" not in line):
                return "[" + inner + line[1:-1].replace(", ", "," + inner) + pad + "]"
        return "[" + ",".join([inner + _encode(v, inner) for v in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        parts = []
        for k, v in sorted(value.items()):
            text = _SCALAR_TEXT.get(type(v))
            parts.append(inner + encode_basestring_ascii(k) + ": "
                         + (text(v) if text is not None else _encode(v, inner)))
        return "{" + ",".join(parts) + pad + "}"
    # subclasses of the scalar types, e.g. np.float64
    for kind in (str, bool, int, float):
        if isinstance(value, kind):
            return _SCALAR_TEXT[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_config(path, cfg: RunConfig) -> None:
    _atomic_write(path, canonical_json(config_to_dict(cfg)).encode("utf-8"))


def _read_json(path, error: type[EngineError], what: str):
    """The JSON document at path; a file that cannot be read or parsed raises error."""
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{what} is nested too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc


def read_config(path) -> tuple[RunConfig, list[str]]:
    return config_from_dict(_read_json(path, ConfigError, "config"))


def _stats(values: np.ndarray) -> dict:
    """min, max, mean and rms of an array, in float64; the array is left unchanged."""
    v = np.asarray(values, dtype=np.float64)
    mean = float(v.mean())
    # asarray returns a float64 input uncopied: square in place only a copy
    sq = v * v if np.may_share_memory(v, values) else np.multiply(v, v, out=v)
    return {
        "min": float(values.min()),  # exact: widening to float64 keeps the order
        "max": float(values.max()),
        "mean": mean,
        "rms": float(np.sqrt(sq.mean())),
    }


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready run summary; full grids are written separately as JITG."""
    return {
        "schedule": report.schedule_name,
        "seed": report.seed,
        "nfe": report.nfe,
        "total_cost": report.total_cost,
        "baseline_cost": report.baseline_cost,
        "speedup_vs_baseline": report.speedup_vs_baseline,
        "steps": [
            {"i": s.i, "t": s.t, "stage": s.stage, "m": s.m, "cost": s.cost}
            for s in report.steps
        ],
        "transitions": [
            {
                "step_index": tr.step_index,
                "stage_from": tr.stage_from,
                "stage_to": tr.stage_to,
                "activated": tr.activated.indices.tolist(),
                "importance": _stats(tr.importance_snapshot.scores),
                "target": _stats(tr.target_values.values),
            }
            for tr in report.transitions
        ],
        "endpoint": {
            "h_tok": report.endpoint.h_tok,
            "w_tok": report.endpoint.w_tok,
            "d": report.endpoint.d,
            **_stats(report.endpoint.data),
        },
    }


def write_report(path, report: RunReport) -> None:
    _atomic_write(path, canonical_json(report_to_dict(report)).encode("utf-8"))


def write_metrics_csv(path, report: RunReport) -> None:
    lines = ["step,t,stage,m,cost"]
    lines += [
        f"{s.i},{s.t!r},{s.stage},{s.m},{s.cost!r}" for s in report.steps
    ]
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# replay tapes: one values grid keyed by a JSON manifest


def save_replay(field: ReplayField, dirpath) -> None:
    channels = {rows.shape[1] for rows in field.tape.values()}
    if len(channels) > 1:
        raise DimensionError(f"replay tape mixes channel counts {sorted(channels)}")
    items = sorted(field.tape.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    if items:  # TokenGrid refuses NaN and Inf before the saved tape is touched
        values = np.concatenate([rows for _, rows in items])
        grid = TokenGrid(1, *values.shape, values)
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / "manifest.json").unlink(missing_ok=True)
    if items:
        write_grid(dirpath / "values.jitg", grid)
    entries = [{"t": t, "indices": np.frombuffer(key, np.int64).tolist()}
               for (key, t), _ in items]
    _atomic_write(dirpath / "manifest.json",
                  canonical_json({"entries": entries}).encode("utf-8"))


def load_replay(dirpath, strict: bool = True) -> ReplayField:
    dirpath = Path(dirpath)
    doc = _read_json(dirpath / "manifest.json", FormatError, "replay manifest")
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise FormatError("replay manifest needs an 'entries' list")
    field = ReplayField(strict=strict)
    keys = [_manifest_entry(entry, pos) for pos, entry in enumerate(entries)]
    positions: dict[tuple[bytes, float], int] = {}  # tape key -> entry, in entry order
    for pos, (indices, t) in enumerate(keys):
        if (seen := positions.setdefault((indices.tobytes(), t), pos)) != pos:
            raise FormatError(f"replay entry {pos} repeats entry {seen}")
    if keys:
        try:
            values = read_grid(dirpath / "values.jitg").data
        except (OSError, EngineError) as exc:
            raise FormatError(f"replay tape: cannot read 'values.jitg': {exc}") from exc
        stops = np.cumsum([len(indices) for indices, _ in keys])
        if len(values) != stops[-1]:
            raise FormatError(f"replay tape: values.jitg holds {len(values)} tokens, "
                              f"manifest lists {stops[-1]}")
        field.tape.update(zip(positions, np.split(values, stops[:-1])))
    return field


def _manifest_entry(entry, pos: int) -> tuple[np.ndarray, float]:
    """(indices, t) of one manifest entry, or a FormatError."""
    if not isinstance(entry, dict):
        raise FormatError(f"replay entry {pos} is not a JSON object")
    missing = [k for k in ("indices", "t") if k not in entry]
    if missing:
        raise FormatError(f"replay entry {pos} lacks {', '.join(missing)}")
    raw_indices, t = entry["indices"], entry["t"]
    indices = None
    if isinstance(raw_indices, list) and {int}.issuperset(map(type, raw_indices)):
        try:
            indices = np.fromiter(raw_indices, np.int64, len(raw_indices))
        except OverflowError:  # outside int64
            pass
    if indices is None or (indices.size and indices.min() < 0):
        raise FormatError(f"replay entry {pos}: indices must be a list of token indices")
    # NaN fails every comparison; inf and an int beyond float range fail this one
    if isinstance(t, bool) or not isinstance(t, (int, float)) or not abs(t) <= sys.float_info.max:
        raise FormatError(f"replay entry {pos}: t must be a number")
    return indices, float(t)
