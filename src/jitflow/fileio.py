"""Bit-exact file formats: grid binaries, PGM heatmaps, JSON, CSV.

Every writer is byte-deterministic for a fixed input (sorted JSON keys,
round-trip float repr, atomic temp-file writes), so identical runs produce
identical files.

Grid binary layout ("JITG"): 4 ASCII magic bytes, then four little-endian
uint32 words (version=1, h_tok, w_tok, d), then h*w*d little-endian float32
values, token-row-major then channel.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict, config_to_dict
from .errors import ConfigError, EngineError, FormatError
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
            fh.write(payload)
        os.chmod(tmp, _FILE_MODE)
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
    v = np.asarray(values, dtype=np.float64)
    return {
        "min": float(v.min()),
        "max": float(v.max()),
        "mean": float(v.mean()),
        "rms": float(np.sqrt(np.mean(v * v))),
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
# replay fixtures: JITG blocks keyed by a JSON manifest


def save_replay(field: ReplayField, dirpath) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    entries = []
    items = sorted(field.tape.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    for pos, ((key, t), values) in enumerate(items):
        name = f"block_{pos:04d}.jitg"
        m, d = values.shape
        write_grid(dirpath / name, TokenGrid(1, m, d, values))
        indices = np.frombuffer(key, np.int64).tolist()
        entries.append({"t": t, "indices": indices, "file": name})
    _atomic_write(
        dirpath / "manifest.json",
        canonical_json({"entries": entries}).encode("utf-8"),
    )


def load_replay(dirpath, strict: bool = True) -> ReplayField:
    dirpath = Path(dirpath)
    doc = _read_json(dirpath / "manifest.json", FormatError, "replay manifest")
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise FormatError("replay manifest needs an 'entries' list")
    field = ReplayField(strict=strict)
    for pos, entry in enumerate(entries):
        indices, t, name = _manifest_entry(entry, pos)
        try:
            block = read_grid(dirpath / name)
        # ValueError: a name the OS cannot encode; EngineError: a corrupt block file
        except (OSError, ValueError, EngineError) as exc:
            raise FormatError(f"replay entry {pos}: cannot read {name!r}: {exc}") from exc
        if block.n_tokens != len(indices):
            raise FormatError(
                f"replay entry {pos}: {name} holds {block.n_tokens} tokens, "
                f"manifest lists {len(indices)}"
            )
        field.tape[(indices.tobytes(), t)] = block.data
    return field


def _manifest_entry(entry, pos: int) -> tuple[np.ndarray, float, str]:
    """(indices, t, file name) of one manifest entry, or a FormatError."""
    if not isinstance(entry, dict):
        raise FormatError(f"replay entry {pos} is not a JSON object")
    missing = [k for k in ("file", "indices", "t") if k not in entry]
    if missing:
        raise FormatError(f"replay entry {pos} lacks {', '.join(missing)}")
    name, raw_indices, t = entry["file"], entry["indices"], entry["t"]
    if not isinstance(name, str) or Path(name).name != name or name in ("", ".."):
        raise FormatError(f"replay entry {pos}: file must be a bare file name")
    if not (isinstance(raw_indices, list)
            and all(type(i) is int and 0 <= i < 2**63 for i in raw_indices)):
        raise FormatError(f"replay entry {pos}: indices must be a list of token indices")
    if isinstance(t, bool) or not isinstance(t, (int, float)) or abs(t) > sys.float_info.max:
        raise FormatError(f"replay entry {pos}: t must be a number")
    return np.asarray(raw_indices, dtype=np.int64), float(t), name
