"""Content-addressed disk cache for theta coefficient vectors.

An entry is the JSON file theta-<formHash>.json holding
{"format": 2, "formHash", "prec", "checksum", "coeffs"}: coeffs is the
base64 of the zlib-compressed little-endian int64 coefficients r(0..prec)
and checksum the sha256 of those raw bytes.  The file name hashes the
canonical reduced form, so isometric inputs share entries, and the format
version lives in the payload, so the name stays stable across formats.
A stored vector with larger precision serves smaller requests by
truncation.  Entries of another format count as misses and are rewritten;
corrupted or unreadable ones are detected and recomputed.  A writer keeps
an entry of at least its own precision that a concurrent writer stored
while it computed.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .forms import QuadForm
from .reduction import canonical_form
from .theta import theta_coeffs

log = logging.getLogger(__name__)

ENV_VAR = "QFLAB_CACHE"
FORMAT = 2
_DTYPE = "<i8"


class _InvalidEntry(Exception):
    """An entry that cannot serve; level is how loudly to log it."""

    def __init__(self, level: int, reason: str):
        super().__init__(reason)
        self.level = level


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path | None:
    """Explicit argument wins, then the QFLAB_CACHE environment variable."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    return Path(env) if env else None


def form_hash(form: QuadForm) -> str:
    canonical = canonical_form(form)
    payload = json.dumps(canonical.hessian).encode()
    return hashlib.sha256(payload).hexdigest()


def _read(path: Path, key: str) -> np.ndarray:
    """The coefficients stored at path.  Raises FileNotFoundError when there
    is no entry and _InvalidEntry when the entry cannot serve."""
    try:
        data = json.loads(path.read_bytes())
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise _InvalidEntry(logging.WARNING, "is unreadable") from exc
    if not isinstance(data, dict):
        raise _InvalidEntry(logging.WARNING, "is unreadable")
    if data.get("format") != FORMAT:
        raise _InvalidEntry(logging.INFO, f"is not in format {FORMAT}")
    try:
        body = zlib.decompress(base64.b64decode(data["coeffs"], validate=True))
    except (KeyError, TypeError, ValueError, zlib.error) as exc:
        raise _InvalidEntry(logging.WARNING, "is unreadable") from exc
    prec = data.get("prec")
    if (data.get("formHash") != key
            or type(prec) is not int or len(body) != 8 * (prec + 1)
            or data.get("checksum") != hashlib.sha256(body).hexdigest()):
        raise _InvalidEntry(logging.WARNING, "is corrupted")
    return np.frombuffer(body, dtype=_DTYPE)


def _stored_prec(path: Path, key: str) -> int:
    """Precision of the valid entry at path, -1 when there is none."""
    try:
        return len(_read(path, key)) - 1
    except (FileNotFoundError, _InvalidEntry):
        return -1


def _write(path: Path, key: str, coeffs: list[int]) -> None:
    """Store coeffs atomically, unless a concurrent writer has meanwhile
    stored an entry of at least the same precision.  A coefficient outside
    int64 raises OverflowError before any file is made."""
    body = np.asarray(coeffs, dtype=_DTYPE).tobytes()
    prec = len(coeffs) - 1
    payload = json.dumps({
        "format": FORMAT,
        "formHash": key,
        "prec": prec,
        "checksum": hashlib.sha256(body).hexdigest(),
        "coeffs": base64.b64encode(zlib.compress(body, 1)).decode("ascii"),
    })
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        if _stored_prec(path, key) >= prec:
            os.unlink(tmp)
        else:
            os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_theta(form: QuadForm, prec: int,
                cache_dir: str | os.PathLike | None = None) -> list[int]:
    """Theta coefficients through prec, loaded from or stored to the cache
    directory (no directory resolved: plain recomputation)."""
    if prec < 0:
        raise ValueError("prec must be nonnegative")
    directory = resolve_cache_dir(cache_dir)
    if directory is None:
        return theta_coeffs(form, prec)
    directory.mkdir(parents=True, exist_ok=True)
    key = form_hash(form)
    path = directory / f"theta-{key}.json"
    try:
        stored = _read(path, key)
        if len(stored) > prec:
            return stored[:prec + 1].tolist()
    except FileNotFoundError:
        pass
    except _InvalidEntry as exc:
        log.log(exc.level, "theta cache entry %s %s; recomputing", path.name, exc)
    coeffs = theta_coeffs(form, prec)
    _write(path, key, coeffs)
    return coeffs


def make_cache(cache_dir: str | os.PathLike | None):
    """Adapter with the (form, prec) -> coeffs signature RepQuery expects,
    or None when no cache directory is configured."""
    directory = resolve_cache_dir(cache_dir)
    if directory is None:
        return None

    def lookup(form: QuadForm, prec: int) -> list[int]:
        return cache_theta(form, prec, directory)

    return lookup
