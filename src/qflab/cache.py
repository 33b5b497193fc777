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

In process, cache_theta returns a read-only int64 array: a hit is a
zero-copy view of the checksummed body just read, a miss the swept
array.  form_hash is memoised per form (a bounded lru_cache), so the
canonical form of each distinct form is computed once per process.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import tempfile
import zlib
from functools import lru_cache
from pathlib import Path

import numpy as np

from .forms import QuadForm
from .reduction import canonical_form
from .theta import _theta_array

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
    """Explicit argument wins, then the QFLAB_CACHE environment variable
    (empty there: no cache).  An empty explicit argument raises ValueError,
    since Path("") would be the current directory."""
    if explicit is not None:
        if os.fspath(explicit) == "":
            raise ValueError("cache directory must not be empty")
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    return Path(env) if env else None


@lru_cache(maxsize=256)
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


def _write(path: Path, key: str, coeffs: np.ndarray) -> None:
    """Store the int64 array coeffs atomically, unless a concurrent writer
    has meanwhile stored an entry of at least the same precision."""
    body = coeffs.astype(_DTYPE, copy=False).tobytes()
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
                cache_dir: str | os.PathLike | None = None) -> np.ndarray:
    """Theta coefficients r(0..prec) as a read-only int64 array, loaded
    from or stored to the cache directory (no directory resolved: plain
    recomputation)."""
    if prec < 0:
        raise ValueError("prec must be nonnegative")
    directory = resolve_cache_dir(cache_dir)
    if directory is None:
        return _theta_array(form, prec)
    directory.mkdir(parents=True, exist_ok=True)
    key = form_hash(form)
    path = directory / f"theta-{key}.json"
    try:
        stored = _read(path, key)
        if len(stored) > prec:
            return stored[:prec + 1]
    except FileNotFoundError:
        pass
    except _InvalidEntry as exc:
        log.log(exc.level, "theta cache entry %s %s; recomputing", path.name, exc)
    coeffs = _theta_array(form, prec)
    _write(path, key, coeffs)
    return coeffs


def make_cache(cache_dir: str | os.PathLike | None):
    """Adapter with the (form, prec) -> coeffs signature RepQuery expects,
    or None when no cache directory is configured."""
    directory = resolve_cache_dir(cache_dir)
    if directory is None:
        return None

    def lookup(form: QuadForm, prec: int) -> np.ndarray:
        return cache_theta(form, prec, directory)

    return lookup
