"""On-disk JSON cache for orbit enumerations.

Enumerating elementary orbits is the one operation worth persisting:
the result depends only on the transition matrix and the window k, and
large windows take seconds to minutes.  Entries are written atomically
and serialized canonically, so a cache hit is byte-identical to a fresh
computation.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path

from .core_sft import Sft, recode_to_one_step
from .errors import ResourceLimitError
from .orbits import DEFAULT_ORBIT_CAP, ElementaryOrbit, elementary_orbits

CACHE_ENV = "THERMOSHIFT_CACHE"
SCHEMA_VERSION = 1

_DISABLED_VALUES = {"", "0", "off", "none"}


def matrix_digest(sft: Sft) -> str:
    """Stable digest of the transition data (labels included)."""
    return hashlib.sha256(sft.to_json().encode("ascii")).hexdigest()


def cache_key(sft: Sft, k: int) -> tuple[str, int]:
    return (matrix_digest(sft), k)


def resolve_cache_dir(override: str | os.PathLike | None = None) -> Path | None:
    """Cache directory, or None when caching is disabled.

    Precedence: explicit override, then the environment variable, then
    a per-user default.  Setting the variable to one of
    '', '0', 'off', 'none' disables caching.
    """
    if override is not None:
        return Path(override)
    env = os.environ.get(CACHE_ENV)
    if env is not None:
        if env.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(env)
    return Path.home() / ".cache" / "thermoshift"


def entry_path(cache_dir: Path, sft: Sft, k: int) -> Path:
    digest, _ = cache_key(sft, k)
    return cache_dir / f"orbits-{digest[:24]}-k{k}.json"


def orbits_payload(sft: Sft, k: int, orbits) -> str:
    """Canonical JSON text for an orbit list (sorted, no whitespace)."""
    return json.dumps({
        "schema": SCHEMA_VERSION,
        "digest": matrix_digest(sft),
        "k": k,
        "orbits": [list(o.segment) for o in orbits],
    }, sort_keys=True, separators=(",", ":"))


def _rebuild_orbit(index, k: int, segment) -> ElementaryOrbit:
    seg = tuple(segment)
    n, word = len(seg), seg * k         # long enough to read the k-block at each position
    ids = tuple(index[word[i:i + k]] for i in range(n))
    return ElementaryOrbit(k=k, period=n, segment=seg,
                           state_cycle=ids, cylinders=frozenset(ids))


def orbits_from_payload(text: str, sft: Sft, k: int) -> tuple[ElementaryOrbit, ...]:
    """Parse a cache entry back into orbit objects.

    Raises ValueError on any structural mismatch; callers treat that as
    a corrupt entry.
    """
    obj = json.loads(text)
    if obj.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported cache schema {obj.get('schema')!r}")
    if obj.get("digest") != matrix_digest(sft) or obj.get("k") != k:
        raise ValueError("cache entry does not match the requested shift/window")
    index = recode_to_one_step(sft, k).block_index()
    out = [_rebuild_orbit(index, k, seg) for seg in obj["orbits"]]
    out.sort(key=lambda o: (o.period, o.segment))
    return tuple(out)


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file in the target directory plus rename, so a
    crash never leaves a partial file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cached_elementary_orbits(sft: Sft, k: int, cap: int = DEFAULT_ORBIT_CAP,
                             cache_dir: str | os.PathLike | None = None,
                             enabled: bool = True) -> tuple[ElementaryOrbit, ...]:
    """Orbit enumeration backed by the JSON cache.

    A corrupt entry triggers a warning, a recompute and an overwrite.
    With caching disabled (flag or environment) this is a plain call to
    the enumerator.
    """
    directory = resolve_cache_dir(cache_dir) if enabled else None
    if directory is None:
        return elementary_orbits(sft, k, cap)
    path = entry_path(directory, sft, k)
    if path.exists():
        try:
            orbits = orbits_from_payload(path.read_text(), sft, k)
            if len(orbits) > cap:
                raise ResourceLimitError(
                    f"cached enumeration holds {len(orbits)} orbits, over cap {cap}")
            return orbits
        except ResourceLimitError:
            raise
        except (ValueError, KeyError, OSError) as e:
            warnings.warn(f"corrupt orbit cache entry {path}: {e}; recomputing",
                          RuntimeWarning, stacklevel=2)
    orbits = elementary_orbits(sft, k, cap)
    atomic_write_text(path, orbits_payload(sft, k, orbits))
    return orbits
