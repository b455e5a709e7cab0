"""On-disk JSON cache for CLI ``orbits``, keyed by the transition data
and the window k.  ``THERMOSHIFT_CACHE`` is its only setting: unset, the
entries go to ``~/.cache/thermoshift``; '', '0', 'off' or 'none' (any
case, spaces stripped) turn it off; any other value names the directory.
Entries are written atomically and serialized canonically, so a hit is
byte-identical to a fresh computation.  An entry records its census
count, so that an entry cut short is a corrupt one, not a smaller census;
an entry that cannot be written is skipped with a warning.
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
SCHEMA_VERSION = 2

_DISABLED_VALUES = {"", "0", "off", "none"}


def _read(text: str, sft: Sft, k: int, digest: str) -> tuple[ElementaryOrbit, ...]:
    """The orbits of an entry's text; ValueError, KeyError or TypeError
    on an entry that is malformed, lists other than its count of orbits
    or is written for another (sft, k)."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or obj.get("schema") != SCHEMA_VERSION:
        raise ValueError("unsupported cache schema")
    if obj.get("digest") != digest or obj.get("k") != k:
        raise ValueError("cache entry does not match the requested shift/window")
    index = recode_to_one_step(sft, k).block_index()
    out = []
    for segment in obj["orbits"]:
        seg = tuple(segment)
        n, word = len(seg), seg * k     # long enough to read the k-block at each position
        ids = tuple(index[word[i:i + k]] for i in range(n))
        cylinders = frozenset(ids)
        # each k-block read above checks k - 1 steps of the cycle, so none at k = 1
        steps = zip(seg[-1:] + seg, seg) if k == 1 else ()
        if not n or len(cylinders) != n or not all(sft.transition[a][b] for a, b in steps):
            raise ValueError(f"{list(seg)} is not an elementary orbit")
        out.append(ElementaryOrbit(k=k, period=n, segment=seg,
                                   state_cycle=ids, cylinders=cylinders))
    if not out:     # every shift has a periodic orbit
        raise ValueError("cache entry lists no orbits")
    count = obj.get("count")
    if type(count) is not int or count != len(out):
        raise ValueError(f"cache entry lists {len(out)} orbits, its count is {count!r}")
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


def cached_elementary_orbits(sft: Sft, k: int) -> tuple[ElementaryOrbit, ...]:
    """``elementary_orbits(sft, k)`` through the cache that
    ``THERMOSHIFT_CACHE`` selects.

    A corrupt entry triggers a warning, a recompute and an overwrite; an
    entry that cannot be written (the directory is a file, say) a warning
    only.  A hit over ``DEFAULT_ORBIT_CAP`` orbits raises ResourceLimitError.
    """
    env = os.environ.get(CACHE_ENV)
    if env is not None and env.strip().lower() in _DISABLED_VALUES:
        return elementary_orbits(sft, k)
    directory = Path.home() / ".cache" / "thermoshift" if env is None else Path(env)
    digest = hashlib.sha256(sft.to_json().encode("ascii")).hexdigest()
    path = directory / f"orbits-{digest[:24]}-k{k}.json"
    try:
        orbits = _read(path.read_text(), sft, k, digest)
    except (FileNotFoundError, NotADirectoryError):
        pass
    except (ValueError, KeyError, TypeError, OSError) as e:
        warnings.warn(f"corrupt orbit cache entry {path}: {e}; recomputing",
                      RuntimeWarning, stacklevel=2)
    else:
        if len(orbits) > DEFAULT_ORBIT_CAP:
            raise ResourceLimitError(f"cached enumeration holds {len(orbits)} "
                                     f"orbits, over cap {DEFAULT_ORBIT_CAP}")
        return orbits
    orbits = elementary_orbits(sft, k)
    try:
        atomic_write_text(path, json.dumps({
            "schema": SCHEMA_VERSION, "digest": digest, "k": k, "count": len(orbits),
            "orbits": [list(o.segment) for o in orbits],
        }, sort_keys=True, separators=(",", ":")))
    except OSError as e:
        warnings.warn(f"cannot write orbit cache entry {path}: {e}", RuntimeWarning,
                      stacklevel=2)
    return orbits
