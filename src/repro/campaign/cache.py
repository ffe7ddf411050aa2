"""Content-addressed trial keys.

A trial's identity is the SHA-256 of its fully-resolved config plus the code
version: identical configs hash identically regardless of which campaign
named them, so overlapping sweeps share work, while any config or code
change produces a fresh key and forces a re-run.

The key is what makes re-running a campaign free — the executor skips every
trial whose key already has an ``ok`` record in the store. This relies on
experiments being deterministic functions of their config (seeded workload
generation, seeded schedulers, synthesized traces), a property the test
suite pins down.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any

import repro
from repro import __version__
from repro.campaign.kinds import kind_of
from repro.campaign.spec import config_to_dict

#: Length of the hex digest prefix used as the key; 16 hex chars = 64 bits,
#: far beyond collision range for any realistic campaign size.
KEY_LENGTH = 16


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Version + digest of the package source, e.g. ``1.0.0+3f9a2c41b07d``.

    Hashing every ``repro`` source file (not just ``__version__``) means any
    code edit — even without a version bump — changes every trial key, so a
    persistent store can never silently serve results computed by older
    code. Computed once per process (~milliseconds).
    """
    package_root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return f"{__version__}+{digest.hexdigest()[:12]}"


def trial_key(config, code_version: str | None = None) -> str:
    """Content-addressed identity of one trial, of any kind.

    The payload is the config minus its kind's ``key_excluded`` fields,
    plus a ``"kind"`` entry for every kind that has a ``key_tag``.
    """
    kind = kind_of(config)
    config_dict = config_to_dict(config)
    for field_name in kind.key_excluded:
        del config_dict[field_name]
    payload = {
        "code_version": (
            code_version if code_version is not None else code_fingerprint()
        ),
        "config": config_dict,
    }
    if kind.key_tag is not None:
        payload["kind"] = kind.key_tag
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()[:KEY_LENGTH]


@dataclass
class CacheStats:
    """Hit/miss bookkeeping for one campaign run."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0
