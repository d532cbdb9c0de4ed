"""Runtime configuration: caps, all positive integers.

Settings come from (later wins): built-in defaults and a key=value config
file named by the ``LARGEQUOT_CONFIG`` environment variable or
``--config``.  Every emitted document records them, with a fixed
``seed`` of 0: no command samples, so the document format keeps the key.
It keeps ``term`` under ``caps`` the same way, as the fixed series term
cap :data:`largequot.series.DEFAULT_TERM_CAP`, which is no setting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import check_int
from .largeness import DEFAULT_TRUNCATION_CAP
from .quotients import DEFAULT_ENUM_CAP
from .series import DEFAULT_TERM_CAP
from .verbal import DEFAULT_COSET_CAP, DEFAULT_DEPTH_CAP

ENV_CONFIG_PATH = "LARGEQUOT_CONFIG"

@dataclass(frozen=True)
class Config:
    enumeration_cap: int = DEFAULT_ENUM_CAP
    coset_cap: int = DEFAULT_COSET_CAP
    depth_cap: int = DEFAULT_DEPTH_CAP
    truncation_cap: int = DEFAULT_TRUNCATION_CAP

    def __post_init__(self):
        for f in fields(self):
            check_int(getattr(self, f.name),
                      f"{f.name} must be a positive integer", 1)

    def to_doc(self):
        """The slice of the configuration every output document records."""
        return {
            "seed": 0,
            "caps": {
                "enumeration": self.enumeration_cap,
                "term": DEFAULT_TERM_CAP,
                "coset": self.coset_cap,
                "depth": self.depth_cap,
                "truncation": self.truncation_cap,
            },
        }


_FIELD_NAMES = {f.name for f in fields(Config)}


def parse_config_text(text, source="<config>"):
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        if key not in _FIELD_NAMES:
            raise ValueError(f"{source}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = int(value)
        except ValueError:
            raise ValueError(
                f"{source}:{lineno}: {key} needs an integer, got {value!r}"
            ) from None
    return values


def load_config(path=None):
    """Build a :class:`Config` from defaults and file, in order.

    When ``path`` is None the ``LARGEQUOT_CONFIG`` environment variable is
    consulted; a missing explicit path is an error, a missing variable is
    not.
    """
    values = {}
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH)
    if path:
        with open(path, encoding="utf-8") as handle:
            values.update(parse_config_text(handle.read(), source=path))
    return Config(**values)
