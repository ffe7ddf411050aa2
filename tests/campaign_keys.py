"""Every trial key of every campaign preset, pinned across refactors.

A stored trial is found again only by its key, so a change that moves
campaign code must leave every key byte-identical, or existing stores stop
resuming. Keys here use a fixed code version instead of the source
fingerprint, so they depend on the configs alone.
``tests/data/campaign_keys.json`` holds this script's output, and
``test_campaign_kinds.py`` compares a fresh run with it. Run as a script,
it prints the same JSON for comparison across checkouts::

    PYTHONPATH=<checkout>/src python tests/campaign_keys.py
"""

from __future__ import annotations

import json

from repro.campaign import campaign_presets, trial_key

CODE_VERSION = "pin"


def preset_keys() -> dict[str, list[str]]:
    """Preset name -> its trial keys, deduplicated, in campaign order."""
    return {
        name: list(dict.fromkeys(trial_key(c, CODE_VERSION) for c in spec.trials()))
        for name, spec in campaign_presets().items()
    }


def main() -> None:
    print(json.dumps(preset_keys(), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
