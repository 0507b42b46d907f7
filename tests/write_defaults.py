"""Write the default scenario parameters with one value replaced.

Usage::

    python3 tests/write_defaults.py OUT SCENARIO KEY JSON_VALUE
    CONVLAB_DEFAULTS=OUT convlab run SCENARIO

reads the packaged defaults with ``convlab.scenarios.load_defaults``, sets
``scenarios[SCENARIO][KEY]`` to ``JSON_VALUE`` read as JSON (``NaN``,
``1e200`` and ``[0, 0.4, 1e200]`` are all values), and writes the result to
OUT as ``json.dump`` does, ready to be read back through CONVLAB_DEFAULTS.
"""

from __future__ import annotations

import argparse
import json
import sys

from convlab.scenarios import load_defaults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out")
    parser.add_argument("scenario")
    parser.add_argument("key")
    parser.add_argument("value", help="the new value, as JSON")
    args = parser.parse_args(argv)
    data = load_defaults()
    data["scenarios"][args.scenario][args.key] = json.loads(args.value)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
