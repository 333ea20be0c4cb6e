"""Set-up probe: a fresh interpreter imports the CLI and validates one spec.

Run as a child of run.py, which times it from spawn to the "ready" line.
Importing torsionlab.cli pulls in jsonschema; the first validate_spec call
loads the spec schema.  Users pay both on every CLI run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from torsionlab.cli import validate_spec  # noqa: E402

validate_spec({"task": "census", "ring": {"zmod": 12}})
print("ready", flush=True)
