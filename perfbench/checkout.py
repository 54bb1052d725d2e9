"""Make `import spit` load the package from this checkout's `src/` only.

The benchmark must measure the code next to it, never an installed copy, and
must fail when the package sources are absent.  Importing this module puts
`<checkout>/src` first on `sys.path` and checks where `spit` came from.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import spit  # noqa: E402

if Path(spit.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"spit was imported from {spit.__file__}, not from {SRC}")
