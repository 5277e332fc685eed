"""Locate the checkout the benchmark runs in and import vrank from its source.

The benchmark must measure the code of the checkout it sits in, never an
installed copy, so ``src/`` goes first on ``sys.path`` and the imported
package is checked to come from there.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def die(message: str) -> None:
    """Report a usage or set-up error and exit with code 2 (code 1 means an
    op failed its checks)."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` on the import path; exit with code 2 when
    the checkout holds no vrank source."""
    if not os.path.isfile(os.path.join(SRC, "vrank", "__init__.py")):
        die(f"no vrank source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import vrank

    if os.path.dirname(os.path.dirname(os.path.abspath(vrank.__file__))) != SRC:
        die(f"vrank was imported from {vrank.__file__}, not {SRC}")
