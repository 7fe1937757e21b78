"""``python -m vqpde``: the ``vqpde`` command without an install."""

import sys

from .cli import main

if __name__ == "__main__":  # not in a spawned pool worker
    sys.exit(main())
