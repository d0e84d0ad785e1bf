"""``python -m twistnorm``: the entry point of the ``twistnorm`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
