"""``python -m homcover``: the command-line interface of ``homcover.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
