"""``python -m galcert``: the command-line interface of ``galcert.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
