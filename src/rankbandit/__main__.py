"""``python -m rankbandit``: the command-line front end of :mod:`rankbandit.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
