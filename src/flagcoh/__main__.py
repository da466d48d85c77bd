"""``python -m flagcoh``: the flagcoh command line (see ``flagcoh.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
