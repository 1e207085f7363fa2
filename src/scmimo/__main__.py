"""``python -m scmimo ...`` runs the same command line as the ``scmimo``
entry point (see experiments_cli)."""

import sys

from .experiments_cli import main

if __name__ == "__main__":
    sys.exit(main())
