"""``python -m splitconf``: the same command line as ``splitconf``."""

import sys

from .cli import main

sys.exit(main())
