"""``python -m mildito``: the same command line as ``mildito``."""

import sys

from .cli import main

sys.exit(main())
