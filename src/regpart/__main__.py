"""``python -m regpart``: the command line without the console script."""

import sys

from .cli import main

sys.exit(main())
