"""``python -m hypersolids.cli``: the package is imported once, as itself."""

import sys

from . import main

sys.exit(main())
