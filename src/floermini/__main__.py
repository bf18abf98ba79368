"""`python -m floermini run CONFIG [...]`: the `floermini` command."""

import sys

from .cli import main

sys.exit(main())
