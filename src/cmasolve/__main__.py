"""python -m cmasolve: run the command line entry point, which caps the
thread pools before numpy loads."""

import sys

from cmasolve.cli import main

sys.exit(main())
