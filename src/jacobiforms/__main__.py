"""`python -m jacobiforms`: run the command line and exit with its code.

`gc.freeze()` moves every live object into the permanent generation before
the interpreter exits, so the collections of its shutdown have nothing left
to walk; flushing, atexit handlers and the report of a failed flush run as
before.  It sits here and not in `cli.main`, which the tests call in-process.
"""

import gc
import sys

from .cli import main

code = main()
gc.freeze()
sys.exit(code)
