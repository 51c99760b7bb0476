import os
import sys

from .cli import EXIT_CLOSED_STDOUT, main

if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`... | head`): point stdout at
        # /dev/null so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_CLOSED_STDOUT
    sys.exit(status)
