"""``python -m stashpeel``: the same command line as the ``stashpeel`` script."""

from .cli import main

if __name__ == "__main__":
    main()
