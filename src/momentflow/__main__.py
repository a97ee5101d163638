"""``python -m momentflow``: the command-line front end of :mod:`momentflow.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
