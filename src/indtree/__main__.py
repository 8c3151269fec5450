"""``python -m indtree``: the ``indtree`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
