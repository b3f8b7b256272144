"""``python -m facevec``: the same command line as the ``facevec`` script."""
from .cli import main

if __name__ == "__main__":
    main()
