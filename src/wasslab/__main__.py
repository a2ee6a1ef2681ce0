"""`python -m wasslab`: the same command line as the `wasslab` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
