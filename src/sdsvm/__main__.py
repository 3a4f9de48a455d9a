"""`python -m sdsvm`: the same command line as the `sdsvm` script."""

from .cli import run

if __name__ == "__main__":
    run()
