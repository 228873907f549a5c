"""`python -m mereovc`: the same command line as the `mereovc` executable."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
