"""``python -m wordlab``: the same command-line interface as ``wordlab``."""

from .cli import entry

if __name__ == "__main__":
    entry()
