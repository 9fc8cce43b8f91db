"""``python -m asymqkd``: the same command line as the ``asymqkd`` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
