"""`python -m backpenta ...` runs the backpenta command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
