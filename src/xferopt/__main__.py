"""``python -m xferopt``: the same commands as the ``xferopt`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
