"""``python -m translab``: the command-line interface."""

from .cli import main

main()
