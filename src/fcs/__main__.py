"""``python -m fcs ARGS`` runs the command line, as the ``fcs`` script does."""

from .cli import main

if __name__ == "__main__":
    main()
