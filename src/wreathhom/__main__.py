"""``python -m wreathhom``: the same command as the ``wreathhom`` script."""

from .cli import main

if __name__ == "__main__":
    main()
