"""``python -m sasfork``: the same command line as the ``sasfork`` script."""

from .cli import main

raise SystemExit(main())
