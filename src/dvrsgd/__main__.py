"""``python -m dvrsgd``: the ``dvrsgd`` console script."""

from .harness import main

raise SystemExit(main())
